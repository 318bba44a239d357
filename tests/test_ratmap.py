"""Sphere points, rational map evaluation, critical divisors, forward thickening."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn.kernel import Polynomial
from ratdyn.ratmap import (
    MapError,
    RationalMap,
    SpherePoint,
    local_coord,
    parse_map,
)

from conftest import coeff_or_zero, finite_complex


class TestSpherePoint:
    def test_chart_switch(self):
        assert SpherePoint(1.0).chart_coords() == ("z", 1.0)
        chart, w = SpherePoint(10.0).chart_coords()
        assert chart == "w" and abs(w - 0.1) < 1e-15
        assert SpherePoint.infinity().chart_coords() == ("w", 0j)

    def test_unhashable(self):
        # equality is closeness, which no hash can agree with
        with pytest.raises(TypeError):
            hash(SpherePoint(0))

    def test_distance_across_charts(self):
        a = SpherePoint(1e9)
        b = SpherePoint.infinity()
        assert a.distance(b) < 1e-8
        assert a.close_to(b)

    def test_json_round_trip(self):
        for pt in (SpherePoint(1 - 2j), SpherePoint.infinity()):
            again = SpherePoint.from_json(pt.to_json())
            assert again.close_to(pt)

    def test_local_coord_across_charts(self):
        assert local_coord(0j, "w", 0.1) is None  # 1/0 has no coordinate
        assert local_coord(None, "z", 0.5) is None
        assert local_coord(None, "w", 0.1) == -0.1
        assert local_coord(4.0, "w", 0.1) == 0.25 - 0.1
        assert local_coord(3.0, "z", 1.0) == 2.0


class TestParseAndEvaluate:
    def test_parse_degree(self):
        assert parse_map("z^2 + 1/4").degree == 2
        assert parse_map("(z^2+1)^2 / (4*z^3 - 4*z)").degree == 4
        assert parse_map("z / (1 + z)").degree == 1

    def test_params(self):
        f = parse_map("z^2 + c", {"c": 0.25})
        assert abs(f.evaluate(0.5).value - 0.5) < 1e-15

    def test_constant_rejected(self):
        with pytest.raises(MapError):
            parse_map("3 + 0*z")

    def test_pole_goes_to_infinity(self):
        f = parse_map("1 / z")
        assert f.evaluate(0.0).is_infinity
        assert abs(f.evaluate(SpherePoint.infinity()).value) < 1e-15

    def test_evaluate_matches_formula(self):
        f = parse_map("(z^2 - 1)/(z^2 + 1)")
        for z in (0.3, 1.7 - 0.4j, 5.0j):
            direct = (z**2 - 1) / (z**2 + 1)
            assert abs(f.evaluate(z).value - direct) < 1e-12

    @given(z=finite_complex(6.0))
    def test_step_matches_polynomial_evaluation(self, z):
        # reference: the chart pair evaluated by Polynomial (numpy Horner),
        # which rounds differently from the Python complex Horner of step
        f = parse_map("(z^3 + (0.3+0.2i)*z - 1)/(z^2 + 0.7i)")
        chart, t = SpherePoint(z).chart_coords()
        a, b = f._chart_pair(chart)
        ref = a(t) / b(t)
        val = f.step(z)
        assert val is not None
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_step_raw_infinity_and_poles(self):
        f = parse_map("1/(z^2-1)")
        assert f.step(1.0 + 0j) is None
        assert f.step(None) == 0
        assert f.step(0j) == -1

    def test_reduction_of_common_factor(self):
        # (z^2 - 1)/(z - 1) reduces to z + 1 (degree 1)
        f = RationalMap(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))
        assert f.degree == 1
        assert abs(f.evaluate(1.0).value - 2.0) < 1e-9


class TestCriticalDivisor:
    def test_quadratic(self):
        ram = parse_map("z^2 - 1").critical_divisor()
        pts = {p.to_json() if p.is_infinity else tuple(p.to_json()) for p, _ in ram.entries}
        assert ram.total == 2
        assert ("inf" in pts) and ((0.0, 0.0) in pts)

    def test_power_map_multiplicity(self):
        ram = parse_map("z^4").critical_divisor()
        assert ram.total == 6
        assert ram.multiplicity_at(SpherePoint(0.0)) == 3
        assert ram.multiplicity_at(SpherePoint.infinity()) == 3

    @given(
        num=st.lists(coeff_or_zero(), min_size=3, max_size=5),
        den=st.lists(coeff_or_zero(), min_size=1, max_size=4),
    )
    def test_total_is_2d_minus_2(self, num, den):
        try:
            f = RationalMap(num, den)
        except (MapError, ValueError):
            assume(False)
        assume(f.degree >= 1)
        try:
            ram = f.critical_divisor()
        except MapError:
            assume(False)
        assert ram.total == 2 * f.degree - 2


class TestForwardThickening:
    @given(c=finite_complex(1.0), n=st.integers(0, 3))
    def test_ram_n_monotone(self, c, n):
        f = parse_map("z^2 + c", {"c": c})
        cur = f.ram_n(n)
        nxt = f.ram_n(n + 1)
        # multiplicities never decrease, support never shrinks
        for pt, m in cur.entries:
            assert nxt.multiplicity_at(pt) >= m
        assert nxt.total >= cur.total

    def test_level_zero_thickens(self):
        f = parse_map("z^2 - 1")
        ram0 = f.ram_n(0)
        ram = f.critical_divisor()
        for pt, m in ram.entries:
            assert ram0.multiplicity_at(pt) == m + 1

    def test_pcf_orbit_stabilizes(self):
        # postcritically finite: support stops growing
        f = parse_map("(z^2+1)^2 / (4*z^3 - 4*z)")
        sizes = [len(f.ram_n(n)) for n in range(6)]
        assert sizes[-1] == sizes[-2]
