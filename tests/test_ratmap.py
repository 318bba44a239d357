"""Sphere points, rational map evaluation, critical divisors, forward thickening."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn.kernel import Polynomial
from ratdyn.ratmap import (
    SNAP_TOL,
    MapError,
    RationalMap,
    SpherePoint,
    chart_coords,
    distance,
    distances,
    local_coord,
    local_coords,
    moduli,
    parse_map,
    raw_array,
    snap_keys,
)

from conftest import coeff_or_zero, finite_complex


class TestSpherePoint:
    def test_chart_switch(self):
        assert chart_coords(SpherePoint(1.0).value) == ("z", 1.0)
        chart, w = chart_coords(SpherePoint(10.0).value)
        assert chart == "w" and abs(w - 0.1) < 1e-15
        assert chart_coords(SpherePoint.infinity().value) == ("w", 0j)

    def test_unhashable(self):
        # equality is closeness, which no hash can agree with
        with pytest.raises(TypeError):
            hash(SpherePoint(0))

    def test_distance_across_charts(self):
        a = SpherePoint(1e9)
        b = SpherePoint.infinity()
        assert distance(a.value, b.value) < 1e-8
        assert a == b

    def test_json_round_trip(self):
        for pt in (SpherePoint(1 - 2j), SpherePoint.infinity()):
            again = SpherePoint.from_json(pt.to_json())
            assert again == pt

    def test_local_coord_across_charts(self):
        assert local_coord(0j, None) is None  # 1/0 has no coordinate
        assert local_coord(None, 0.5) is None
        assert local_coord(None, None) == 0
        assert local_coord(4.0, None) == 0.25
        assert local_coord(3.0, 1.0) == 2.0
        assert local_coord(7.0, 5.0) == 2.0  # z - z0 beyond radius 2 too

    def test_array_rules_round_as_the_scalar_ones(self, rng):
        # the block tracker's detectors must decide exactly as the scalar rules
        z = np.concatenate([
            rng.standard_normal(3000) + 1j * rng.standard_normal(3000),
            10.0 ** rng.uniform(-9, 9, 3000) * np.exp(2j * np.pi * rng.random(3000)),
            [0, -0.0, 2, 2j, -2 + 1e-300j, 1e-320, 5e-8, -5e-8j, 1.5e-7, 2.5e-7],
        ])
        raw = [complex(v) for v in z] + [None]  # raw values, as RationalMap.step gives
        zs = raw_array(raw)
        keys = snap_keys(zs)
        chart_bit, re, im = keys >> 62, keys >> 31 & (2**31 - 1), keys & (2**31 - 1)
        for k, v in enumerate(raw):
            chart, c = chart_coords(v)
            assert (chart_bit[k], re[k] - 2**30, im[k] - 2**30) == (
                int(chart == "w"), round(c.real / SNAP_TOL), round(c.imag / SNAP_TOL))
        for b in (0j, 0.3 - 1.1j, 40.0, None):
            d, u = distances(zs, b), local_coords(zs, b)
            m = moduli(u)
            for k, v in enumerate(raw):
                assert d[k] == distance(v, b)
                want = local_coord(v, b)
                assert np.isnan(m[k]) if want is None else m[k] == abs(want)

    @pytest.mark.parametrize("zi,zo", [(3.0, 0.5), (0.5, None), (None, 5.0), (None, None)])
    def test_local_fraction_is_f_in_local_coordinates(self, zi, zo):
        f = parse_map("(z^3 + (0.3+0.2i)*z - 1)/(z^2 + 0.7i)")
        a, b = f.local_fraction(zi, zo)
        for u in (0.05, -0.02 + 0.03j):
            z = zi + u if zi is not None else 1.0 / u
            want = local_coord(f.step(z), zo)
            assert abs(a(u) / b(u) - want) <= 1e-12 * max(1.0, abs(want))


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
        chart, t = chart_coords(SpherePoint(z).value)
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
