"""Cycle enumeration, multipliers, and the taxonomy."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn.cycles import (
    CLASS_ATTRACTING,
    CLASS_CREMER,
    CLASS_PARABOLIC_ATTR,
    CLASS_PARABOLIC_REP,
    CLASS_REPELLING,
    CLASS_SIEGEL,
    CLASS_SUPER,
    CLASS_UNRESOLVED,
    Annotation,
    CycleError,
    analyze_cycles,
    find_cycles,
    periodic_points,
)
from ratdyn.kernel import Polynomial
from ratdyn.ratmap import RationalMap, SpherePoint, parse_map, _substitute_fraction

from conftest import finite_complex

GOLDEN = (np.sqrt(5) - 1) / 2
LAM_G = np.exp(2j * np.pi * GOLDEN)
C_G = LAM_G / 2 - LAM_G**2 / 4


def cycle_at(cycles, z):
    target = SpherePoint(z) if z != "inf" else SpherePoint.infinity()
    for c in cycles:
        if c.contains(target):
            return c
    raise AssertionError(f"no cycle through {z}")


def mobius_conjugate(f, a, b, c, d):
    """h o f o h^{-1} for h = (az+b)/(cz+d)."""
    hin, hid = Polynomial([-b, d]), Polynomial([a, -c])  # h^{-1}
    deg = f.degree
    n1 = _substitute_fraction(f.num, hin, hid) * hid ** (deg - f.num.degree)
    d1 = _substitute_fraction(f.den, hin, hid) * hid ** (deg - f.den.degree)
    return RationalMap(a * n1 + b * d1, c * n1 + d * d1)


class TestEnumeration:
    def test_basilica(self):
        f = parse_map("z^2 - 1")
        cycles = find_cycles(f, 2)
        two = cycle_at(cycles, 0.0)
        assert two.period == 2 and abs(two.multiplier) < 1e-10
        assert two.contains(SpherePoint(-1.0))
        phi = (1 + np.sqrt(5)) / 2
        fix = cycle_at(cycles, phi)
        assert abs(fix.multiplier - 2 * phi) < 1e-8
        inf = cycle_at(cycles, "inf")
        assert inf.period == 1 and abs(inf.multiplier) < 1e-10

    def test_power_map(self):
        cycles = find_cycles(parse_map("z^2"), 2)
        assert abs(cycle_at(cycles, 1.0).multiplier - 2) < 1e-9
        two = cycle_at(cycles, np.exp(2j * np.pi / 3))
        assert two.period == 2 and abs(two.multiplier - 4) < 1e-8

    def test_exact_period_not_divisor(self):
        # fixed points must not reappear as period-2 cycles
        cycles = find_cycles(parse_map("z^2"), 2)
        by_period = {}
        for c in cycles:
            for p in c.points:
                by_period.setdefault(c.period, []).append(p)
        for p2 in by_period.get(2, []):
            assert all(not p2.close_to(p1) for p1 in by_period[1])

    def test_degree_budget(self):
        # 71^2 + 1 > 5000 trips the budget before any large root solve
        with pytest.raises(CycleError):
            find_cycles(parse_map("z^71"), 2)


class TestClassification:
    def test_taxonomy_z2_minus_1(self):
        cycles = analyze_cycles(parse_map("z^2 - 1"), 2)
        assert cycle_at(cycles, 0.0).cls == CLASS_SUPER
        assert cycle_at(cycles, (1 + np.sqrt(5)) / 2).cls == CLASS_REPELLING

    def test_unresolved_without_annotation(self):
        cycles = analyze_cycles(parse_map("z^2 + c", {"c": C_G}), 1)
        assert cycle_at(cycles, LAM_G / 2).cls == CLASS_UNRESOLVED

    def test_brjuno_annotation_gives_siegel(self):
        ann = Annotation(
            kind="RotationNumberBrjuno",
            cycle=[(LAM_G / 2).real, (LAM_G / 2).imag],
        )
        cycles = analyze_cycles(parse_map("z^2 + c", {"c": C_G}), 1, [ann])
        assert cycle_at(cycles, LAM_G / 2).cls == CLASS_SIEGEL

    def test_liouville_annotation_gives_cremer(self):
        ann = Annotation(kind="RotationNumberLiouville", cycle=None)
        cycles = analyze_cycles(parse_map("z^2 + c", {"c": C_G}), 1, [ann])
        assert cycle_at(cycles, LAM_G / 2).cls == CLASS_CREMER

    def test_index_anchored_annotation(self):
        cycles = analyze_cycles(parse_map("z^2 + c", {"c": C_G}), 1)
        idx = next(i for i, c in enumerate(cycles) if c.cls == CLASS_UNRESOLVED)
        ann = Annotation(kind="RotationNumberBrjuno", cycle=idx)
        again = analyze_cycles(parse_map("z^2 + c", {"c": C_G}), 1, [ann])
        assert again[idx].cls == CLASS_SIEGEL


class TestConjugationInvariance:
    @given(
        c=finite_complex(0.8),
        a=finite_complex(1.5, min_mag=0.3),
        b=finite_complex(0.5),
    )
    def test_multiplier_multiset_invariant(self, c, a, b):
        f = parse_map("z^2 + c", {"c": c})
        try:
            lams_f = sorted(
                (cyc.multiplier for cyc in find_cycles(f, 2)),
                key=lambda z: (round(z.real, 5), round(z.imag, 5)),
            )
        except CycleError:
            assume(False)
        # skip near-degenerate configurations (multiplier collisions would
        # make the multiset comparison ill-posed under root perturbation)
        gaps = [
            abs(x - y) for i, x in enumerate(lams_f) for y in lams_f[i + 1:]
        ]
        assume(min(gaps, default=1.0) > 1e-3)
        assume(all(abs(abs(lam) - 1) > 1e-3 for lam in lams_f))
        g = mobius_conjugate(f, a, b, 0.2 + 0.1j, 1.0)
        assume(g.degree == 2)
        try:
            lams_g = sorted(
                (cyc.multiplier for cyc in find_cycles(g, 2)),
                key=lambda z: (round(z.real, 5), round(z.imag, 5)),
            )
        except CycleError:
            assume(False)
        assert len(lams_f) == len(lams_g)
        assert np.allclose(lams_f, lams_g, atol=1e-5)


# -- certificates by plain iteration -------------------------------------------

LATTES = "(z^2+1)^2 / (4*z^3 - 4*z)"


def _homogeneous_step(num, den, x, y, dx, dy):
    """One step of the homogenized map on (x : y) and its tangent (dx, dy), in plain Python."""
    d = max(len(num), len(den)) - 1

    def val_der(coeffs):
        val = der = 0j
        for k, c in enumerate(coeffs):
            val += c * x**k * y ** (d - k)
            if k:
                der += c * k * x ** (k - 1) * y ** (d - k) * dx
            if d - k:
                der += c * (d - k) * x**k * y ** (d - k - 1) * dy
        return val, der

    (u, du), (v, dv) = val_der(num), val_der(den)
    s = max(abs(u), abs(v))
    return u / s, v / s, du / s, dv / s


def plain_iterate_with_multiplier(f, point, q):
    """(chordal gap between f^q(point) and point, derivative of f^q there).

    The derivative is taken in the z chart for finite points and in the
    w = 1/z chart at infinity, on the map's coefficients in plain Python.
    """
    num = [complex(c) for c in f.num.coeffs]
    den = [complex(c) for c in f.den.coeffs]
    x, y, dx, dy = (1 + 0j, 0j, 0j, 1 + 0j) if point is None else (point, 1 + 0j, 1 + 0j, 0j)
    x0, y0 = x, y
    for _ in range(q):
        x, y, dx, dy = _homogeneous_step(num, den, x, y, dx, dy)
    gap = abs(x * y0 - x0 * y) / (np.hypot(abs(x), abs(y)) * np.hypot(abs(x0), abs(y0)))
    if point is None:
        lam = (dy * x - y * dx) / x**2
    else:
        lam = (dx * y - x * dy) / y**2
    return gap, lam


def assert_certified(f, p):
    """Closure, the d^p + 1 count and Milnor's index identity over the fixed points of f^p."""
    cycles = find_cycles(f, p)
    count, index_sum, terms = 0, 0j, []
    for c in cycles:
        for pt in c.points:
            raw = None if pt.is_infinity else pt.value
            gap, _ = plain_iterate_with_multiplier(f, raw, c.period)
            assert gap <= 1e-7 * max(1.0, abs(c.multiplier)), (c, pt, gap)
        if p % c.period:
            continue
        count += c.period
        raw = None if c.points[0].is_infinity else c.points[0].value
        _, lam = plain_iterate_with_multiplier(f, raw, c.period)
        assert abs(lam - c.multiplier) <= 1e-6 * max(1.0, abs(lam))
        term = c.period / (1 - lam ** (p // c.period))
        terms.append(term)
        index_sum += term
    assert count == f.degree**p + 1
    assert abs(index_sum - 1) <= 1e-6 * max([1.0] + [abs(t) for t in terms])
    return cycles


class TestIteratedMapRoots:
    @pytest.mark.parametrize("expr,p", [("z^2 - 1", 6), ("z^3 + 0.3", 5), (LATTES, 3)])
    def test_high_period_certified(self, expr, p):
        assert_certified(parse_map(expr), p)

    def test_degree_past_monomial_range(self):
        # 243 fixed points of f^5; the monomial polynomial returned NaN roots here
        cycles = assert_certified(parse_map("z^3 + 0.3"), 5)
        assert sum(c.period for c in cycles if c.period in (1, 5)) == 3**5 + 1

    def test_triple_root_at_zero(self):
        [(pt, m)] = periodic_points(parse_map("z + z^3"), 1)
        assert m == 3 and abs(pt.value) < 1e-12

    def test_parabolic_two_cycle_collapses_onto_fixed_point(self):
        # the period-2 solutions of z^2 - 3/4 all sit on the fixed point -1/2
        cycles = analyze_cycles(parse_map("z^2 - 3/4"), 2)
        assert all(c.period == 1 for c in cycles)
        root = cycle_at(cycles, -0.5)
        assert (root.parabolic.e_loc, root.parabolic.r) == (2, 2)

    def test_parabolic_infinity(self):
        cycles = analyze_cycles(parse_map("z + 1/z"), 2)
        inf = cycle_at(cycles, "inf")
        assert inf.period == 1 and inf.cls in (CLASS_PARABOLIC_ATTR, CLASS_PARABOLIC_REP)
        assert abs(inf.multiplier - 1) < 1e-12
        [two] = [c for c in cycles if c.period == 2]
        assert abs(two.multiplier - 9) < 1e-9
        assert two.contains(SpherePoint(1j / np.sqrt(2)))
        assert two.contains(SpherePoint(-1j / np.sqrt(2)))
        assert len(cycles) == 2

    def test_identity_iterate_raises(self):
        with pytest.raises(CycleError, match="identity"):
            find_cycles(parse_map("-1/z"), 2)

    def test_near_parabolic_pair_kept_apart(self):
        f = parse_map("z^2 + c", {"c": 0.25 - 2.5e-9})
        cycles = analyze_cycles(f, 1)
        low, high = cycle_at(cycles, 0.5 - 5e-5), cycle_at(cycles, 0.5 + 5e-5)
        assert low is not high
        assert abs(low.multiplier - (1 - 1e-4)) < 1e-9 and low.cls == CLASS_ATTRACTING
        assert abs(high.multiplier - (1 + 1e-4)) < 1e-9 and high.cls == CLASS_REPELLING

    def test_close_simple_roots_stay_unmerged(self):
        # a degree-2 map with fixed points a, a + 4e-4 and c: f(z) - z = -D2 (z-a)(z-b)(z-c) / D(z)
        rng = np.random.default_rng(7)
        dcoef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b, c = a + 4e-4 * np.exp(0.3j), complex(rng.standard_normal(), rng.standard_normal())
        den = Polynomial(dcoef)
        cubic = Polynomial([-a, 1]) * Polynomial([-b, 1]) * Polynomial([-c, 1])
        f = RationalMap(Polynomial([0, 1]) * den - dcoef[2] * cubic, den)
        assert f.degree == 2
        cycles = assert_certified(f, 2)
        fixed = [c_.points[0].value for c_ in cycles if c_.period == 1]
        assert len(fixed) == 3
        for want in (a, b, c):
            assert min(abs(z - want) for z in fixed) < 1e-9

    def test_double_fixed_point_beside_simple_one(self):
        # f(z) - z = -D2 (z-a)^2 (z-b) / D(z) with |b - a| = 3e-4
        rng = np.random.default_rng(3)
        dcoef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = a + 3e-4 * np.exp(0.7j)
        den = Polynomial(dcoef)
        cubic = Polynomial([-a, 1]) ** 2 * Polynomial([-b, 1])
        f = RationalMap(Polynomial([0, 1]) * den - dcoef[2] * cubic, den)
        found = sorted(periodic_points(f, 1), key=lambda pm: abs(pm[0].value - a))
        assert [m for _, m in found] == [2, 1]
        assert abs(found[0][0].value - a) < 1e-9
        # b sits in a near-triple cluster: eps^(1/3)-conditioned in double precision
        assert abs(found[1][0].value - b) < 1e-6

    def test_generic_rational_map_cycles_close(self):
        # rounded map on which the monomial path reported a third, non-closing 3-cycle
        a = (-0.7866 + 0.0122j, -0.4843 - 0.5664j, -2.6149 + 0.4451j)
        b = (0.7516 + 0.4457j, -0.1882 - 0.3778j, 1.0662 + 1.5337j)
        f = RationalMap(Polynomial(a), Polynomial(b))
        cycles = assert_certified(f, 3)
        assert sum(c.period == 3 for c in cycles) == 2


def test_vectorized_distance_matches_ratmap():
    from ratdyn.cycles import _RawPoints
    from ratdyn.ratmap import distance

    values = [None, 0j, 1.5 + 0.2j, -3.0 + 4j, 1e9 + 0j, 1e-3j]
    points = _RawPoints(values)
    for q in values + [2.5 - 1j]:
        want = np.array([distance(v, q) for v in values])
        got = points.distances(q)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.allclose(got[~np.isinf(want)], want[~np.isinf(want)], rtol=1e-15, atol=0)
        near = points.near(_RawPoints([q]), 1e-7)
        assert list(near) == [bool(np.any(want <= 1e-7))]


class TestMultiplierChartCache:
    MAPS = ("z^2 - 1", "z + z^2", "z + 1/z", LATTES, "z / (1 + z)",
            "lam * z^2 * (z - 4) / (1 - 4*z)")

    @pytest.mark.parametrize("expr", MAPS)
    def test_bit_identical_to_uncached_formula(self, expr):
        f = parse_map(expr, {"lam": -0.7494 - 0.6621j})
        for z in (0.3 + 0.1j, -1.7 + 0.4j, 2.5 - 1j, 30.0 + 7j):
            pt = SpherePoint(z)
            chart, t = pt.chart_coords()
            a, b = f._chart_pair(chart)
            w = a.derivative() * b - a * b.derivative()
            out_chart, _ = f.evaluate(pt).chart_coords()
            want = w(t) / b(t) ** 2 if out_chart == "z" else -w(t) / a(t) ** 2
            assert f.derivative_multiplier_chart(pt) == complex(want)
