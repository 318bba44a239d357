"""Cycle enumeration, multipliers, and the taxonomy."""

import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn.corpus import load_corpus
from ratdyn.cycles import (
    ALGEBRAIC_TOL,
    CLASS_ATTRACTING,
    CLASS_CREMER,
    CLASS_PARABOLIC_ATTR,
    CLASS_PARABOLIC_REP,
    CLASS_REPELLING,
    CLASS_SIEGEL,
    CLASS_SUPER,
    CLASS_UNRESOLVED,
    Annotation,
    Cycle,
    CycleError,
    analyze_cycles,
    find_cycles,
    _divisors,
    _fixed_points,
    _phi_taylor,
    _phi_terms,
    _seeds,
    load_annotations,
)
from ratdyn.kernel import Polynomial, aberth, by_position, collapse_multiple_roots
from ratdyn.ratmap import (
    SNAP_TOL,
    RationalMap,
    SpherePoint,
    chart_coords,
    distance,
    distance_matrix,
    parse_map,
    raw_array,
)

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

    def power(p, k):  # the repeated product
        return reduce(operator.mul, [p] * k, Polynomial([1.0]))

    # p(hin/hid) hid^deg, term by term
    n1, d1 = (sum(power(hin, k) * power(hid, deg - k) * ck for k, ck in enumerate(p.coeffs))
              for p in (f.num, f.den))
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
            assert all(p2 != p1 for p1 in by_period[1])

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

    @pytest.mark.parametrize("anchor", [None, 0, [0.5, -1], "inf"])
    def test_annotation_anchors_accepted(self, anchor):
        [ann] = load_annotations({"annotations": [{"kind": "RotationNumberBrjuno",
                                                   "cycle": anchor}]})
        assert ann.cycle == anchor

    @pytest.mark.parametrize("anchor", [0.0, "0", True, False, {"x": 1}, [1], [True, 0]])
    def test_annotation_anchors_rejected(self, anchor):
        # a float, string, boolean or object would silently name no cycle, or
        # (a boolean, as an int) the wrong one
        with pytest.raises(CycleError, match="annotation anchor"):
            load_annotations({"annotations": [{"kind": "RotationNumberBrjuno", "cycle": anchor}]})

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
    """Closure, every multiplier against the plain-Python one, the d^p + 1
    count and Milnor's index identity over the fixed points of f^p."""
    cycles = find_cycles(f, p)
    count, index_sum, terms = 0, 0j, []
    for c in cycles:
        for pt in c.points:
            raw = None if pt.is_infinity else pt.value
            gap, _ = plain_iterate_with_multiplier(f, raw, c.period)
            assert gap <= 1e-7 * max(1.0, abs(c.multiplier)), (c, pt, gap)
        raw = None if c.points[0].is_infinity else c.points[0].value
        _, lam = plain_iterate_with_multiplier(f, raw, c.period)
        assert abs(lam - c.multiplier) <= 1e-6 * max(1.0, abs(lam))
        if p % c.period:
            continue
        count += c.period
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
        f = parse_map("z + z^3")
        [([pt], [m], _)], _ = _fixed_points(f, 1)
        assert m == 3 and abs(pt) < 1e-12

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

    @pytest.mark.parametrize("expr,order", [("i*z", 4), ("-1/z", 2), ("-z", 2), ("1/z", 2)])
    def test_elliptic_moebius_raises(self, expr, order):
        # a fixed point of multiplier e^{2 pi i k/r}, r > 1, of a degree-1
        # map: f^r is the identity
        with pytest.raises(CycleError, match=f"f\\^{order} is the identity"):
            analyze_cycles(parse_map(expr), 1)

    def test_parabolic_moebius_is_classified(self):
        # multiplier 1 (r = 1): f^n is never the identity
        [cycle] = analyze_cycles(parse_map("z/(1+z)"), 1)
        assert cycle.cls == CLASS_PARABOLIC_ATTR and cycle.parabolic.r == 1

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
        cubic = Polynomial([-a, 1]) * Polynomial([-a, 1]) * Polynomial([-b, 1])
        f = RationalMap(Polynomial([0, 1]) * den - dcoef[2] * cubic, den)
        [(z, mult, _)], _ = _fixed_points(f, 1)
        found = sorted(zip(z, mult), key=lambda pm: abs(pm[0] - a))
        assert [m for _, m in found] == [2, 1]
        assert abs(found[0][0] - a) < 1e-9
        # b sits in a near-triple cluster: eps^(1/3)-conditioned in double precision
        assert abs(found[1][0] - b) < 1e-6

    def test_generic_rational_map_cycles_close(self):
        # rounded map on which the monomial path reported a third, non-closing 3-cycle
        a = (-0.7866 + 0.0122j, -0.4843 - 0.5664j, -2.6149 + 0.4451j)
        b = (0.7516 + 0.4457j, -0.1882 - 0.3778j, 1.0662 + 1.5337j)
        f = RationalMap(Polynomial(a), Polynomial(b))
        cycles = assert_certified(f, 3)
        assert sum(c.period == 3 for c in cycles) == 2


def test_vectorized_distance_matches_ratmap():
    # find_cycles matches through ratmap's array rule, which rounds as the scalar one
    values = [None, 0j, 1.5 + 0.2j, -3.0 + 4j, 1e9 + 0j, 1e-3j]
    zs = raw_array(values)
    for q in values + [2.5 - 1j]:
        want = np.array([distance(v, q) for v in values])
        got = distance_matrix(zs, raw_array([q]))[:, 0]
        assert np.array_equal(got, want)
        # the divisor-level test: each stored value against a one-point level
        near = [distance_matrix(raw_array([q]), raw_array([v]))[0, 0] <= SNAP_TOL
                for v in values]
        assert near == list(want <= SNAP_TOL)


CHART_MAPS = ("z^2 - 1", "z + z^2", "z + 1/z", LATTES, "z / (1 + z)",
              "lam * z^2 * (z - 4) / (1 - 4*z)")


@pytest.mark.parametrize("expr", CHART_MAPS)
def test_evaluate_matches_chart_formula(expr):
    # beyond radius 2 f is evaluated in w = 1/z, on the reversed coefficients
    f = parse_map(expr, {"lam": -0.7494 - 0.6621j})
    for z in (0.3 + 0.1j, -1.7 + 0.4j, 2.5 - 1j, 30.0 + 7j):
        chart, t = chart_coords(z)
        a, b = (f.num, f.den) if chart == "z" else (f._rnum, f._rden)
        want = a(t) / b(t)
        assert abs(f.evaluate(z).value - want) <= 1e-12 * max(1.0, abs(want))


# -- the joint solve against the per-period one --------------------------------


def per_period_fixed_points(f, p):
    """The fixed points of f^p solved alone, as before the joint solve: its
    own order at infinity, Aberth loop and residual check."""
    degree, k = f.degree**p + 1, 2
    while True:
        t, zero = _phi_taylor(f, None, k - 1, p)
        above = np.flatnonzero(np.abs(t) > zero)
        if above.size:
            m_inf = int(above[0])
            break
        if k > degree:
            raise CycleError(f"f^{p} is the identity; periodic points are not isolated")
        k = min(2 * k, degree + 1)
    n = degree - m_inf
    if n == 0:
        return np.zeros(0, dtype=complex), m_inf
    [z], _ = aberth(lambda x, _: np.subtract(*_phi_terms(f, x, 2, p)), _seeds(f, {p: n}))
    if not np.all(np.isfinite(z)):
        raise CycleError(f"periodic-point iteration for f^{p} left the plane")
    roots = collapse_multiple_roots(z, lambda x, k: _phi_taylor(f, x, k, p))
    z = np.array([r for r, _ in roots], dtype=complex)
    res = np.abs(np.subtract(*_phi_terms(f, z, 1, p))[0])
    bound = ALGEBRAIC_TOL * np.maximum(1.0, np.abs(z))
    if not np.all(res <= bound):
        worst = float(np.max(res / bound))
        raise CycleError(
            f"periodic points of f^{p} did not converge: residual {worst:.3e} times the bound")
    return np.array([r for r, _ in by_position(roots)], dtype=complex), m_inf


def per_period_cycles(f, max_period):
    """find_cycles one period at a time, matching each image against the
    points with one scalar ``distance`` per pair."""
    levels, cycles = {}, []
    for p in range(1, max_period + 1):
        z, m_inf = per_period_fixed_points(f, p)
        values = [complex(zi) for zi in z] + ([None] if m_inf else [])
        levels[p] = values
        seen = np.array([any(distance(v, u) <= SNAP_TOL for q in _divisors(p) for u in levels[q])
                         for v in values], dtype=bool)
        exact = [v for v, old in zip(values, seen) if not old]
        at_inf = [f.multiplier(None, p)] if m_inf and not seen[-1] else []
        lam = np.concatenate([f.multiplier(z[~seen[: len(z)]], p), at_inf])
        if not np.all(np.isfinite(lam)):
            raise CycleError(f"a multiplier of f^{p} is not finite")
        used = np.zeros(len(exact), dtype=bool)
        for i, start in enumerate(exact):
            if used[i]:
                continue
            used[i] = True
            orbit = [start]
            for _ in range(p - 1):
                image = f.step(orbit[-1])
                d = np.array([distance(v, image) for v in exact])
                d[used] = np.inf
                j = int(np.argmin(d))
                if d[j] > SNAP_TOL:
                    raise CycleError(
                        f"orbit of {SpherePoint(orbit[-1])!r} does not close: f maps it "
                        f"{d[j]:.3g} from the nearest unused period-{p} point")
                used[j] = True
                orbit.append(exact[j])
            gap = distance(f.step(orbit[-1]), start)
            if gap > SNAP_TOL:
                raise CycleError(
                    f"orbit of {SpherePoint(start)!r} does not close: f^{p} moves it {gap:.3g}")
            cycles.append(Cycle([SpherePoint(v) for v in orbit], p, complex(lam[i])))
    cycles.sort(key=Cycle.sort_key)
    return cycles


def outcome(solve, f, p):
    """The repr of every cycle's JSON, or the error a solve raises."""
    try:
        return [repr(c.to_json()) for c in solve(f, p)]
    except CycleError as exc:
        return f"CycleError: {exc}"


_ORACLE_RNG = np.random.default_rng(29)
ORACLE_MAPS = (
    [("z^2 + c", {"c": complex(*_ORACLE_RNG.uniform(-1.2, 1.2, 2))}, 5) for _ in range(3)]
    + [("z^3 + c", {"c": complex(*_ORACLE_RNG.uniform(-1.0, 1.0, 2))}, 3) for _ in range(2)]
    + [("(a0 + a1*z + a2*z^2)/(b0 + b1*z + b2*z^2)",
        {k: complex(*_ORACLE_RNG.standard_normal(2)) for k in ("a0", "a1", "a2", "b0", "b1", "b2")},
        2)]
    + [(LATTES, {}, p) for p in (1, 2, 3)]
    + [(expr, {}, 3) for expr in ("z^2 + 1/4", "z^2 - 3/4", "z + z^2", "z + z^3")]
    + [("z + 1/z", {}, 3), ("z^2", {}, 4), ("-1/z", {}, 3), ("i*z", {}, 4)]
)


class TestJointSolveMatchesPerPeriod:
    # find_cycles solves every period in one Aberth loop and matches orbits
    # through one distance matrix per level: the same bits as one period at
    # a time, and the same first error
    @pytest.mark.parametrize("expr,params,p", ORACLE_MAPS)
    def test_bit_equal(self, expr, params, p):
        f = parse_map(expr, params)
        assert outcome(find_cycles, f, p) == outcome(per_period_cycles, f, p)

    @pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e["name"])
    def test_bit_equal_on_corpus(self, entry):
        params = {k: complex(*v) for k, v in entry.get("params", {}).items()}
        f, p = parse_map(entry["map"], params), int(entry.get("max_period", 2))
        assert outcome(find_cycles, f, p) == outcome(per_period_cycles, f, p)

    def test_generic_rational_map_at_period_3(self):
        a = (-0.7866 + 0.0122j, -0.4843 - 0.5664j, -2.6149 + 0.4451j)
        b = (0.7516 + 0.4457j, -0.1882 - 0.3778j, 1.0662 + 1.5337j)
        f = RationalMap(Polynomial(a), Polynomial(b))
        assert outcome(find_cycles, f, 3) == outcome(per_period_cycles, f, 3)

    @pytest.mark.parametrize("expr", ["z^2 + 0.3+0.2i", LATTES, "z + 1/z"])
    def test_local_jets_per_point_counts(self, expr):
        # runs (count, start) give each point the bits of a call with its
        # run's count alone: equal counts, empty runs in the middle and at
        # the end, ∞ with one point per run; decreasing counts are refused
        f = parse_map(expr)
        rng = np.random.default_rng(5)
        z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        cases = [
            [(2, 0), (2, 10), (3, 25)],
            [(0, 0), (1, 7), (2, 7), (4, 20), (5, 40)],
            [(1, 0), (3, 40), (4, 40)],
        ]
        for k in (1, 2, 4):
            for runs in cases:
                x, y = f.local_jets(z, k, runs)
                ends = [start for _, start in runs[1:]] + [len(z)]
                for (count, lo), hi in zip(runs, ends):
                    want = f.local_jets(z[lo:hi], k, count)
                    assert np.array_equal(x[:, lo:hi], want[0])
                    assert np.array_equal(y[:, lo:hi], want[1])
            counts = [0, 1, 1, 3, 4]
            x, y = f.local_jets(None, k, [(c, i) for i, c in enumerate(counts)])
            for i, c in enumerate(counts):
                want = f.local_jets(None, k, c)
                assert np.array_equal(x[:, i], want[0]) and np.array_equal(y[:, i], want[1])
        # an int count on 1-D jets is the one-run case
        x0, y0 = np.array([1, 1, 0], dtype=complex), np.array([1, 0, 0], dtype=complex)
        x, y = f.iterate_jets(x0, y0, 3)
        want = f.iterate_jets(x0[:, None], y0[:, None], [(3, 0)])
        assert np.array_equal(x, want[0][:, 0]) and np.array_equal(y, want[1][:, 0])
        assert x0.tolist() == [1, 1, 0] and y0.tolist() == [1, 0, 0]  # inputs unwritten
        with pytest.raises(ValueError, match="non-decreasing"):
            f.local_jets(z[:2], 2, [(1, 0), (0, 1)])

    def test_distance_matrix_matches_distances(self):
        # every entry is the scalar distance, bit for bit, with ∞ and 0 on both sides
        rng = np.random.default_rng(11)
        values = [None, 0j, -0.0 + 0j, 1.5 + 0.2j, -3.0 + 4j, 1e9 + 0j, 1e-3j,
                  1e308 + 1e308j, 2.0 + 0j]
        values += list(3 * rng.standard_normal(12) + 3j * rng.standard_normal(12))
        d = distance_matrix(raw_array(values), raw_array(values))
        want = [[distance(a, b) for b in values] for a in values]
        assert d.tolist() == want


class TestInputChecksFirst:
    def test_degree_budget_before_any_level(self, monkeypatch):
        # 2^13 + 1 > 5000: no period is solved before the error
        def no_solve(*args):
            raise AssertionError("a level was solved")

        monkeypatch.setattr("ratdyn.cycles.aberth", no_solve)
        with pytest.raises(CycleError, match=r"degree budget exceeded: 2\^13 \+ 1 > 5000"):
            find_cycles(parse_map("z^2"), 13)
