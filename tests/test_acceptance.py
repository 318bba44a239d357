"""End-to-end acceptance gate.

Each test class is one observable contract of the library, checked at the
stated tolerance and runtime budget.  The tolerances are part of the
contract: do not loosen them to make a failing case pass — a red test
here means the implementation and the target value genuinely disagree.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn.cli import main as cli_main
from ratdyn.corpus import corpus_run, load_corpus, run_pipeline
from ratdyn.cycles import PARABOLIC_CLASSES, load_annotations
from ratdyn.extjet import JetSpec, global_e1, jet_e1
from ratdyn.kernel import Polynomial
from ratdyn.orbits import KIND_TAME
from ratdyn.parabolic import fatou_coordinate, tangency_and_residu
from ratdyn.ratmap import MapError, RationalMap, parse_map
from ratdyn.residue import FormDensity, dynamical_residue
from ratdyn.series import TruncatedSeries

from conftest import coeff_or_zero, finite_complex

LOG4 = float(np.log(4.0))


def _corpus_pipeline(entry, budget=100_000):
    f = parse_map(entry["map"],
                  {k: complex(v[0], v[1])
                   for k, v in entry.get("params", {}).items()})
    anns = load_annotations(entry.get("annotations", []))
    run = run_pipeline(f, anns, int(entry.get("max_period", 2)), budget)
    return f, run.cycles, run.tails, run.split


class TestCriterion1GlobalDims:
    """Global equalizer: kernel 0 / cokernel 2d-2 for d >= 2, 1/1 for d = 1."""

    def test_generic_and_mobius(self):
        start = time.time()
        rng = np.random.default_rng(7)
        maps = [parse_map("z^2"), parse_map("z^3"), parse_map("z^2 - 1")]
        for d in (4, 5):
            num = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            den = rng.normal(size=d) + 1j * rng.normal(size=d)
            maps.append(RationalMap(num, den))
        for f in maps:
            _, ker, coker = global_e1(f)
            assert (ker, coker) == (0, 2 * f.degree - 2)
        for expr in ("z/(1+z)", "2*z", "(z-1)/(z+1)"):
            _, ker, coker = global_e1(parse_map(expr))
            assert (ker, coker) == (1, 1)
        assert time.time() - start < 1.0


class TestCriterion2ParabolicJetDims:
    """Jet equalizer at a parabolic point: kernel 1 / cokernel e+1, stable."""

    @pytest.mark.parametrize(
        "expr,point,r,e",
        [
            ("z + z^2", 0.0, 1, 1),
            ("z + z^3", 0.0, 1, 2),
            ("z + z^4", 0.0, 1, 3),
            ("z^2 - 3/4", -0.5, 2, 2),
            ("-z + z^3", 0.0, 2, 2),
        ],
    )
    def test_dims_and_stability(self, expr, point, r, e):
        start = time.time()
        dims = set()
        for order in (2 * e + 2, 2 * e + 3, 2 * e + 4):
            spec = JetSpec(site="cycle", point=point, period=1, order=order)
            ker, coker, stabilized = jet_e1(parse_map(expr), spec, r=r)
            dims.add((ker, coker))
            assert stabilized
        assert dims == {(1, e + 1)}
        assert time.time() - start < 1.0


class TestCriterion3SuperattractingStabilization:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cokernel_n_minus_1(self, n):
        cokers = set()
        for order in range(n + 2, n + 7):
            spec = JetSpec(site="cycle", point=0.0, period=1, order=order)
            _, coker, _ = jet_e1(parse_map(f"z^{n}"), spec)
            cokers.add(coker)
        assert cokers == {n - 1}


class TestCriterion4LinearizableResidue:
    def test_log_multiplier_squared(self):
        start = time.time()
        mu = FormDensity.parse("1/z")
        up = dynamical_residue(parse_map("2*z"), mu, kind="disc")
        down = dynamical_residue(parse_map("z/2"), mu, kind="disc")
        assert up.reliable and down.reliable
        assert abs(up.value - LOG4) < 1e-3
        assert abs(down.value + LOG4) < 1e-3
        assert time.time() - start < 30.0


class TestCriterion5ParabolicResidue:
    """Residue of |W|^2 dA for W = (1 + nu z)/z^2 against Re(nu).

    nu itself is cross-checked against the independent fixed-point-index
    oracle before the quadrature is trusted.
    """

    CASES = [  # (a, nu) for f = z + z^2 + a z^3, where nu = 1 - a
        (0.0, 1.0 + 0j),
        (1.0, 0.0 + 0j),
        (1.0 + 1.0j, -1.0j),
    ]

    @pytest.mark.parametrize("a,nu", CASES)
    def test_residue_matches_re_nu(self, a, nu):
        start = time.time()
        f = RationalMap(Polynomial([0, 1, 1, a]), Polynomial([1]))
        inv = tangency_and_residu(f, 0.0, 1, 1)
        assert abs(inv.nu - nu) < 1e-9
        assert abs(inv.nu - ((inv.e_loc + 1) / 2 - inv.index)) < 1e-9
        mu = FormDensity(Polynomial([1, nu]), Polynomial([0, 0, 1]))
        est = dynamical_residue(f, mu, kind="fatou", inv=inv,
                                budget=4_000_000)
        target = nu.real
        if abs(target) < 1e-9:
            assert abs(est.value - target) < 0.05
        else:
            assert abs(est.value - target) < 0.05 * abs(target)
        assert time.time() - start < 100.0


class TestCriterion6IterateScaling:
    def test_second_iterate_doubles_residue(self):
        f = parse_map("z + z^2")
        a, b = f.compose_self_homogeneous(2)
        f2 = RationalMap(a, b)
        mu = FormDensity.parse("(1 + z)/z^2")
        one = dynamical_residue(f, mu, kind="fatou", budget=2_000_000)
        two = dynamical_residue(f2, mu, kind="fatou", budget=2_000_000)
        err = 2 * one.error_bar + two.error_bar + 0.02
        assert abs(two.value - 2 * one.value) < err


class TestCriterion7BasinAudit:
    """Every attracting/superattracting cycle receives a critical orbit;
    every parabolic cycle receives its full petal-orbit count of tame tails."""

    @pytest.mark.parametrize(
        "entry", load_corpus(), ids=lambda e: e["name"]
    )
    def test_basins_are_fed(self, entry):
        f, cycles, tails, split = _corpus_pipeline(entry)
        if f.degree < 2:
            pytest.skip("no critical points below degree 2")
        for i, c in enumerate(cycles):
            if c.cls in ("Attracting", "SuperAttracting"):
                feeders = [t for t in tails if t.target == f"C{i}"]
                assert feeders, f"{entry['name']}: C{i} has no critical orbit"
            elif c.cls in PARABOLIC_CLASSES:
                e_cycle = c.parabolic.e_loc // c.parabolic.r
                tame = [
                    t for t in tails
                    if t.target == f"C{i}" and t.classification == KIND_TAME
                ]
                assert len(tame) == e_cycle


class TestCriterion8RepellingParabolicConsistency:
    def test_full_tame_ram_implies_positive_residue(self):
        for entry in load_corpus():
            f, cycles, tails, split = _corpus_pipeline(entry)
            for i, c in enumerate(cycles):
                if c.cls not in PARABOLIC_CLASSES:
                    continue
                div = split.tame_by_target.get(f"C{i}")
                tame_mult = div.total if div is not None else 0
                e_cycle = c.parabolic.e_loc // c.parabolic.r
                if tame_mult == e_cycle and tame_mult > 0:
                    assert c.parabolic.nu.real > 0, entry["name"]


class TestCriterion9CountAudit:
    def test_corpus_inequalities_and_terms(self):
        start = time.time()
        res = corpus_run()
        assert res["all_passed"]
        by_name = {e["name"]: e["report"] for e in res["entries"]}
        lattes = by_name["lattes-deg4"]["counts"]
        assert (lattes["lhs_v"], lattes["rhs_v"]) == (0, 0)
        siegel = by_name["quad-siegel-golden"]["counts"]
        assert (siegel["lhs_i"], siegel["rhs_i"]) == (1, 1)
        for name in ("quad-parabolic-fixed", "quad-parabolic-order2"):
            counts = by_name[name]["counts"]
            assert counts["delta"] == 0
            assert (counts["lhs_v"], counts["rhs_v"]) == (0, 0)
        for rep in by_name.values():
            if rep["counts"] is not None:
                assert rep["counts"]["satisfied_v"]
                assert rep["counts"]["satisfied_i"]
        assert time.time() - start < 600.0

    def test_cli_corpus_run_exits_zero(self, capsys):
        assert cli_main(["corpus-run"]) == 0
        capsys.readouterr()


class TestCriterion10InvariantSuites:
    """Representative property suite (the module tests carry the full set)."""

    @given(
        c1=finite_complex(2.0, min_mag=0.5),
        tail=st.lists(finite_complex(0.8), min_size=0, max_size=4),
    )
    def test_series_reversion_round_trip(self, c1, tail):
        coeffs = [0, c1] + list(tail)
        s = TruncatedSeries(coeffs, order=len(coeffs) + 3)
        round_trip = s.reverse().compose(s)
        ident = TruncatedSeries.identity(s.order)
        assert np.max(np.abs(round_trip.c - ident.c)) < 1e-6

    @given(
        num=st.lists(coeff_or_zero(), min_size=3, max_size=5),
        den=st.lists(coeff_or_zero(), min_size=1, max_size=4),
    )
    def test_critical_degree(self, num, den):
        try:
            f = RationalMap(num, den)
        except (MapError, ValueError):
            assume(False)
        assert f.critical_divisor().total == 2 * f.degree - 2

    @given(c=finite_complex(1.0), n=st.integers(0, 3))
    def test_forward_thickening_monotone(self, c, n):
        f = parse_map("z^2 + c", {"c": c})
        cur, nxt = f.ram_n(n), f.ram_n(n + 1)
        assert all(nxt.multiplicity_at(pt) >= m for pt, m in cur.entries)

    @given(
        a=finite_complex(1.0, min_mag=0.3),
        b=finite_complex(1.0),
        scale=finite_complex(1.2, min_mag=0.4),
        shift=finite_complex(0.4),
    )
    def test_nu_conjugation_invariance(self, a, b, scale, shift):
        f = RationalMap(Polynomial([0, 1, a, b]), Polynomial([1]))
        nu0 = tangency_and_residu(f, 0.0, 1, 1).nu
        inner = Polynomial([-shift / scale, 1 / scale])
        g = RationalMap(
            scale * f.num.compose(inner) + Polynomial([shift]), Polynomial([1])
        )
        try:
            nu1 = tangency_and_residu(g, complex(shift), 1, 1).nu
        except Exception:
            assume(False)
        assert abs(nu1 - nu0) < 1e-6 * max(1.0, abs(nu0))

    @given(
        a=finite_complex(1.0, min_mag=0.3),
        b=finite_complex(1.0),
        extra=st.integers(2, 8),
    )
    def test_nu_truncation_stabilization(self, a, b, extra):
        f = RationalMap(Polynomial([0, 1, a, b]), Polynomial([1]))
        base = tangency_and_residu(f, 0.0, 1, 1, N=12)
        deeper = tangency_and_residu(f, 0.0, 1, 1, N=12 + extra)
        assert abs(base.nu - deeper.nu) < 1e-7 * max(1.0, abs(base.nu))

    @given(t=st.floats(0.04, 0.2), jitter=st.floats(-0.3, 0.3))
    def test_abel_equation_residual(self, t, jitter):
        f = parse_map("z + z^2")
        inv = tangency_and_residu(f, 0.0, 1, 1)
        z = t * np.exp(1j * (np.pi + jitter))
        try:
            s_z = fatou_coordinate(f, inv, z)
            s_fz = fatou_coordinate(f, inv, f.evaluate(z).value)
        except Exception:
            assume(False)
        assert abs(s_fz - s_z - 1) < 1e-6
