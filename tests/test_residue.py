"""Numerical dynamical residues: boundary integral, extrapolation, reliability flags."""

import numpy as np
import pytest

from ratdyn.kernel import Polynomial
from ratdyn.ratmap import RationalMap, SpherePoint, parse_map
from ratdyn import residue
from ratdyn.parabolic import tangency_and_residu
from ratdyn.residue import (
    FatouBoxModel,
    FormDensity,
    ResidueError,
    disc_residue,
    dynamical_residue,
    trace_csv_rows,
)

LOG4 = float(np.log(4.0))


class TestFormDensity:
    def test_parse_and_density(self):
        mu = FormDensity.parse("1/z")
        assert abs(mu.density(2.0) - 1 / (4 * np.pi)) < 1e-14
        assert abs(mu.density(0.5j) - 4 / np.pi) < 1e-14

    def test_order_scaling(self):
        mu2 = FormDensity.parse("1/z^2", m=2)
        # |z^-2|^(2/2) = |z|^-2
        assert abs(mu2.density(3.0) - 1 / (9 * np.pi)) < 1e-14

    def test_bad_inputs(self):
        with pytest.raises(ResidueError):
            FormDensity([1], [0])
        with pytest.raises(ResidueError):
            FormDensity([1], [1], m=0)

    def test_json(self):
        obj = FormDensity.parse("(1 + z)/z^2").to_json()
        assert obj["m"] == 1 and len(obj["w_den"]) == 3


class TestLinearizableResidue:
    def test_expanding_fixed_point(self):
        # multiplier 2: the residue of |z|^-2 dA is log|lambda|^2 = log 4
        f = parse_map("2*z")
        mu = FormDensity.parse("1/z")
        est = dynamical_residue(f, mu, kind="disc")
        assert est.reliable
        assert abs(est.value - LOG4) < 1e-3

    def test_contracting_fixed_point(self):
        est = dynamical_residue(parse_map("z/2"), FormDensity.parse("1/z"),
                                kind="disc")
        assert abs(est.value + LOG4) < 1e-3

    @pytest.mark.parametrize("expr,sign", [("2*z", 1), ("0.5*z", -1)])
    def test_fatou_family_at_linearizable_point(self, expr, sign):
        # the default fatou grid at a linearizable point: discs of radius
        # |lambda|^-R for R = 5 .. 12; the trace is flat to rounding
        est = dynamical_residue(parse_map(expr), FormDensity.parse("1/z"), kind="fatou")
        assert [p for p, _ in est.parameter_trace] == [5, 6, 8, 10, 12]
        assert est.reliable and est.error_bar < 1e-12
        assert abs(est.value - sign * LOG4) < 1e-12

    def test_region_family_independence(self):
        # the same limit from the disc family and the fatou-style fallback
        f = parse_map("2*z")
        mu = FormDensity.parse("1/z")
        v_disc, _ = disc_residue(f, mu, 0, 0.1)
        v_fatou = dynamical_residue(f, mu, kind="fatou", params=[3]).value
        assert abs(v_disc - v_fatou) < 1e-6

    @pytest.mark.parametrize("kind", ["fatou", "disc"])
    @pytest.mark.parametrize("expr,center", [("2/z", 0.0), ("z + 1", 0.0), ("2/z", None)])
    def test_center_not_fixed_rejected(self, expr, center, kind):
        # both families are taken about a fixed point of f
        with pytest.raises(ResidueError, match="not a fixed point"):
            dynamical_residue(parse_map(expr), FormDensity.parse("1/z"), kind=kind,
                              center=center)

    def test_single_region_matches_limit(self):
        f = parse_map("2*z")
        mu = FormDensity.parse("1/z")
        val, converged = disc_residue(f, mu, 0.0, 0.1)
        assert converged
        assert abs(val - LOG4) < 1e-3  # one region, before extrapolation


class TestBudgetAndFlags:
    def test_starved_budget_flags_unreliable(self):
        f = parse_map("z + z^2")
        mu = FormDensity.parse("(1 + z)/z^2")
        est = dynamical_residue(f, mu, kind="fatou", params=[5, 6], budget=4000)
        assert not est.reliable
        assert any("budget" in n for n in est.notes)

    def test_trace_rows(self):
        est = dynamical_residue(parse_map("2*z"), FormDensity.parse("1/z"),
                                kind="disc", params=[0.2, 0.1])
        rows = trace_csv_rows(est)
        assert rows[0] == ("param", "value")
        assert len(rows) == 3
        assert rows[1][0] == 0.2

    def test_oscillatory_trace_is_tail_averaged(self):
        # nu = 6 at z + z^2 - 5 z^3: the trace over R = 20 .. 48 oscillates,
        # so the estimate is the mean of the last three samples, flagged
        f = parse_map("z + z^2 - 5*z^3")
        est = dynamical_residue(f, FormDensity.parse("(1 + 6*z)/z^2"), kind="fatou",
                                params=[20, 24, 32, 48])
        assert "oscillatory trace; tail-averaged" in est.notes
        assert not est.reliable
        tail = [v for _, v in est.parameter_trace[-3:]]
        assert est.value == pytest.approx(np.mean(tail), rel=1e-15)


class TestParabolicResidue:
    def test_one_petal_reference_value(self):
        # the fatou family converges to twice the residue of W at the
        # origin (see the reference values in the module docstring)
        f = parse_map("z + z^2")
        mu = FormDensity.parse("(1 + z)/z^2")
        est = dynamical_residue(f, mu, kind="fatou", params=[5, 6, 8],
                                budget=2_000_000)
        assert est.reliable
        assert abs(est.value - 2.0) < 0.05

    def test_zero_residue_map(self):
        # nu = 0: the residue must vanish (within the coarse-run error)
        f = parse_map("z + z^2 + z^3")
        mu = FormDensity.parse("1/z^2")
        est = dynamical_residue(f, mu, kind="fatou", params=[5, 6, 8],
                                budget=2_000_000)
        assert abs(est.value) < 0.05

    def test_package_computed_once_per_estimate(self, monkeypatch):
        f = parse_map("z + z^2")
        mu = FormDensity.parse("(1 + z)/z^2")
        with_inv = dynamical_residue(f, mu, kind="fatou", inv=tangency_and_residu(f, 0.0, 1, 1))
        calls = []

        def counted(*args):
            calls.append(args)
            return tangency_and_residu(*args)

        monkeypatch.setattr(residue, "tangency_and_residu", counted)
        est = dynamical_residue(f, mu, kind="fatou")
        assert len(calls) == 1
        assert est.value == with_inv.value and est.error_bar == with_inv.error_bar

    def test_one_fatou_model_per_estimate(self, monkeypatch):
        # the default R grid has five regions, all in one model of V(R)
        built = []
        init = FatouBoxModel.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(FatouBoxModel, "__init__", counted)
        est = dynamical_residue(parse_map("z + z^2"), FormDensity.parse("(1 + z)/z^2"))
        assert len(est.parameter_trace) == 5 and len(built) == 1

    @pytest.mark.parametrize("expr", ["2*z", "z + z^2"])
    def test_unknown_kind_computes_no_region(self, monkeypatch, expr):
        def region(*args):
            raise AssertionError("a region was computed")

        monkeypatch.setattr(residue, "disc_residue", region)
        monkeypatch.setattr(FatouBoxModel, "__init__", region)
        monkeypatch.setattr(FatouBoxModel, "residue", region)
        with pytest.raises(ResidueError, match="unknown region kind 'square'"):
            dynamical_residue(parse_map(expr), FormDensity.parse("1/z"), kind="square")


def cubic_parabolic(a):
    """z + z^2 + a z^3 (nu = 1 - a), its parabolic package at 0 and the
    density of W = (1 + nu z)/z^2."""
    f = RationalMap(Polynomial([0, 1, 1, a]), Polynomial([1]))
    inv = tangency_and_residu(f, 0.0, 1, 1)
    return f, inv, FormDensity(Polynomial([1, inv.nu]), Polynomial([0, 0, 1]))


class TestBoundaryIntegral:
    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.01, 1e-3])
    def test_disc_closed_form_off_origin(self, eps):
        # fixed point 0.5 of multiplier 2: the residue is log 4 for every eps
        f = parse_map("2*z - 0.5")
        val, converged = disc_residue(f, FormDensity.parse("1/(z - 0.5)"), 0.5, eps)
        assert converged
        assert abs(val - LOG4) < 1e-10

    @pytest.mark.parametrize("a", [0.5, 0.3 - 0.2j])
    def test_fatou_family_gives_twice_re_nu(self, a):
        # a complex nu puts cut segments on the boundary of V(R)
        f, inv, mu = cubic_parabolic(a)
        est = dynamical_residue(f, mu, kind="fatou", inv=inv)
        assert est.reliable
        assert abs(est.value - 2 * inv.nu.real) < 2e-3

    def test_two_petal_families_agree(self):
        f = parse_map("z + z^3")
        mu = FormDensity.parse("(1 + 1.5*z^2)/z^3")
        fatou = dynamical_residue(f, mu, kind="fatou")
        disc = dynamical_residue(f, mu, kind="disc", params=[0.1, 0.07, 0.05])
        assert fatou.reliable and disc.reliable
        assert abs(fatou.value - 3.0) < 2e-3
        assert abs(disc.value - 3.0) < 1e-6
        assert abs(fatou.value - disc.value) < 2e-3

    @pytest.mark.parametrize("a", [0.0, 1 + 1j])
    def test_indicator_is_the_region_difference(self, a):
        # indicator_diff(f(w)) = [w in V] - [f(w) in V] for w near dV(R)
        f, inv, _ = cubic_parabolic(a)
        model, R = FatouBoxModel(f, inv), 20.0
        nodes = model.boundary(R, 256)[0]
        f_nodes = f.num(nodes) / f.den(nodes)
        gap = max(np.max(np.abs(np.diff(c))) for c in (nodes, f_nodes))
        rng = np.random.default_rng(7)
        r = np.exp(rng.uniform(np.log(0.8 * np.min(np.abs(nodes))),
                               np.log(1.25 * np.max(np.abs(nodes))), 8000))
        w = r * np.exp(2j * np.pi * rng.random(r.size))
        s = model.s0(w)
        w = w[np.abs(np.maximum(np.abs(s.real), np.abs(s.imag)) - R) < 2]
        fw = f.num(w) / f.den(w)
        dist = np.full(fw.size, np.inf)
        for c in np.concatenate([nodes, f_nodes]):
            dist = np.minimum(dist, np.abs(fw - c))
        w, fw = w[dist > gap], fw[dist > gap]
        got = model.indicator_diff(fw, R)
        want = model.in_region(w, R).astype(int) - model.in_region(fw, R).astype(int)
        assert np.any(want == 1) and np.any(want == -1)
        assert np.array_equal(got, want)

    def test_region_beyond_normal_series_is_flagged(self):
        # nu = -i: at R = 5 the boundary of V(R) reaches |x| ~ 0.54 at the cut
        f, inv, mu = cubic_parabolic(1 + 1j)
        model = FatouBoxModel(f, inv)
        assert model.boundary(5.0, 16) is None
        _, converged = model.residue(mu, 5.0)
        assert not converged
        with pytest.raises(ResidueError):
            model.indicator_diff(0.01, 5.0)
        est = dynamical_residue(f, mu, kind="fatou", inv=inv, params=[5, 20, 24, 32])
        assert not est.reliable
        assert [p for p, _ in est.parameter_trace] == [20, 24, 32]


class TestLocalCoordinate:
    """Regions are taken about 0 in u = z - z0 (u = 1/z at infinity), so a
    conjugation by translation leaves every residue unchanged."""

    @pytest.mark.parametrize("z0", [3.0, 5.0])
    @pytest.mark.parametrize("kind", ["fatou", "disc"])
    def test_translated_cubic_parabolic(self, z0, kind):
        f0, _, mu0 = cubic_parabolic(0.5)
        f = parse_map(f"{z0} + (z-{z0}) + (z-{z0})^2 + 0.5*(z-{z0})^3")
        mu = FormDensity.parse(f"(1 + 0.5*(z-{z0}))/(z-{z0})^2")
        at_zero = dynamical_residue(f0, mu0, kind=kind, center=0.0)
        moved = dynamical_residue(f, mu, kind=kind, center=z0)
        assert moved.reliable == at_zero.reliable
        assert abs(moved.value - at_zero.value) < 1e-12

    def test_disc_at_infinity(self):
        # u = 1/z conjugates z/2 to 2u and pulls 1/z back to 1/u
        val, converged = disc_residue(parse_map("z/2"), FormDensity.parse("1/z"),
                                      SpherePoint.infinity(), 0.1)
        assert converged
        assert abs(val - LOG4) < 1e-10

    def test_fatou_at_infinity_matches_conjugate_at_zero(self):
        # u = 1/z conjugates z + 1 + 1/z to u/(1 + u + u^2) and pulls
        # W = (z + 1)/z back to (1 + u)/u^2
        at_inf = dynamical_residue(parse_map("z + 1 + 1/z"), FormDensity.parse("(z + 1)/z"),
                                   kind="fatou", center=SpherePoint.infinity())
        at_zero = dynamical_residue(parse_map("z/(1 + z + z^2)"),
                                    FormDensity.parse("(1 + z)/z^2"), kind="fatou", center=0.0)
        assert at_inf.reliable
        assert abs(at_inf.value - at_zero.value) < 1e-12
