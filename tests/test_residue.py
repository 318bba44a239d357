"""Numerical dynamical residues: boundary integral, extrapolation, reliability flags."""

import numpy as np
import pytest

from ratdyn.kernel import Polynomial
from ratdyn.ratmap import RationalMap, parse_map
from ratdyn.parabolic import tangency_and_residu
from ratdyn.residue import (
    FatouBoxModel,
    FormDensity,
    ResidueError,
    disc_residue,
    dynamical_residue,
    residue_for_region,
    trace_csv_rows,
)

LOG4 = float(np.log(4.0))


class TestFormDensity:
    def test_parse_and_density(self):
        mu = FormDensity.parse("1/z")
        assert abs(mu.density(2.0) - 1 / (4 * np.pi)) < 1e-14
        assert abs(mu.w_value(0.5j) - (1 / 0.5j)) < 1e-14

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

    def test_region_family_independence(self):
        # the same limit from the disc family and the fatou-style fallback
        f = parse_map("2*z")
        mu = FormDensity.parse("1/z")
        v_disc = residue_for_region(f, mu, "disc", 0.1)
        v_fatou = residue_for_region(f, mu, "fatou", 3)
        assert abs(v_disc - v_fatou) < 1e-6

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
