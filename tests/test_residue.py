"""Numerical dynamical residues: quadrature, extrapolation, reliability flags."""

import os
import subprocess
import sys

import numpy as np
import pytest

import ratdyn
from ratdyn.ratmap import parse_map
from ratdyn.parabolic import tangency_and_residu
from ratdyn.residue import (
    _BLOCK,
    FatouBoxModel,
    FormDensity,
    ResidueError,
    _blocked_indicator,
    _local_inverse,
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
        assert abs(val - LOG4) < 1e-3  # single-grid quadrature accuracy

    def test_qmc_fallback_agrees(self):
        f = parse_map("2*z")
        mu = FormDensity.parse("1/z")
        val = residue_for_region(f, mu, "disc", 0.1, use_qmc=True)
        assert abs(val - LOG4) < 0.05 * LOG4

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is slow to import and only the QMC fallback needs it
        src = os.path.dirname(os.path.dirname(os.path.abspath(ratdyn.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, ratdyn; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


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
        # the z-plane annulus quadrature converges to twice the residue of
        # W at the origin (see the module docstring for why the factor is
        # 2 Re and not the petal-normalized constant)
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


class TestLocalInverse:
    def grid(self, f):
        # annulus about the parabolic point 0 of z + z^2, seeded as in FatouBox
        r, th = np.meshgrid(np.geomspace(0.01, 0.3, 40), np.linspace(0, 2 * np.pi, 64))
        z = (r * np.exp(1j * th)).reshape(-1)
        return z, 2 * z - f.num(z) / f.den(z)

    def test_points_converge_independently(self):
        f = parse_map("z + z^2")
        z, seed = self.grid(f)
        # w + w^2 = -1 has no real root and Newton keeps a real seed real,
        # so this point is still moving at the iteration cap
        z = np.append(z, -1.0)
        seed = np.append(seed, 0.3)
        w = _local_inverse(f, z, seed)
        assert abs(f.num(w[-1]) / f.den(w[-1]) + 1.0) > 1e-3
        for i in range(len(z) - 1):
            alone = _local_inverse(f, z[i:i + 1], seed[i:i + 1])
            assert w[i] == alone[0]

    def test_matches_reference_newton(self):
        f = parse_map("z + z^2")
        z, seed = self.grid(f)
        p, q = f.num, f.den
        dp, dq = p.derivative(), q.derivative()
        ref = seed.copy()
        for _ in range(30):
            pw, qw = p(ref), q(ref)
            step = (pw / qw - z) / ((dp(ref) * qw - pw * dq(ref)) / (qw * qw))
            mag = np.abs(step)
            with np.errstate(invalid="ignore"):
                ref = ref - np.where(mag > 0.5, 0.5 * step / mag, step)
        w = _local_inverse(f, z, seed)
        assert np.all(np.abs(w - ref) <= 1e-14)

    def test_blocked_indicator_matches_unblocked(self):
        f = parse_map("z + z^2")
        model = FatouBoxModel(f, tangency_and_residu(f, 0.0, 1, 1))
        R = 5.0
        r_lo, r_hi = model.boundary_radii(R)
        n, k = 40, 32  # n * k * k points: more than one block
        assert n * k * k > _BLOCK
        r = np.geomspace(r_lo, r_hi, n * k).reshape(n, k, 1)
        th = np.arange(k) * 2 * np.pi / k
        zz = r * np.exp(1j * th)
        blocked = _blocked_indicator(lambda z: model.indicator_diff(z, R), zz)
        whole = model.indicator_diff(zz.reshape(-1), R).reshape(zz.shape)
        assert blocked.shape == (n, k, k)
        assert np.any(whole == 1) and np.any(whole == -1)
        assert np.array_equal(blocked, whole)
