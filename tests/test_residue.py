"""Numerical dynamical residues: boundary integral, extrapolation, reliability flags."""

import cmath
import json
from pathlib import Path

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

    @pytest.mark.parametrize("expr,center", [("z^2", 0.0), ("z^2 + z^3", 0.0),
                                             ("z + z^3", SpherePoint.infinity())])
    def test_superattracting_center_rejected_by_fatou_family(self, monkeypatch, expr, center):
        # |lambda| = 0 has no model disc |lambda|^R; the disc family still
        # reports that none of its regions could be traced
        def region(*args):
            raise AssertionError("a region was computed")

        f, mu = parse_map(expr), FormDensity.parse("1/z")
        with pytest.raises(ResidueError, match="no region of the family"):
            dynamical_residue(f, mu, kind="disc", center=center)
        monkeypatch.setattr(residue, "disc_residue", region)
        with pytest.raises(ResidueError, match="superattracting"):
            dynamical_residue(f, mu, kind="fatou", center=center)

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
        s = model.inv.s0(w)
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


def scalar_boundary(model, R, n):
    """FatouBoxModel.boundary as a scalar continuation: L = Log t node by
    node, 8 Newton steps from the previous node's root starting at the
    cut, then 10 Newton steps for u.  The oracle of the array solve."""
    m, k = model.m, model.nu / model.m
    r_lo, r_hi = (residue._cut_radius(R + sign * np.pi * k.imag, k.real) for sign in (-1, 1))
    if r_lo is None or r_hi is None:
        return None
    ends = [-r_lo - k * complex(np.log(r_lo), -np.pi), -R - 1j * R, R - 1j * R,
            R + 1j * R, -R + 1j * R, -r_hi - k * complex(np.log(r_hi), np.pi)]
    if max(abs(ends[0].imag), abs(ends[-1].imag)) >= R:
        return None
    s, ds, w = residue._gauss_pieces(ends, n)
    L, cur = np.empty_like(s), complex(np.log(r_lo), -np.pi)
    for i, si in enumerate(s):
        for _ in range(8):
            cur -= (cmath.exp(cur) - k * cur - si) / (cmath.exp(cur) - k)
        L[i] = cur
    if np.any(np.abs(np.exp(L) - k * L - s) > 1e-12 * np.abs(s)) or np.any(np.abs(L.imag) > np.pi):
        return None
    a, b = (m * r_hi) ** (-1.0 / m), (m * r_lo) ** (-1.0 / m)
    pieces = []
    for j in reversed(range(m)):
        x = np.exp((-np.log(m) - L + 1j * np.pi * (1 + 2 * j)) / m)
        pieces += [(x, -x / m * ds / (np.exp(L) - k), w),
                   residue._gauss_pieces(np.exp(2j * np.pi * j / m) * np.array([a, b]), n)]
    x, dx, w = (np.concatenate(c)[::-1] for c in zip(*pieces))
    u = model.xinv(x)
    for _ in range(10):
        u = u - (model.xser(u) - x) / model.dxser(u)
    if not np.all(np.abs(model.xser(u) - x) <= 1e-12 * np.abs(x)):
        return None
    return u, -dx / model.dxser(u), w


class TestArrayTrace:
    """The array Newton solves of FatouBoxModel.boundary against the scalar
    continuation, on z + z^(m+1) + a z^(2m+1) (nu = (m+1)/2 - a)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("nu", [0, 1, 1.5, 6, -1 - 3j, 0.5 - 2j, -3 + 0.5j])
    def test_boundary_matches_scalar_continuation(self, nu, m):
        coeffs = [0, 1] + [0] * (m - 1) + [1] + [0] * (m - 1) + [(m + 1) / 2 - nu]
        f = RationalMap(Polynomial(coeffs), Polynomial([1]))
        inv = tangency_and_residu(f, 0.0, 1, 1)
        assert inv.e_loc == m and abs(inv.nu - nu) < 1e-9
        model = FatouBoxModel(f, inv)
        for R in [20.0, 24.0, 32.0, 40.0, 48.0]:
            for n in (16, 64):
                got, want = model.boundary(R, n), scalar_boundary(model, R, n)
                assert (got is None) == (want is None), (R, n)
                for g, v in zip(got or (), want or ()):
                    assert np.all(np.abs(g - v) <= 1e-13 * np.abs(v)), (R, n)


# (name, map, form, family): the residue workload of perfbench, three cubics
# z + z^2 + a z^3 with complex nu = 1 - a, and one whose regions all reach
# beyond the normal series
GUARD_CASES = [
    ("disc-2z", "2*z", "1/z", "disc"),
    ("disc-z/2", "z/2", "1/z", "disc"),
    ("disc-3z+z^2", "3*z + z^2", "1/z", "disc"),
    ("fatou-a0", "z + z^2 + 0*z^3", "(1 + 1*z)/z^2", "fatou"),
    ("fatou-a1", "z + z^2 + 1*z^3", "(1 + 0*z)/z^2", "fatou"),
    ("fatou-two-petal", "z + z^3", "(1 + 1.5*z^2)/z^3", "fatou"),
    ("fatou-nu-(-1-3i)", "z + z^2 + (2+3i)*z^3", "(1 + (-1-3i)*z)/z^2", "fatou"),
    ("fatou-nu-(0.5-2i)", "z + z^2 + (0.5+2i)*z^3", "(1 + (0.5-2i)*z)/z^2", "fatou"),
    ("fatou-nu-(-3+0.5i)", "z + z^2 + (4-0.5i)*z^3", "(1 + (-3+0.5i)*z)/z^2", "fatou"),
    ("fatou-untraceable", "z + z^2 + (-8-8i)*z^3", "(1 + (9+8i)*z)/z^2", "fatou"),
]
GUARD_FILE = Path(__file__).with_name("residue_guard.json")


def guard_report(expr, form, kind):
    """dynamical_residue's JSON report at 0, or its error."""
    try:
        return dynamical_residue(parse_map(expr), FormDensity.parse(form), kind=kind).to_json()
    except ResidueError as exc:
        return {"error": str(exc)}


@pytest.mark.parametrize("name,expr,form,kind", GUARD_CASES)
def test_residue_outputs_match_recorded(name, expr, form, kind):
    # recorded with the scalar continuation (commit 402782b), by
    # {name: guard_report(*case) for name, *case in GUARD_CASES}: the
    # array solve moves values by rounding only and changes no decision
    want, got = json.loads(GUARD_FILE.read_text())[name], guard_report(expr, form, kind)
    assert got.keys() == want.keys()
    if "error" in want:
        assert got == want
        return
    assert got["reliable"] == want["reliable"] and got["notes"] == want["notes"]
    assert [p for p, _ in got["parameter_trace"]] == [p for p, _ in want["parameter_trace"]]
    moved = [(got["value"], want["value"]), (got["error_bar"], want["error_bar"])]
    moved += [(g, v) for (_, g), (_, v) in zip(got["parameter_trace"], want["parameter_trace"])]
    for g, v in moved:
        assert abs(g - v) <= 1e-11 * max(1.0, abs(v))
