"""Numerical dynamical residues: Res_f^V(mu) = int_{f(V)\\V} mu - int_{V\\f(V)} mu.

The measure mu = |W|^(2/m) "dzbar dz" is normalized as (1/pi)|W(z)|^(2/m)
times planar Lebesgue measure; with this convention the classical linear
benchmark (f = lambda z against |z|^-2) evaluates to log|lambda|^2.

Two region families are provided:

* Disc: V = closed eps-discs about a fixed point; membership in f(V) by a
  vectorized Newton local inverse.  Quadrature is polar with
  geometrically spaced radial shells (the densities of interest are
  radially singular), with a seeded quasi-Monte-Carlo fallback.

* FatouBox: for a parabolic point, V(R) is the pullback of
  {max(|Re s|, |Im s|) > R} under the approximate Fatou coordinate
  s0 = t - (nu/m) Log t, t = -1/(m x^m) (principal log, cut on the
  repelling axes).  Membership in f(V) uses the true local inverse of f
  (Newton, seeded first-order).  The integral stays in the z plane, over
  an annulus bracketing the region boundary: the densities of interest
  have a simple pole whose residue makes s0 multivalued across the cut
  (period 2 pi i nu per petal), so a parametrization by s would silently
  drop the cut-strip mismatch that carries the answer, whereas in z
  every quantity is single-valued and the strip is picked up by the
  indicator itself.  For a fixed point with |multiplier| != 1 the model
  coordinate is the linearizer and V(R) degenerates to the disc family
  with eps = |lambda|^(-R).

The residue itself is the limit over shrinking regions; it is estimated
by linear (Richardson-style) extrapolation along the parameter trace.

Reference values: for a density built from a Laurent coefficient W with
a simple pole of residue rho at a parabolic fixed point, the FatouBox
family converges to 2 Re(rho), independently of the petal count.  The
factor traces back to the same multivaluedness discussed above — the
translation mismatch between V and f(V) is concentrated in a strip of
s0-width 1 and height 2 pi Re(rho) per fundamental cut period, and the
(1/pi) normalization turns that area into 2 Re(rho).  The value was
checked for one- and two-petal maps.  The disc family is no cross-check
at a parabolic point: its trace oscillates and the estimate comes back
flagged unreliable (z + z^2 with W = (1+z)/z^2 gives 2.03 +- 0.11, and
z + z^3 with W = (1+1.5z^2)/z^3 gives 185.75 +- 1.0e3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .kernel import Polynomial, horner_with_derivative
from .parabolic import ParabolicInvariants, _model_coordinate, tangency_and_residu
from .parser import ExprParser
from .ratmap import RationalMap, SpherePoint, _as_point

QUAD_BUDGET = 1_000_000
DEFAULT_SEED = 0
# points per indicator evaluation: keeps the Newton temporaries cache-sized
_BLOCK = 1 << 15


def _seed():
    env = os.environ.get("DYNLEDGER_SEED")
    return int(env) if env else DEFAULT_SEED


class ResidueError(ValueError):
    pass


class FormDensity:
    """mu = (1/pi) |W(z)|^(2/m) dA for a rational Laurent coefficient W."""

    def __init__(self, w_num, w_den, m=1):
        self.w_num = w_num if isinstance(w_num, Polynomial) else Polynomial(w_num)
        self.w_den = w_den if isinstance(w_den, Polynomial) else Polynomial(w_den)
        if self.w_den.is_zero:
            raise ResidueError("density denominator is identically zero")
        self.m = int(m)
        if self.m < 1:
            raise ResidueError("form order m must be >= 1")

    @classmethod
    def parse(cls, text, m=1, params=None):
        num, den = ExprParser(text, params).parse()
        return cls(num, den, m)

    def w_value(self, z):
        return self.w_num(z) / self.w_den(z)

    def density(self, z):
        """(1/pi) |W(z)|^(2/m), vectorized over complex arrays."""
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.abs(self.w_num(z) / self.w_den(z)) ** (2.0 / self.m)
        return val / np.pi

    def to_json(self):
        return {
            "m": self.m,
            "w_num": [[c.real, c.imag] for c in self.w_num.coeffs],
            "w_den": [[c.real, c.imag] for c in self.w_den.coeffs],
        }


@dataclass
class ResidueEstimate:
    value: float
    error_bar: float
    parameter_trace: list  # (param, value) pairs
    reliable: bool = True
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "value": self.value,
            "error_bar": self.error_bar,
            "parameter_trace": [[p, v] for p, v in self.parameter_trace],
            "reliable": self.reliable,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Shared annular quadrature
# ---------------------------------------------------------------------------


def _blocked_indicator(indicator_diff, z):
    """indicator_diff over an array z of any shape, evaluated _BLOCK points at a time."""
    flat = z.reshape(-1)
    out = np.empty(flat.size, dtype=int)
    for lo in range(0, flat.size, _BLOCK):
        out[lo:lo + _BLOCK] = indicator_diff(flat[lo:lo + _BLOCK])
    return out.reshape(z.shape)


def _polar_indicator_integral(center, r_lo, r_hi, indicator_diff, density,
                              n_r=200, n_th=256, refine=16, budget=QUAD_BUDGET):
    """(integral, converged) of indicator_diff(z) * density(z) over an annulus.

    Midpoint rule on a geometric-radial polar grid; cells whose corner and
    midpoint indicator values disagree (the region boundaries pass through)
    are re-integrated on a refine x refine subgrid.  When the evaluation
    budget cannot cover the requested refinement the subgrid is coarsened
    to fit and converged comes back False (never an exception: the caller
    flags the estimate as unreliable instead).
    """
    while (n_r + 1) * (n_th + 1) + n_r * n_th > budget and n_r > 16:
        n_r = n_r * 3 // 4
        n_th = max(n_th * 3 // 4, 32)
    edges = np.geomspace(r_lo, r_hi, n_r + 1)
    th_edges = np.arange(n_th + 1) * 2 * np.pi / n_th
    dth = 2 * np.pi / n_th
    corner_z = center + edges[:, None] * np.exp(1j * th_edges[None, :])
    d_corner = _blocked_indicator(indicator_diff, corner_z)
    r_mid = np.sqrt(edges[:-1] * edges[1:])
    dr = np.diff(edges)
    th_mid = th_edges[:-1] + 0.5 * dth
    zm = center + r_mid[:, None] * np.exp(1j * th_mid[None, :])
    dm = _blocked_indicator(indicator_diff, zm)
    evals = corner_z.size + zm.size
    plain = (
        (d_corner[:-1, :-1] == dm)
        & (d_corner[1:, :-1] == dm)
        & (d_corner[:-1, 1:] == dm)
        & (d_corner[1:, 1:] == dm)
    )
    area = np.broadcast_to((r_mid * dr)[:, None] * dth, dm.shape)
    keep = plain & (dm != 0)
    total = float(np.sum(density(zm[keep]) * dm[keep] * area[keep]))
    crossed = ~plain
    converged = True
    if np.any(crossed):
        ci, cj = np.nonzero(crossed)
        n_cross = len(ci)
        afford = int(np.sqrt(max(budget - evals, 0) / max(n_cross, 1)))
        if afford < refine:
            refine = afford
            converged = False
        if refine >= 2:
            lo, hi = edges[:-1][ci], edges[1:][ci]
            frac = (np.arange(refine) + 0.5) / refine
            sub_r = lo[:, None] * (hi / lo)[:, None] ** frac[None, :]
            sub_dr = sub_r * (
                (hi / lo)[:, None] ** (0.5 / refine)
                - (hi / lo)[:, None] ** (-0.5 / refine)
            )
            sub_th = th_edges[cj][:, None] + (frac * dth)[None, :]
            sub_dth = dth / refine
            # (n_cross, refine_r, refine_th)
            zz = center + sub_r[:, :, None] * np.exp(1j * sub_th[:, None, :])
            dd = _blocked_indicator(indicator_diff, zz)
            ww = (sub_r * sub_dr)[:, :, None] * sub_dth
            total += float(
                np.sum(density(zz.reshape(-1)).reshape(zz.shape) * dd * ww)
            )
        else:
            # no refinement affordable: midpoint estimate on the crossed cells
            zc = zm[crossed]
            total += float(np.sum(density(zc) * dm[crossed] * area[crossed]))
    return total, converged


def _qmc_indicator_integral(center, r_lo, r_hi, indicator_diff, density,
                            budget=QUAD_BUDGET):
    """Seeded quasi-Monte-Carlo fallback on the same annulus."""
    from scipy.stats import qmc  # imported here: only --qmc needs it, and it is slow to load

    n = min(budget, 2**17)
    sob = qmc.Sobol(2, scramble=True, seed=_seed())
    u = sob.random(n)
    # radially log-uniform sampling
    logr = np.log(r_lo) + u[:, 0] * (np.log(r_hi) - np.log(r_lo))
    r = np.exp(logr)
    th = 2 * np.pi * u[:, 1]
    z = center + r * np.exp(1j * th)
    jac = r * r * (np.log(r_hi) - np.log(r_lo)) * 2 * np.pi
    vals = density(z) * _blocked_indicator(indicator_diff, z) * jac
    return float(np.mean(vals)), True


# ---------------------------------------------------------------------------
# Disc family
# ---------------------------------------------------------------------------


def _local_inverse(f: RationalMap, z, seed, iters=30):
    """Vectorized Newton solve of f(w) = z for w near the seed (local branch).

    Each point stops once its own step is below 1e-15 (1 + |w|); only the
    points still moving are iterated, so a few that never converge do not
    keep the whole array going until the iteration cap.
    """
    z = np.asarray(z, dtype=complex)
    w = np.array(seed, dtype=complex).reshape(-1)
    p, q = f.num.coeffs, f.den.coeffs
    active = np.arange(w.size)
    wa, za = w, z.reshape(-1)
    for _ in range(iters):
        pw, dpw = horner_with_derivative(p, wa)
        qw, dqw = horner_with_derivative(q, wa)
        val = pw / qw - za
        der = (dpw * qw - pw * dqw) / (qw * qw)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = val / np.where(der == 0, 1e-300, der)
            mag = np.abs(step)
            step = np.where(mag > 0.5, 0.5 * step / np.where(mag == 0, 1, mag), step)
        wa = wa - step
        done = np.abs(step) < 1e-15 * (1.0 + np.abs(wa))
        if done.any():
            w[active[done]] = wa[done]
            active, wa, za = active[~done], wa[~done], za[~done]
            if not active.size:
                break
    w[active] = wa
    return w.reshape(z.shape)


def disc_residue(f: RationalMap, mu: FormDensity, center, eps, budget=QUAD_BUDGET,
                 use_qmc=False):
    """(Res_f^V, converged) for V the eps-disc about a fixed point."""
    z0 = _as_point(center)
    if z0.is_infinity:
        raise ResidueError("disc family at infinity is not supported")
    z0 = z0.value
    lam = f.derivative_multiplier_chart(SpherePoint(z0))
    big = max(abs(lam), 1.0 / max(abs(lam), 1e-12)) * 1.5 + 0.2
    r_lo, r_hi = eps / big, eps * big

    def indicator_diff(z):
        # +1 on f(V)\V, -1 on V\f(V)
        in_v = np.abs(z - z0) <= eps
        seed = z0 + (z - f.num(z0) / f.den(z0)) / lam
        w = _local_inverse(f, z, seed)
        ok = np.abs(f.num(w) / f.den(w) - z) < 1e-8 * max(1.0, abs(z0))
        in_fv = ok & (np.abs(w - z0) <= eps)
        return in_fv.astype(int) - in_v.astype(int)

    if use_qmc:
        return _qmc_indicator_integral(z0, r_lo, r_hi, indicator_diff, mu.density,
                                       budget)
    return _polar_indicator_integral(z0, r_lo, r_hi, indicator_diff, mu.density,
                                     n_r=200, n_th=256, refine=16, budget=budget)


# ---------------------------------------------------------------------------
# FatouBox family
# ---------------------------------------------------------------------------


class FatouBoxModel:
    """Approximate-Fatou-coordinate region machinery for one parabolic point.

    V(R) is the pullback of {max(|Re s0|, |Im s0|) > R} under
    s0 = t - (nu/m) Log t, t = -1/(m x^m), with x the normalizing local
    coordinate; the residue integral itself is carried out in the z plane
    (see the module docstring for why a parametrization by s0 would lose
    the answer).  The map whose dynamics define f(V) may differ from the
    map that produced the parabolic data (e.g. an iterate of it).
    """

    def __init__(self, f: RationalMap, inv: ParabolicInvariants):
        self.f = f
        self.inv = inv
        self.m = inv.e_loc
        self.nu = inv.nu
        self.xser = inv.normal_series
        self.alpha = complex(inv.normal_series.c[1])
        c0, t0 = inv.z0.chart_coords()
        if c0 != "z":
            raise ResidueError("FatouBox requires a finite parabolic point")
        self.z0 = t0

    def s0(self, z):
        """Approximate Fatou coordinate, principal log (cut on repelling axes)."""
        u = np.asarray(z, dtype=complex) - self.z0
        x = self.xser(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _model_coordinate(x, self.m, self.nu)

    def in_region(self, z, R):
        s = self.s0(z)
        val = np.maximum(np.abs(s.real), np.abs(s.imag))
        return np.where(np.isfinite(val), val, np.inf) > R

    def indicator_diff(self, z, R):
        """+1 on f(V(R)) \\ V(R), -1 on V(R) \\ f(V(R)), else 0."""
        z = np.asarray(z, dtype=complex)
        in_v = self.in_region(z, R)
        # local inverse of the dynamics, seeded by the first-order backward step
        seed = 2 * z - self.f.num(z) / self.f.den(z)
        w = _local_inverse(self.f, z, seed)
        ok = np.abs(self.f.num(w) / self.f.den(w) - z) < 1e-9 * np.maximum(
            1.0, np.abs(z)
        )
        in_fv = ok & self.in_region(w, R)
        return in_fv.astype(int) - in_v.astype(int)

    def boundary_radii(self, R):
        """Annulus (about z0) bracketing the boundary of V(R) and its image."""

        def radius_for(S):
            return (self.m * S) ** (-1.0 / self.m) / abs(self.alpha)

        r_hi = 1.7 * radius_for(max(R - 2.0, 1.0))
        r_lo = 0.55 * radius_for(np.sqrt(2.0) * R + 2.0)
        return r_lo, r_hi

    def residue(self, mu: FormDensity, R, budget=QUAD_BUDGET, use_qmc=False):
        """(Res^{V(R)}, converged) under the dynamics of self.f."""
        r_lo, r_hi = self.boundary_radii(R)
        ind = lambda z: self.indicator_diff(z, R)
        if use_qmc:
            return _qmc_indicator_integral(self.z0, r_lo, r_hi, ind, mu.density,
                                           budget)
        # angular resolution matters most: the cut-strip mismatch regions
        # are thin slivers hugging the repelling axes
        return _polar_indicator_integral(self.z0, r_lo, r_hi, ind, mu.density,
                                         n_r=300, n_th=512, refine=32,
                                         budget=budget)


def _region_sample(f, mu, kind, param, center, inv, budget, use_qmc):
    """(value, converged) for one region instance."""
    if kind == "disc":
        return disc_residue(f, mu, center, param, budget, use_qmc)
    if kind == "fatou":
        z0 = _as_point(center)
        lam = f.derivative_multiplier_chart(z0)
        if abs(abs(lam) - 1.0) > 1e-8:
            # linearizable point: the model region is the |lam|^-R disc
            eps = abs(lam) ** (-param) if abs(lam) > 1 else abs(lam) ** param
            return disc_residue(f, mu, center, eps, budget, use_qmc)
        if inv is None:
            inv = tangency_and_residu(f, z0, 1, 1)
        model = FatouBoxModel(f, inv)
        return model.residue(mu, param, budget, use_qmc)
    raise ResidueError(f"unknown region kind {kind!r}")


def residue_for_region(f: RationalMap, mu: FormDensity, kind, param, center=0.0,
                       inv: ParabolicInvariants | None = None, budget=QUAD_BUDGET,
                       use_qmc=False):
    """Signed residue for one region instance: kind 'disc' (param eps) or
    'fatou' (param R)."""
    value, _ = _region_sample(f, mu, kind, param, center, inv, budget, use_qmc)
    return value


def dynamical_residue(f: RationalMap, mu: FormDensity, kind="fatou", center=0.0,
                      params=None, inv=None, budget=QUAD_BUDGET, use_qmc=False):
    """Extrapolated residue along a shrinking region family.

    params: decreasing eps grid (disc) or increasing R grid (fatou).
    """
    if params is None:
        params = [5.0, 6.0, 8.0, 10.0, 12.0] if kind == "fatou" else [
            0.2, 0.1, 0.05, 0.025,
        ]
    trace = []
    all_converged = True
    for p in params:
        v, ok = _region_sample(f, mu, kind, p, center, inv, budget, use_qmc)
        all_converged = all_converged and ok
        trace.append((float(p), float(v)))
    xs = np.array([1.0 / p if kind == "fatou" else p for p, _ in trace])
    ys = np.array([v for _, v in trace])
    notes = []
    incs = np.diff(ys)
    noise = 1e-6 * max(1.0, float(np.max(np.abs(ys))) if len(ys) else 1.0)
    monotone = bool(np.all(incs >= -noise) or np.all(incs <= noise))
    if len(trace) >= 3 and monotone:
        # Richardson: linear fit in the small parameter
        coef = np.polyfit(xs, ys, 1)
        value = float(coef[1])
        fit = np.polyval(coef, xs)
        spread = float(np.max(np.abs(ys - fit)))
        error = max(spread, float(abs(ys[-1] - value)) * 0.5)
    elif len(trace) >= 3:
        # oscillatory approach: a linear fit would chase the oscillation,
        # so average the deepest samples instead
        tail = ys[-3:]
        value = float(np.mean(tail))
        error = max(float(np.ptp(tail)), float(np.abs(incs[-1])))
        notes.append("oscillatory trace; tail-averaged")
    else:
        value = float(ys[-1])
        error = float(np.max(ys) - np.min(ys)) if len(ys) > 1 else abs(value)
    # decay probe: trace increments should not grow
    diffs = np.abs(incs)
    reliable = True
    if len(diffs) >= 2 and diffs[-1] > max(2.0 * diffs[0], noise):
        reliable = False
        notes.append("trace increments growing; extrapolation unreliable")
    if not all_converged:
        reliable = False
        notes.append("quadrature budget exhausted before full refinement")
    return ResidueEstimate(
        value=value,
        error_bar=float(error),
        parameter_trace=trace,
        reliable=reliable,
        notes=notes,
    )


def trace_csv_rows(estimate: ResidueEstimate):
    return [("param", "value")] + [(p, v) for p, v in estimate.parameter_trace]
