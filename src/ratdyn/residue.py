"""Numerical dynamical residues: Res_f^V(mu) = int_{f(V)\\V} mu - int_{V\\f(V)} mu.

The measure mu = |W|^(2/m) "dzbar dz" is normalized as (1/pi)|W(z)|^(2/m)
times planar Lebesgue measure; with this convention the classical linear
benchmark (f = lambda z against |z|^-2) evaluates to log|lambda|^2.

The residue is a boundary integral.  With rho the density, z0 the fixed
point and G(z) = int_{r*}^{|z-z0|} rho(z0 + s e^{i theta}) s ds its radial
primitive (theta = arg(z - z0)), d(G dtheta) = rho dA off z0, so by Stokes,
for a region V about z0 with positively oriented boundary gamma,

    Res_f^V = oint_{f o gamma} G dtheta - oint_gamma G dtheta.

The two curves count f(V)\\V and V\\f(V) by winding numbers, so this holds
where f(gamma) crosses gamma, and f o gamma is f applied to the nodes of
gamma.  G is integrated by Gauss-Legendre in log s, the curves by the
trapezoid rule (circles) or by Gauss-Legendre pieces; the node count
doubles until two values agree to _TOL within `budget` density evaluations.
A region whose nodes do not converge, or whose gamma or f o gamma does not
wind once about z0, is not integrated but reported unconverged.

Two region families are provided:

* Disc: V = the eps-disc about a fixed point.

* FatouBox: for a parabolic point, V(R) is the pullback of
  {max(|Re s0|, |Im s0|) > R} under the approximate Fatou coordinate
  s0 = t - (nu/m) Log t, t = -1/(m x^m), x the normalizing local coordinate
  (principal log, cut on the repelling axes).  Its boundary is written
  down: in each of the m petal sectors the square max(|Re s|, |Im s|) = R
  pulls back to an arc along which Im Log t runs from -pi to pi.  s0 jumps
  by 2 pi i nu/m across the cut, so neighbouring arcs end at different
  radii on the repelling axis between them, and the cut segments joining
  them are part of the boundary (of zero length when nu is real).  For a
  fixed point with |multiplier| != 1 the model coordinate is the
  linearizer and V(R) degenerates to the disc family with eps = |lambda|^(-R).

The residue itself is the limit over shrinking regions; it is estimated
by linear (Richardson-style) extrapolation along the parameter trace.
For a density built from a Laurent coefficient W with a simple pole of
residue rho at a parabolic fixed point, both families converge to
2 Re(rho), independently of the petal count (checked for one- and
two-petal maps, and against each other).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

from .kernel import Polynomial, horner_with_derivative
from .parabolic import ParabolicInvariants, _model_coordinate, tangency_and_residu
from .parser import ExprParser
from .ratmap import RationalMap, _as_point

QUAD_BUDGET = 1_000_000
_TOL = 1e-10  # agreement of a region's value under node doubling
_RADIAL = 48  # Gauss-Legendre nodes of the radial primitive G, in log s


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
# Boundary integral
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _gauss(n):
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _boundary_residue(f, mu, z0, z, dz, w):
    """(oint_{f o gamma} G dtheta - oint_gamma G dtheta, both curves wind once
    about z0) from the nodes z, velocities dz and weights w of gamma."""
    p, dp = horner_with_derivative(f.num.coeffs, z)
    q, dq = horner_with_derivative(f.den.coeffs, z)
    lo = np.log(np.min(np.abs(z - z0)))  # r*: any constant cancels
    gx, gw = _gauss(_RADIAL)
    out = []
    for c, dc in ((z, dz), (p / q, (dp * q - p * dq) / (q * q) * dz)):
        u = c - z0
        hi = np.log(np.abs(u))[:, None]
        ray = np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * gx)
        g = (0.5 * (hi - lo) * mu.density(z0 + ray * (u / np.abs(u))[:, None]) * ray**2) @ gw
        dtheta = w * np.imag(dc / u)
        out.append((g @ dtheta, np.rint(np.sum(dtheta) / (2 * np.pi))))
    (inner, turn), (outer, f_turn) = out
    return float(outer - inner), bool(turn == f_turn == 1)


def _refined(trace, f, mu, z0, n, budget):
    """(value, converged) on the curves trace(n), doubling n until two values
    agree to _TOL.  The first curve is always integrated; each further one
    only if its density evaluations still fit in budget.  value is NaN when
    the first curve cannot be traced or does not wind once about z0."""
    value, used = float("nan"), 0
    while True:
        curve = trace(n)
        cost = 2 * _RADIAL * (0 if curve is None else curve[0].size)
        if curve is None or (used and used + cost > budget):
            return value, False
        used += cost
        new, once = _boundary_residue(f, mu, z0, *curve)
        if not once:
            return value, False
        if abs(new - value) <= _TOL * max(1.0, abs(new)):
            return new, True
        value, n = new, 2 * n


def _winding(nodes, z):
    """Winding number about each z of the closed polygon through nodes."""
    z = np.asarray(z, dtype=complex)
    turn = np.zeros(z.shape)
    for a, b in zip(nodes, np.roll(nodes, -1)):
        turn += np.angle((b - z) / (a - z))
    return np.rint(turn / (2 * np.pi)).astype(int)


def _gauss_pieces(ends, n):
    """Nodes, velocities and weights of n-point Gauss-Legendre rules on the
    segments between consecutive points of ends."""
    x, w = _gauss(n)
    a, b = np.asarray(ends[:-1])[:, None], np.asarray(ends[1:])[:, None]
    half = 0.5 * (b - a) * np.ones(n)
    return (0.5 * (a + b) + half * x).ravel(), half.ravel(), np.tile(w, len(a))


# ---------------------------------------------------------------------------
# Region families
# ---------------------------------------------------------------------------


def disc_residue(f: RationalMap, mu: FormDensity, center, eps, budget=QUAD_BUDGET):
    """(Res_f^V, converged) for V the eps-disc about a fixed point."""
    z0 = _as_point(center)
    if z0.is_infinity:
        raise ResidueError("disc family at infinity is not supported")
    z0 = z0.value

    def circle(n):
        e = eps * np.exp(2j * np.pi * np.arange(n) / n)
        return z0 + e, 1j * e, np.full(n, 2 * np.pi / n)

    return _refined(circle, f, mu, z0, 64, budget)


def _cut_radius(c, a):
    """r > 0 with r + a ln r = c (Newton from r = c), or None."""
    r = c
    for _ in range(50):
        step = (r + a * np.log(r) - c) / (1 + a / r) if r > 0 else np.nan
        r -= step
        if abs(step) < 1e-15 * r:
            return r
    return None


class FatouBoxModel:
    """Region machinery of the approximate Fatou coordinate s0 at one
    parabolic point (see the module docstring).  The map whose dynamics
    define f(V) may differ from the map that produced the parabolic data
    (e.g. an iterate of it)."""

    def __init__(self, f: RationalMap, inv: ParabolicInvariants):
        self.f = f
        self.m = inv.e_loc
        self.nu = inv.nu
        self.xser = inv.normal_series
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

    def boundary(self, R, n):
        """(z, dz, w): nodes, velocities and weights of the positively oriented
        boundary of V(R), n Gauss-Legendre nodes per piece; None if it cannot
        be traced."""
        m, k = self.m, self.nu / self.m
        # |t| where the arcs meet the cut, at Im Log t = -pi (lo) and +pi (hi)
        r_lo, r_hi = (_cut_radius(R + sign * np.pi * k.imag, k.real) for sign in (-1, 1))
        if r_lo is None or r_hi is None:
            return None
        ends = [-r_lo - k * complex(np.log(r_lo), -np.pi), -R - 1j * R, R - 1j * R,
                R + 1j * R, -R + 1j * R, -r_hi - k * complex(np.log(r_hi), np.pi)]
        if max(abs(ends[0].imag), abs(ends[-1].imag)) >= R:
            return None
        s, ds, w = _gauss_pieces(ends, n)
        # L = Log t solves e^L - k L = s: Newton continuation along the square
        L, cur = np.empty_like(s), complex(np.log(r_lo), -np.pi)
        for i, si in enumerate(s):
            for _ in range(8):
                cur -= (cmath.exp(cur) - k * cur - si) / (cmath.exp(cur) - k)
            L[i] = cur
        if np.any(np.abs(np.exp(L) - k * L - s) > 1e-12 * np.abs(s)) or np.any(np.abs(L.imag) > np.pi):
            return None
        # sector j's arc runs clockwise in x from arg 2 pi (j+1)/m to 2 pi j/m;
        # the cut segment on that repelling axis joins it to the next arc
        a, b = (m * r_hi) ** (-1.0 / m), (m * r_lo) ** (-1.0 / m)
        pieces = []
        for j in reversed(range(m)):
            x = np.exp((-np.log(m) - L + 1j * np.pi * (1 + 2 * j)) / m)
            pieces += [(x, -x / m * ds / (np.exp(L) - k), w),
                       _gauss_pieces(np.exp(2j * np.pi * j / m) * np.array([a, b]), n)]
        x, dx, w = (np.concatenate(c)[::-1] for c in zip(*pieces))
        # u = z - z0 solves normal_series(u) = x: Newton from the reverted series
        u, dser = self.xser.reverse()(x), self.xser.derivative()
        for _ in range(10):
            u = u - (self.xser(u) - x) / dser(u)
        if not np.all(np.abs(self.xser(u) - x) <= 1e-12 * np.abs(x)):
            return None
        return self.z0 + u, -dx / dser(u), w

    def indicator_diff(self, z, R):
        """+1 on f(V(R)) \\ V(R), -1 on V(R) \\ f(V(R)), else 0: the winding
        numbers wind(f o dV(R), z) - wind(dV(R), z) on the traced nodes."""
        curve = self.boundary(R, 256)
        if curve is None:
            raise ResidueError(f"boundary of V({R}) cannot be traced")
        return _winding(self.f.num(curve[0]) / self.f.den(curve[0]), z) - _winding(curve[0], z)

    def residue(self, mu: FormDensity, R, budget=QUAD_BUDGET):
        """(Res^{V(R)}, converged) under the dynamics of self.f."""
        return _refined(lambda n: self.boundary(R, n), self.f, mu, self.z0, 16, budget)


def _linearizable(f, center):
    """|lambda| at a fixed point whose multiplier is off the unit circle, else None."""
    mod = abs(f.derivative_multiplier_chart(_as_point(center)))
    return mod if abs(mod - 1.0) > 1e-8 else None


def _region_sample(f, mu, kind, param, center, inv, budget):
    """(value, converged) for one region instance."""
    if kind == "disc":
        return disc_residue(f, mu, center, param, budget)
    if kind == "fatou":
        mod = _linearizable(f, center)
        if mod is not None:
            # linearizable point: the model region is the |lam|^-R disc
            return disc_residue(f, mu, center, min(mod, 1.0 / mod) ** param, budget)
        if inv is None:
            inv = tangency_and_residu(f, _as_point(center), 1, 1)
        return FatouBoxModel(f, inv).residue(mu, param, budget)
    raise ResidueError(f"unknown region kind {kind!r}")


def residue_for_region(f: RationalMap, mu: FormDensity, kind, param, center=0.0,
                       inv: ParabolicInvariants | None = None, budget=QUAD_BUDGET):
    """Signed residue for one region instance: kind 'disc' (param eps) or
    'fatou' (param R)."""
    value, _ = _region_sample(f, mu, kind, param, center, inv, budget)
    return value


def dynamical_residue(f: RationalMap, mu: FormDensity, kind="fatou", center=0.0,
                      params=None, inv=None, budget=QUAD_BUDGET):
    """Extrapolated residue along a shrinking region family.

    params: decreasing eps grid (disc) or increasing R grid (fatou).
    """
    if params is None:
        if kind == "disc":
            params = [0.2, 0.1, 0.05, 0.025]
        elif _linearizable(f, center) is None:
            # at small R the boundary of V(R) reaches beyond the normal series
            params = [20.0, 24.0, 32.0, 40.0, 48.0]
        else:
            # keeps eps = |lambda|^-R above the rounding level of the point
            params = [5.0, 6.0, 8.0, 10.0, 12.0]
    trace, notes = [], []
    all_converged = True
    for p in params:
        v, ok = _region_sample(f, mu, kind, p, center, inv, budget)
        all_converged = all_converged and ok
        if np.isfinite(v):  # a region that was not traced has no value
            trace.append((float(p), float(v)))
    if not trace:
        raise ResidueError("no region of the family could be traced")
    xs = np.array([1.0 / p if kind == "fatou" else p for p, _ in trace])
    ys = np.array([v for _, v in trace])
    incs = np.diff(ys)
    noise = 1e-6 * max(1.0, float(np.max(np.abs(ys))))
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
        notes.append("a region did not converge: node budget exhausted or "
                     "boundary not traced once around the point")
    return ResidueEstimate(value, float(error), trace, reliable, notes)


def trace_csv_rows(estimate: ResidueEstimate):
    return [("param", "value")] + [(p, v) for p, v in estimate.parameter_trace]
