"""Numerical dynamical residues: Res_f^V(mu) = int_{f(V)\\V} mu - int_{V\\f(V)} mu.

The measure mu = |W|^(2/m) "dzbar dz" is normalized as (1/pi)|W(z)|^(2/m)
times planar Lebesgue measure; with this convention the classical linear
benchmark (f = lambda z against |z|^-2) evaluates to log|lambda|^2.

The residue is a boundary integral, taken at 0 in the local coordinate u
of the fixed point z0 (z - z0, or 1/z when z0 is infinity): f is
conjugated to u and the density pulled back exactly, which leaves the
residue unchanged.  With rho the density in u and G(u) =
int_{r*}^{|u|} rho(s e^{i theta}) s ds its radial primitive (theta =
arg u), d(G dtheta) = rho dA off 0, so by Stokes, for a region V about 0
with positively oriented boundary gamma,

    Res_f^V = oint_{f o gamma} G dtheta - oint_gamma G dtheta.

The two curves count f(V)\\V and V\\f(V) by winding numbers, so this holds
where f(gamma) crosses gamma, and f o gamma is f applied to the nodes of
gamma.  G is integrated by Gauss-Legendre in log s, the curves by the
trapezoid rule (circles) or by Gauss-Legendre pieces; the node count
doubles until two values agree to _TOL within `budget` density evaluations.
A region whose nodes do not converge, or whose gamma or f o gamma does not
wind once about 0, is not integrated but reported unconverged.

Two region families are provided:

* Disc: V = {|u| < eps} about a fixed point.

* FatouBox: for a parabolic point, V(R) is the pullback of
  {max(|Re s0|, |Im s0|) > R} under the approximate Fatou coordinate
  s0 = t - (nu/m) Log t, t = -1/(m x^m), x the normalizing local coordinate
  (principal log, cut on the repelling axes).  Its boundary is written
  down: in each of the m petal sectors the square max(|Re s|, |Im s|) = R
  pulls back to an arc along which Im Log t runs from -pi to pi.  s0 jumps
  by 2 pi i nu/m across the cut, so neighbouring arcs end at different
  radii on the repelling axis between them, and the cut segments joining
  them are part of the boundary (of zero length when nu is real).  Each
  node set is one array Newton solve of e^L - (nu/m) L = s for L = Log t
  over the square, then one of normal_series(u) = x.
  For a fixed point with |multiplier| != 1 the model coordinate is the
  linearizer and V(R) degenerates to the disc family with eps =
  |lambda|^(-R); a superattracting point (lambda = 0) has no such region.

The residue itself is the limit over shrinking regions; it is estimated
by linear (Richardson-style) extrapolation along the parameter trace.
For a density built from a Laurent coefficient W with a simple pole of
residue rho at a parabolic fixed point, both families converge to
2 Re(rho), independently of the petal count (checked for one- and
two-petal maps, and against each other).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .kernel import Polynomial, horner_with_derivative
from .parabolic import UNITY_TOL, ParabolicInvariants, tangency_and_residu
from .parser import ExprParser
from .ratmap import RationalMap, _as_point, local_pair

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


def _local_density(mu, z0):
    """mu in the local coordinate u about z0, pulled back exactly: W(z0 + u),
    or W(1/u) u^(-2m) at infinity (its modulus carries |dz/du|^2 = |u|^-4);
    W itself pulls back by ``ratmap.local_pair``."""
    z0 = _as_point(z0)
    num, den = local_pair(mu.w_num, mu.w_den, z0.value)
    if z0.is_infinity:
        den = den * Polynomial([0] * 2 * mu.m + [1])
    return FormDensity(num, den, mu.m)


def _boundary_residue(f, mu, u, du, w):
    """(oint_{f o gamma} G dtheta - oint_gamma G dtheta, both curves wind once
    about 0) from the nodes u, velocities du and weights w of gamma, for the
    map A/B with f = (A, B) (``RationalMap.local_fraction``)."""
    p, dp = horner_with_derivative(f[0].coeffs, u)
    q, dq = horner_with_derivative(f[1].coeffs, u)
    lo = np.log(np.min(np.abs(u)))  # r*: any constant cancels
    gx, gw = _gauss(_RADIAL)
    out = []
    for c, dc in ((u, du), (p / q, (dp * q - p * dq) / (q * q) * du)):
        hi = np.log(np.abs(c))[:, None]
        ray = np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * gx)
        g = (0.5 * (hi - lo) * mu.density(ray * (c / np.abs(c))[:, None]) * ray**2) @ gw
        dtheta = w * np.imag(dc / c)
        out.append((g @ dtheta, np.rint(np.sum(dtheta) / (2 * np.pi))))
    (inner, turn), (outer, f_turn) = out
    return float(outer - inner), bool(turn == f_turn == 1)


def _refined(trace, f, mu, n, budget):
    """(value, converged) on the curves trace(n) about 0, doubling n until two
    values agree to _TOL.  The first curve is always integrated; each further
    one only if its density evaluations still fit in budget.  value is NaN
    when the first curve cannot be traced or does not wind once about 0."""
    value, used = float("nan"), 0
    while True:
        curve = trace(n)
        cost = 2 * _RADIAL * (0 if curve is None else curve[0].size)
        if curve is None or (used and used + cost > budget):
            return value, False
        used += cost
        new, once = _boundary_residue(f, mu, *curve)
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
    """(Res_f^V, converged) for V = {|u| < eps} about a fixed point, u its
    local coordinate."""

    def circle(n):
        u = eps * np.exp(2j * np.pi * np.arange(n) / n)
        return u, 1j * u, np.full(n, 2 * np.pi / n)

    f = f.local_fraction(center, center)
    return _refined(circle, f, _local_density(mu, center), 64, budget)


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
    (e.g. an iterate of it).  self.f = (A, B) is that map as A/B in the
    local coordinate u about the point, and the region methods take and
    return u."""

    def __init__(self, f: RationalMap, inv: ParabolicInvariants):
        self.inv = inv
        self.f = f.local_fraction(inv.z0, inv.z0)
        self.m, self.nu = inv.e_loc, inv.nu
        self.xser = inv.normal_series
        self.xinv, self.dxser = self.xser.reverse(), self.xser.derivative()

    def in_region(self, u, R):
        s = self.inv.s0(u)
        val = np.maximum(np.abs(s.real), np.abs(s.imag))
        return np.where(np.isfinite(val), val, np.inf) > R

    def boundary(self, R, n):
        """(u, du, w): nodes, velocities and weights of the positively oriented
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
        # L = Log t solves e^L - k L = s: one Newton solve over all nodes from
        # Log s, on the branch the arcs take from the cut (below it on the
        # first piece, above it on the last), as |Im L| <= pi holds two roots there
        L = np.log(s)
        L[:n] -= 2j * np.pi * (L[:n].imag > 0)
        L[-n:] += 2j * np.pi * (L[-n:].imag < 0)
        for _ in range(20):
            eL = np.exp(L)
            step = (eL - k * L - s) / (eL - k)
            L -= step
            if np.all(np.abs(step) <= 1e-15 * np.abs(L)):
                break
        eL = np.exp(L)
        if np.any(np.abs(eL - k * L - s) > 1e-12 * np.abs(s)) or np.any(np.abs(L.imag) > np.pi):
            return None
        # sector j's arc runs clockwise in x from arg 2 pi (j+1)/m to 2 pi j/m;
        # the cut segment on that repelling axis joins it to the next arc
        a, b = (m * r_hi) ** (-1.0 / m), (m * r_lo) ** (-1.0 / m)
        pieces = []
        for j in reversed(range(m)):
            x = np.exp((-np.log(m) - L + 1j * np.pi * (1 + 2 * j)) / m)
            pieces += [(x, -x / m * ds / (eL - k), w),
                       _gauss_pieces(np.exp(2j * np.pi * j / m) * np.array([a, b]), n)]
        x, dx, w = (np.concatenate(c)[::-1] for c in zip(*pieces))
        # u = z - z0 solves normal_series(u) = x: Newton from the reverted series
        u = self.xinv(x)
        for _ in range(10):
            step = (self.xser(u) - x) / self.dxser(u)
            u = u - step
            if np.all(np.abs(step) <= 1e-15 * np.abs(u)):
                break
        if not np.all(np.abs(self.xser(u) - x) <= 1e-12 * np.abs(x)):
            return None
        return u, -dx / self.dxser(u), w

    def indicator_diff(self, u, R):
        """+1 on f(V(R)) \\ V(R), -1 on V(R) \\ f(V(R)), else 0: the winding
        numbers wind(f o dV(R), u) - wind(dV(R), u) on the traced nodes."""
        curve = self.boundary(R, 256)
        if curve is None:
            raise ResidueError(f"boundary of V({R}) cannot be traced")
        a, b = self.f
        return _winding(a(curve[0]) / b(curve[0]), u) - _winding(curve[0], u)

    def residue(self, mu: FormDensity, R, budget=QUAD_BUDGET):
        """(Res^{V(R)}, converged) under the dynamics of f, for mu in z."""
        mu = _local_density(mu, self.inv.z0)
        return _refined(lambda n: self.boundary(R, n), self.f, mu, 16, budget)


def _linearizable(f, center):
    """|lambda| at a fixed point whose multiplier is off the unit circle, else None."""
    mod = abs(complex(f.multiplier(_as_point(center).value, 1)))
    return mod if abs(mod - 1.0) > UNITY_TOL else None


def dynamical_residue(f: RationalMap, mu: FormDensity, kind="fatou", center=0.0,
                      params=None, inv=None, budget=QUAD_BUDGET):
    """Extrapolated residue along a shrinking region family.

    params: decreasing eps grid (disc) or increasing R grid (fatou), all finite and > 0.
    inv: the parabolic package at center; computed once here when the
    fatou family needs it and none is given.
    """
    if params is not None and not all(np.isfinite(p) and p > 0 for p in params):
        raise ResidueError(f"family parameters must be finite and positive, got {list(params)}")
    if f.evaluate(center) != _as_point(center):
        raise ResidueError(f"center {_as_point(center)!r} is not a fixed point of f")
    if kind == "disc":
        default = [0.2, 0.1, 0.05, 0.025]
        sample = functools.partial(disc_residue, f, mu, center)
    elif kind != "fatou":
        raise ResidueError(f"unknown region kind {kind!r}")
    elif (mod := _linearizable(f, center)) is not None:
        # linearizable point: the model region is the eps = |lambda|^-R disc,
        # and the grid keeps eps above the rounding level of the point
        if mod <= UNITY_TOL:
            raise ResidueError(f"center {_as_point(center)!r} is superattracting: "
                               "the fatou family has no model region there")
        default = [5.0, 6.0, 8.0, 10.0, 12.0]
        sample = lambda R, budget: disc_residue(f, mu, center, min(mod, 1.0 / mod) ** R, budget)
    else:
        # at small R the boundary of V(R) reaches beyond the normal series
        default = [20.0, 24.0, 32.0, 40.0, 48.0]
        if inv is None:
            inv = tangency_and_residu(f, _as_point(center), 1, 1)
        sample = functools.partial(FatouBoxModel(f, inv).residue, mu)
    trace, notes = [], []
    all_converged = True
    for p in default if params is None else params:
        v, ok = sample(p, budget)
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
