"""Periodic cycles: enumeration up to a period bound, multipliers, taxonomy.

The fixed points of f^p on the sphere are the zeros of the homogeneous form
Phi(X, Y) = Y Z_p - X W_p of degree d^p + 1, where (Z_p : W_p) is the p-th
homogeneous iterate of (X : Y).  Its finite zeros are found by Aberth
iteration on Phi(z) = Z_p(z, 1) - z W_p(z, 1), and Phi is evaluated through
the map's own iteration, never through the coefficients of the degree-d^p
polynomial (as in MPSolve: Bini-Robol, J. Comput. Appl. Math. 272, 2014).
The homogenized numerator and denominator of f act p times on a truncated
Taylor jet of (z : 1), and the pair is divided by max(|Z|, |W|) at every
step.  That factor is common to every Taylor coefficient at a point, so
Phi/Phi' and the Aberth corrections stay exact and nothing overflows.  The
number of finite zeros is exactly d^p + 1 - m, where m is the order of Phi
at infinity, read off the same iteration on a series in w = 1/z.  Aberth
starts from the d^p preimages of one generic point under f^p, most of
which lie next to the repelling fixed points of f^p, and each iterate
stops on its own step.  Iterates of a multiple zero are collapsed onto it by
``kernel.collapse_multiple_roots``, with Taylor coefficients from the same
iteration.

Exact periods are assigned by snap-tolerance matching against the zero sets
of proper divisors -- never by deflation.  An orbit is assembled by
matching f of each point to the nearest unused zero of the same level.
Both matchings measure ``ratmap``'s chart-aware distance on the arrays of
``ratmap.raw_array``, one per level, so they round as the scalar rule; an
image that matches none, or an orbit that does not return to its start,
raises ``CycleError``, so every reported cycle closes.  Classification
follows the multiplier: attracting / superattracting / repelling by
modulus, parabolic when the multiplier is a root of unity within a finite
horizon (subclassified by the sign of Re(nu)), and irrationally indifferent
cycles stay unresolved unless an arithmetic annotation (Brjuno / Liouville
rotation number) decides Siegel vs Cremer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    ALGEBRAIC_TOL,
    CLUSTER_TOL,
    _cluster,
    aberth,
    collapse_multiple_roots,
)
from .parabolic import (
    ParabolicInvariants,
    rotation_order,
    tangency_and_residu,
    UNITY_TOL,
)
from .ratmap import (
    RationalMap,
    SpherePoint,
    SNAP_TOL,
    _as_point,
    distance,
    distances,
    raw_array,
)

DEGREE_BUDGET = 5000

CLASS_ATTRACTING = "Attracting"
CLASS_SUPER = "SuperAttracting"
CLASS_REPELLING = "Repelling"
CLASS_PARABOLIC_ATTR = "ParabolicAttracting"
CLASS_PARABOLIC_REP = "ParabolicRepelling"
CLASS_SIEGEL = "SiegelDisc"
CLASS_CREMER = "Cremer"
CLASS_UNRESOLVED = "IndifferentUnresolved"

PARABOLIC_CLASSES = (CLASS_PARABOLIC_ATTR, CLASS_PARABOLIC_REP)


class CycleError(ValueError):
    pass


@dataclass
class Annotation:
    """Arithmetic or geometric side information that numerics cannot decide.

    kind: RotationNumberBrjuno | RotationNumberLiouville | HermanRing | LattesFlag
    cycle: index or point locating the annotated cycle (rotation kinds)
    period, annulus: Herman-ring data (invariant annulus [r_in, r_out])
    """

    kind: str
    cycle: object = None
    period: int = 0
    annulus: tuple = ()

    @classmethod
    def from_json(cls, obj):
        return cls(
            kind=obj["kind"],
            cycle=obj.get("cycle"),
            period=int(obj.get("period", 0)),
            annulus=tuple(obj.get("annulus", ())),
        )

    def matches_point(self, pt: SpherePoint):
        if self.cycle is None:
            return False
        if isinstance(self.cycle, (list, tuple)):
            return pt == SpherePoint(complex(self.cycle[0], self.cycle[1]))
        if self.cycle == "inf":
            return pt.is_infinity
        return False

    def to_json(self):
        out = {"kind": self.kind}
        if self.cycle is not None:
            out["cycle"] = self.cycle
        if self.period:
            out["period"] = self.period
        if self.annulus:
            out["annulus"] = list(self.annulus)
        return out


def load_annotations(obj):
    """Parse the annotations JSON object {"annotations": [...]}."""
    if obj is None:
        return []
    items = obj.get("annotations", obj) if isinstance(obj, dict) else obj
    return [Annotation.from_json(it) for it in items]


@dataclass
class Cycle:
    points: list  # ordered orbit of SpherePoints
    period: int
    multiplier: complex
    cls: str = ""
    parabolic: ParabolicInvariants | None = None

    def contains(self, pt):
        """Whether pt (a SpherePoint or raw value) equals a cycle point."""
        return _as_point(pt) in self.points

    def representative(self):
        """The first finite cycle point, or ∞ when the cycle is {∞}."""
        for q in self.points:
            if not q.is_infinity:
                return q
        return self.points[0]

    def sort_key(self):
        pt = self.points[0]
        if pt.is_infinity:
            return (self.period, 1, 0.0, 0.0)
        return (self.period, 0, round(pt.value.real, 9), round(pt.value.imag, 9))

    def to_json(self):
        out = {
            "period": self.period,
            "points": [p.to_json() for p in self.points],
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "class": self.cls,
        }
        if self.parabolic is not None:
            out["parabolic"] = self.parabolic.to_json()
        return out


# A Taylor coefficient of Phi at most this, relative to the larger of the two
# terms it is the difference of (up to its order), counts as zero: when reading
# the order of Phi at infinity and when certifying a multiple zero.
_ORDER_TOL = 1e-12
_PULLBACK_TARGET = 0.3 + 0.2j  # a generic point whose preimages seed Aberth


def _jet_mul(a, b):
    """Product of truncated Taylor jets (orders along axis 0)."""
    out = a[0] * b
    for i in range(1, len(a)):
        out[i:] += a[i] * b[:-i]
    return out


def _padded_coeffs(f: RationalMap):
    """Ascending coefficients of num and den, both padded to the degree of f."""
    num = np.zeros(f.degree + 1, dtype=complex)
    den = np.zeros(f.degree + 1, dtype=complex)
    num[: len(f.num.coeffs)] = f.num.coeffs
    den[: len(f.den.coeffs)] = f.den.coeffs
    return num, den


def _homogeneous_pair(num, den, x, y):
    """(N(x, y), D(x, y)) of the homogenized num/den on jets x, y.

    One Horner pass for both, sharing the powers of y.
    """
    acc = [num[-1], den[-1]]
    ypow = None
    for k in range(len(num) - 2, -1, -1):
        ypow = y if ypow is None else _jet_mul(ypow, y)
        for i, c in enumerate((num[k], den[k])):
            a = acc[i]
            if isinstance(a, np.ndarray):
                a = _jet_mul(a, x)
            elif a != 0:
                a = a * x
            if c != 0:
                term = ypow if c == 1 else c * ypow
                a = term if isinstance(a, complex) else a + term
            acc[i] = a
    return [a if isinstance(a, np.ndarray) else np.full(x.shape, a, dtype=complex) for a in acc]


class _FixedPointForm:
    """Phi = Y Z_p - X W_p for f^p, on Taylor jets, through the homogeneous iteration."""

    def __init__(self, f: RationalMap, p):
        self.num, self.den = _padded_coeffs(f)
        self.p = p
        self.degree = f.degree**p + 1

    def terms(self, t, k, chart="z"):
        """The two terms of Phi as Taylor jets about the chart coordinates t (orders on axis 0).

        Chart "z" puts (t + h : 1) in and Phi = Z_p - (t + h) W_p; chart "w"
        puts (1 : t + h) in and Phi = (t + h) Z_p - W_p.  Returns (a, b) with
        Phi = a - b, both divided by the same factor per point.
        """
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        var = np.zeros((k, t.size), dtype=complex)
        var[0] = t
        if k > 1:
            var[1] = 1.0
        one = np.zeros((k, t.size), dtype=complex)
        one[0] = 1.0
        x, y = (var, one) if chart == "z" else (one, var)
        for _ in range(self.p):
            x, y = _homogeneous_pair(self.num, self.den, x, y)
            s = np.maximum(np.abs(x[0]), np.abs(y[0]))
            x, y = x / s, y / s  # not in place: the pair may alias the input jets
        if chart == "z":
            return x, _jet_mul(var, y)
        return _jet_mul(var, x), y

    def jet(self, t, k):
        """Taylor coefficients of Phi(t + h), orders 0..k-1 on axis 0, up to a factor per point."""
        a, b = self.terms(t, k)
        return a - b

    def taylor(self, x, k, chart="z"):
        """t_0 .. t_k of Phi at one chart point, up to a factor, and their zero levels."""
        a, b = self.terms(x, k + 1, chart)
        size = np.maximum.accumulate(np.maximum(np.abs(a), np.abs(b))[:, 0])
        return (a - b)[:, 0], _ORDER_TOL * size

    def order_at_infinity(self):
        """Order of Phi at infinity (0 when f^p moves it), or None when Phi vanishes identically."""
        k = 2
        while True:
            t, zero = self.taylor(0.0, k - 1, "w")
            above = np.flatnonzero(np.abs(t) > zero)
            if above.size:
                return int(above[0])
            if k > self.degree:
                return None
            k = min(2 * k, self.degree + 1)


def _preimages(num, den, v):
    """The d solutions w of num(w) = v den(w) for every target v, by batched Durand-Kerner."""
    d = len(num) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        c = num[None, :] - v[:, None] * den[None, :]
        c = c / c[:, -1:]
        radius = 1.0 + np.max(np.abs(c[:, :-1]), axis=1, initial=0.0)
        ang = 2 * np.pi * (np.arange(d) + 0.25) / d + 0.4
        w = radius[:, None] * np.exp(1j * ang)[None, :]
        diag = np.arange(d)
        for _ in range(60):
            val = np.zeros_like(w)
            for ck in c.T[::-1]:
                val = val * w + ck[:, None]
            gaps = w[:, :, None] - w[:, None, :]
            gaps[:, diag, diag] = 1.0
            step = val / np.prod(gaps, axis=2)
            w = w - step
            # NaN rows (a target whose equation lost its degree) compare False
            if not np.any(np.abs(step) > 1e-9 * (1.0 + np.abs(w))):
                break
    return w.reshape(-1)


class _Pullback:
    """Preimages of one generic point under f, f^2, ... (each level computed once)."""

    def __init__(self, f: RationalMap):
        self.num, self.den = _padded_coeffs(f)
        self.levels = [np.array([_PULLBACK_TARGET], dtype=complex)]

    def level(self, p):
        while len(self.levels) <= p:
            self.levels.append(_preimages(self.num, self.den, self.levels[-1]))
        return self.levels[p]

    def seeds(self, p, n):
        """n Aberth starting points for the fixed points of f^p, from the d^p preimages at depth p.

        Preimages of a point equidistribute on the Julia set as the periodic
        points do, and the branch of f^-p along a repelling cycle contracts
        onto it, so most seeds start next to a zero of Phi.  Non-finite
        seeds (a preimage at infinity) go on a circle, the seeds closest to
        infinity are dropped when infinity is a multiple zero, a missing
        seed goes outside the rest, and a small fixed jitter separates
        coincident ones.
        """
        v = self.level(p).copy()
        rng = np.random.default_rng(12345)
        bad = ~np.isfinite(v)
        v[bad] = np.exp(2j * np.pi * rng.random(int(np.sum(bad))))
        v = v[np.argsort(np.abs(v), kind="stable")][:n]
        if v.size < n:
            far = 1.0 + np.max(np.abs(v), initial=1.0)
            v = np.concatenate([v, far * np.exp(2j * np.pi * rng.random(n - v.size))])
        return v + 1e-6 * np.maximum(1.0, np.abs(v)) * np.exp(2j * np.pi * rng.random(n))


def _fixed_points(f: RationalMap, p, pullback=None):
    """(finite fixed points of f^p, their multiplicities, order m of infinity).

    ``pullback`` is a ``_Pullback`` of f to share preimages across periods.
    """
    if f.degree**p + 1 > DEGREE_BUDGET:
        raise CycleError(
            f"degree budget exceeded: {f.degree}^{p} + 1 > {DEGREE_BUDGET}"
        )
    form = _FixedPointForm(f, p)
    m_inf = form.order_at_infinity()
    if m_inf is None:
        raise CycleError(f"f^{p} is the identity; periodic points are not isolated")
    n = form.degree - m_inf
    if n == 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=int), m_inf
    z, _ = aberth(lambda x: form.jet(x, 2), (pullback or _Pullback(f)).seeds(p, n))
    if not np.all(np.isfinite(z)):
        raise CycleError(f"periodic-point iteration for f^{p} left the plane")
    z = collapse_multiple_roots(z, form.taylor)
    res = np.abs(form.jet(z, 1)[0])
    bound = ALGEBRAIC_TOL * np.maximum(1.0, np.abs(z))
    if not np.all(res <= bound):
        worst = float(np.max(res / bound))
        raise CycleError(
            f"periodic points of f^{p} did not converge: residual {worst:.3e} times the bound"
        )
    roots = _cluster([(complex(zi), 1) for zi in z], CLUSTER_TOL)
    return (
        np.array([r for r, _ in roots], dtype=complex),
        np.array([m for _, m in roots], dtype=int),
        m_inf,
    )


def periodic_points(f: RationalMap, p):
    """Finite solutions of f^p(z) = z as (point, multiplicity) pairs."""
    z, mult, _ = _fixed_points(f, p)
    return [(SpherePoint(zi), int(m)) for zi, m in zip(z, mult)]


def _divisors(p):
    return [q for q in range(1, p) if p % q == 0]


def find_cycles(f: RationalMap, max_period):
    """All cycles of exact period <= max_period, sorted deterministically."""
    match_tol = max(SNAP_TOL, 1e-6)
    levels = {}  # period q -> raw values of the fixed points of f^q
    cycles = []
    pullback = _Pullback(f)
    for p in range(1, max_period + 1):
        z, _, m_inf = _fixed_points(f, p, pullback)
        values = [complex(zi) for zi in z] + ([None] if m_inf else [])
        levels[p] = values
        zs = raw_array(values)
        seen = np.zeros(len(values), dtype=bool)
        for q in _divisors(p):
            for v in levels[q]:
                seen |= distances(zs, v) <= SNAP_TOL
        exact = [v for v, old in zip(values, seen) if not old]
        zs = zs[:, ~seen]
        used = np.zeros(len(exact), dtype=bool)
        for i, start in enumerate(exact):
            if used[i]:
                continue
            used[i] = True
            orbit = [start]
            for _ in range(p - 1):
                image = f.step(orbit[-1])
                d = distances(zs, image)
                d[used] = np.inf
                j = int(np.argmin(d))
                if d[j] > match_tol:
                    raise CycleError(
                        f"orbit of {SpherePoint(orbit[-1])!r} does not close: f maps it "
                        f"{d[j]:.3g} from the nearest unused period-{p} point"
                    )
                used[j] = True
                orbit.append(exact[j])
            gap = distance(f.step(orbit[-1]), start)
            if gap > match_tol:
                raise CycleError(
                    f"orbit of {SpherePoint(start)!r} does not close: f^{p} moves it {gap:.3g}"
                )
            points = [SpherePoint(v) for v in orbit]
            cycles.append(Cycle(points=points, period=p, multiplier=multiplier(f, points)))
    cycles.sort(key=Cycle.sort_key)
    return cycles


def multiplier(f: RationalMap, orbit_pts):
    """Product of chart-correct derivatives along the cycle."""
    lam = 1.0 + 0j
    for pt in orbit_pts:
        lam *= f.derivative_multiplier_chart(pt)
    return complex(lam)


def classify(cycle: Cycle, f: RationalMap, annotations=()):
    """Fill in cycle.cls (and parabolic invariants when applicable)."""
    lam = cycle.multiplier
    mod = abs(lam)
    if mod <= UNITY_TOL:
        cycle.cls = CLASS_SUPER
        return cycle
    if mod < 1.0 - UNITY_TOL:
        cycle.cls = CLASS_ATTRACTING
        return cycle
    if mod > 1.0 + UNITY_TOL:
        cycle.cls = CLASS_REPELLING
        return cycle
    r = rotation_order(lam)
    if r is not None:
        z0 = cycle.representative()
        inv = tangency_and_residu(f, z0, cycle.period, r)
        cycle.parabolic = inv
        if inv.nu.real <= 0:
            cycle.cls = CLASS_PARABOLIC_ATTR
        else:
            cycle.cls = CLASS_PARABOLIC_REP
        return cycle
    # irrationally indifferent: needs arithmetic annotation
    for ann in annotations:
        if ann.kind in ("RotationNumberBrjuno", "RotationNumberLiouville"):
            if _annotation_hits(ann, cycle):
                cycle.cls = (
                    CLASS_SIEGEL
                    if ann.kind == "RotationNumberBrjuno"
                    else CLASS_CREMER
                )
                return cycle
    cycle.cls = CLASS_UNRESOLVED
    return cycle


def _annotation_hits(ann: Annotation, cycle: Cycle):
    if ann.cycle is None:
        return True  # unanchored annotation applies to any undecided cycle
    if isinstance(ann.cycle, int):
        return False  # index-anchored annotations are resolved by the caller
    return any(ann.matches_point(pt) for pt in cycle.points)


def analyze_cycles(f: RationalMap, max_period, annotations=()):
    """find_cycles + classify, resolving index-anchored annotations by position."""
    cycles = find_cycles(f, max_period)
    for i, c in enumerate(cycles):
        resolved = [
            Annotation(kind=a.kind, cycle=None) if isinstance(a.cycle, int) else a
            for a in annotations
            if not isinstance(a.cycle, int) or a.cycle == i
        ]
        classify(c, f, resolved)
    return cycles
