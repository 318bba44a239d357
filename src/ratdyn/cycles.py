"""Periodic cycles: enumeration up to a period bound, multipliers, taxonomy.

The fixed points of f^p on the sphere are the zeros of the homogeneous form
Phi(X, Y) = Y Z_p - X W_p of degree d^p + 1, where (Z_p : W_p) is the p-th
homogeneous iterate of (X : Y).  Its finite zeros are found by Aberth
iteration on Phi(z) = Z_p(z, 1) - z W_p(z, 1), and Phi is evaluated through
the map's own iteration, never through the coefficients of the degree-d^p
polynomial (as in MPSolve: Bini-Robol, J. Comput. Appl. Math. 272, 2014).
The homogenized numerator and denominator of f act p times on a truncated
Taylor jet of (z : 1) (``RationalMap.local_jets``, which ``parabolic``
reads too), and the pair is divided by max(|Z|, |W|) at every step.  That
factor is common to every Taylor coefficient at a point, so Phi/Phi' and
the Aberth corrections stay exact and nothing overflows.  The
number of finite zeros is exactly d^p + 1 - m, where m is the order of Phi
at infinity, read off the same iteration on a series in w = 1/z.  Aberth
starts from the d^p preimages of one generic point under f^p, most of
which lie next to the repelling fixed points of f^p, and each iterate
stops on its own step.  Iterates of a multiple zero are collapsed onto it by
``kernel.collapse_multiple_roots``, with Taylor coefficients from the same
iteration; it alone gives a zero a multiplicity above 1.

Exact periods are assigned by matching at ``SNAP_TOL`` against the zero
sets of proper divisors -- never by deflation.  An orbit is assembled by
matching f of each point to the nearest unused zero of the same level.
Both matchings measure ``ratmap``'s chart-aware distance on the arrays of
``ratmap.raw_array``, one per level, so they round as the scalar rule; an
image beyond ``SNAP_TOL`` of every unused zero, or an orbit that does not
return to within it of its start, raises ``CycleError``, so every reported
cycle closes as ``SpherePoint`` compares points.  A cycle's multiplier
is (f^p)' at its first point, in its local coordinate: the first-order jet
of f^p from one more iteration of each level's fixed points, order 2 and
all at once (``RationalMap.multiplier``), so no derivative is taken chart
by chart along the orbit.  Classification follows the multiplier:
attracting / superattracting / repelling by modulus, parabolic when the
multiplier is a root of unity within a finite horizon (subclassified by
the sign of Re(nu)), and irrationally indifferent cycles stay unresolved
unless an arithmetic annotation (Brjuno / Liouville rotation number)
decides Siegel vs Cremer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    ALGEBRAIC_TOL,
    aberth,
    by_position,
    collapse_multiple_roots,
    horner,
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
    _jet_mul,
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
    cycle: anchor of the annotated cycle (rotation kinds): None, an int
        index (not a bool), a point [re, im] or "inf"; from_json rejects others
    period, annulus: Herman-ring data (invariant annulus [r_in, r_out])
    """

    kind: str
    cycle: object = None
    period: int = 0
    annulus: tuple = ()

    @classmethod
    def from_json(cls, obj):
        anchor = obj.get("cycle")
        pair = isinstance(anchor, (list, tuple)) and len(anchor) == 2
        if not (anchor in (None, "inf") or type(anchor) is int
                or pair and {type(x) for x in anchor} <= {int, float}):
            raise CycleError(f"annotation anchor {anchor!r} is not null, an index, "
                             '[re, im] or "inf"')
        return cls(
            kind=obj["kind"],
            cycle=anchor,
            period=int(obj.get("period", 0)),
            annulus=tuple(obj.get("annulus", ())),
        )

    def names(self, i, cycle):
        """The point of cycle (index i of the sorted cycle list) that this
        annotation names, or None: the first point when it is unanchored or
        anchored by index i, the matching point when anchored by a point
        ([re, im] or "inf")."""
        if self.cycle is None or (isinstance(self.cycle, int) and self.cycle == i):
            return cycle.points[0]
        if self.cycle == "inf":
            return next((pt for pt in cycle.points if pt.is_infinity), None)
        if isinstance(self.cycle, (list, tuple)):
            target = SpherePoint(complex(self.cycle[0], self.cycle[1]))
            return next((pt for pt in cycle.points if pt == target), None)
        return None


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


class _FixedPointForm:
    """Phi = Y Z_p - X W_p for f^p, on Taylor jets, through the homogeneous iteration."""

    def __init__(self, f: RationalMap, p):
        self.f = f
        self.p = p
        self.degree = f.degree**p + 1

    def terms(self, t, k):
        """The two terms of Phi as Taylor jets about the raw value t (orders
        on axis 0; t an array of finite values, or None for ∞).

        With (x : y) the iterate of (t + h : 1), or of (1 : h) at ∞, from
        ``RationalMap.local_jets`` (x/y in the chart of t), Phi = x - (t + h) y,
        or x - h y at ∞.  Returns (a, b) with Phi = a - b, both divided by
        the same factor per point.
        """
        x, y = self.f.local_jets(t, k, self.p)
        var = np.zeros_like(y)  # the jet of t + h, or h at ∞
        var[0], var[1:2] = 0 if t is None else t, 1.0
        return x, _jet_mul(var, y)

    def jet(self, t, k):
        """Taylor coefficients of Phi(t + h), orders 0..k-1 on axis 0, up to a factor per point."""
        a, b = self.terms(t, k)
        return a - b

    def taylor(self, x, k):
        """t_0 .. t_k of Phi at one raw value x, up to a factor, and their zero levels."""
        a, b = self.terms(x, k + 1)
        size = np.maximum.accumulate(np.maximum(np.abs(a), np.abs(b)))
        return a - b, _ORDER_TOL * size

    def order_at_infinity(self):
        """Order of Phi at infinity (0 when f^p moves it), or None when Phi vanishes identically."""
        k = 2
        while True:
            t, zero = self.taylor(None, k - 1)
            above = np.flatnonzero(np.abs(t) > zero)
            if above.size:
                return int(above[0])
            if k > self.degree:
                return None
            k = min(2 * k, self.degree + 1)


def _preimages(num, den, v):
    """The d solutions w of num(w) = v den(w) for every target v, by batched Durand-Kerner."""
    d = len(num) - 1
    # non-finite preimages are replaced in ``_Pullback.seeds``
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = num[None, :] - v[:, None] * den[None, :]
        c = c / c[:, -1:]
        radius = 1.0 + np.max(np.abs(c[:, :-1]), axis=1, initial=0.0)
        ang = 2 * np.pi * (np.arange(d) + 0.25) / d + 0.4
        w = radius[:, None] * np.exp(1j * ang)[None, :]
        diag = np.arange(d)
        for _ in range(60):
            val = horner(c.T[:, :, None], w)
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
        self.num, self.den = f.padded
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


def _fixed_points(f: RationalMap, p, pullback):
    """(finite fixed points of f^p, their multiplicities, order m of infinity).

    ``pullback`` is a ``_Pullback`` of f, which shares preimages across periods.
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
    z, _ = aberth(lambda x: form.jet(x, 2), pullback.seeds(p, n))
    if not np.all(np.isfinite(z)):
        raise CycleError(f"periodic-point iteration for f^{p} left the plane")
    roots = collapse_multiple_roots(z, form.taylor)
    z = np.array([r for r, _ in roots], dtype=complex)
    res = np.abs(form.jet(z, 1)[0])
    bound = ALGEBRAIC_TOL * np.maximum(1.0, np.abs(z))
    if not np.all(res <= bound):
        worst = float(np.max(res / bound))
        raise CycleError(
            f"periodic points of f^{p} did not converge: residual {worst:.3e} times the bound"
        )
    z, mult = zip(*by_position(roots))
    return np.array(z, dtype=complex), np.array(mult, dtype=int), m_inf


def _divisors(p):
    return [q for q in range(1, p) if p % q == 0]


def find_cycles(f: RationalMap, max_period):
    """All cycles of exact period <= max_period, sorted deterministically."""
    if max_period < 1:
        raise CycleError(f"max_period must be >= 1, got {max_period}")
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
        # (f^p)' at each new point, in its local coordinate: one jet iteration per level
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
                d = distances(zs, image)
                d[used] = np.inf
                j = int(np.argmin(d))
                if d[j] > SNAP_TOL:
                    raise CycleError(
                        f"orbit of {SpherePoint(orbit[-1])!r} does not close: f maps it "
                        f"{d[j]:.3g} from the nearest unused period-{p} point"
                    )
                used[j] = True
                orbit.append(exact[j])
            gap = distance(f.step(orbit[-1]), start)
            if gap > SNAP_TOL:
                raise CycleError(
                    f"orbit of {SpherePoint(start)!r} does not close: f^{p} moves it {gap:.3g}"
                )
            points = [SpherePoint(v) for v in orbit]
            cycles.append(Cycle(points=points, period=p, multiplier=complex(lam[i])))
    cycles.sort(key=Cycle.sort_key)
    return cycles


def classify(cycle: Cycle, f: RationalMap, annotations=()):
    """Fill in cycle.cls (and parabolic invariants when applicable); the
    first rotation-number annotation, of those naming the cycle, decides an
    irrationally indifferent one."""
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
    if r is not None and r > 1 and f.degree == 1:
        # deg f^n = d^n, so only a Moebius map has an iterate equal to the
        # identity; at an elliptic fixed point of order r, f^{pr} is one
        raise CycleError(f"f^{cycle.period * r} is the identity; periodic points are not isolated")
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
            cycle.cls = CLASS_SIEGEL if ann.kind == "RotationNumberBrjuno" else CLASS_CREMER
            return cycle
    cycle.cls = CLASS_UNRESOLVED
    return cycle


def analyze_cycles(f: RationalMap, max_period, annotations=()):
    """find_cycles + classify, each cycle with the annotations that name it
    (``Annotation.names``)."""
    cycles = find_cycles(f, max_period)
    for i, c in enumerate(cycles):
        classify(c, f, [a for a in annotations if a.names(i, c) is not None])
    return cycles
