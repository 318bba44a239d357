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

All periods p = 1..P are solved together, so numpy's fixed cost is paid
once per sweep, not once per period: one ``kernel.aberth`` loop runs one
zero set per period, each with its own pairwise sums, and reads Phi at
every active iterate from one jet iteration, max(p) steps in all.
``aberth`` hands the jet the run of active iterates of each set, and the
run of period p takes p steps (``RationalMap.local_jets`` with runs
(count, start)).  The orders at infinity, the residual check and the
multipliers at finite points read one such iteration each for all
periods, one run per period.  Every step is elementwise per point, so each
period gets the bits of a solve of its own, and the first failing level's
``CycleError`` is raised after the solved levels' orbits, as if solved
alone.  The degree budget d^P + 1 <= ``DEGREE_BUDGET`` is checked before
any period is solved.

Exact periods are assigned by matching at ``SNAP_TOL`` against the zero
sets of proper divisors -- never by deflation.  An orbit is assembled by
matching f of each point to the nearest unused zero of the same level.
Each matching reads one matrix of ``ratmap``'s chart-aware distance per
level (``ratmap.distance_matrix``): the level's zeros against those of its
proper divisors, and f of each new zero against the new zeros, built in
row blocks.  The matrix rounds as the scalar rule entry by entry; an image
beyond ``SNAP_TOL`` of every unused zero, or an orbit that does not
return to within it of its start, raises ``CycleError``, so every reported
cycle closes as ``SpherePoint`` compares points.  A cycle's multiplier
is (f^p)' at its first point, in its local coordinate: the first-order jet
of f^p from one more iteration of the new fixed points of every level,
order 2 and all at once (``RationalMap.multiplier``), so no derivative is
taken chart by chart along the orbit.  Classification follows the multiplier:
attracting / superattracting / repelling by modulus, parabolic when the
multiplier is a root of unity within a finite horizon (subclassified by
the sign of Re(nu)), and irrationally indifferent cycles stay unresolved
unless an arithmetic annotation (Brjuno / Liouville rotation number)
decides Siegel vs Cremer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    _PAIR_BLOCK,
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
    distance_matrix,
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
    period, annulus: Herman-ring data (invariant annulus [r_in, r_out]); a
        Brjuno annotation's annulus is one disc radius; from_json rejects
        any other kind, a period but a non-negative int (not a bool), any
        other annulus shape and radii unless finite with 0 <= r_in <= r_out
    """

    kind: str
    cycle: object = None
    period: int = 0
    annulus: tuple = ()

    @classmethod
    def from_json(cls, obj):
        if obj.get("kind") not in ("RotationNumberBrjuno", "RotationNumberLiouville",
                                   "HermanRing", "LattesFlag"):
            raise CycleError(f"annotation kind {obj.get('kind')!r} is not one of the four kinds")
        period = obj.get("period", 0)
        if not (type(period) is int and period >= 0):
            raise CycleError(f"annotation period {period!r} is not a non-negative integer")
        anchor = obj.get("cycle")
        pair = isinstance(anchor, (list, tuple)) and len(anchor) == 2
        if not (anchor in (None, "inf") or type(anchor) is int
                or pair and {type(x) for x in anchor} <= {int, float}):
            raise CycleError(f"annotation anchor {anchor!r} is not null, an index, "
                             '[re, im] or "inf"')
        radii = obj.get("annulus", ())
        if not (isinstance(radii, (list, tuple)) and len(radii) <= 2
                and all(type(r) in (int, float) and math.isfinite(r) for r in radii)
                and all(a <= b for a, b in zip((0, *radii), radii))):
            raise CycleError(f"annotation annulus {radii!r} is not [radius] or [r_in, r_out] "
                             "with 0 <= r_in <= r_out")
        return cls(obj["kind"], anchor, period, tuple(radii))

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
    if not (isinstance(items, list) and all(isinstance(it, dict) for it in items)):
        raise CycleError(f"annotations {items!r} are not a list of objects")
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


def _phi_terms(f: RationalMap, t, k, n):
    """Taylor coefficients of Phi = Y Z_n - X W_n for f^n about the raw
    value t (orders 0..k-1 on axis 0; t an array of finite values, or None
    for ∞), as its two terms (a, b), Phi = a - b, both divided by the same
    factor per point; n a step count or runs (``RationalMap.iterate_jets``).

    With (x : y) the iterate of (t + h : 1), or of (1 : h) at ∞, from
    ``RationalMap.local_jets`` (x/y in the chart of t), Phi = x - (t + h) y,
    or x - h y at ∞.
    """
    x, y = f.local_jets(t, k, n)
    var = np.zeros_like(y)  # the jet of t + h, or h at ∞
    var[0], var[1:2] = 0 if t is None else t, 1.0
    return x, _jet_mul(var, y)


def _phi_taylor(f: RationalMap, x, k, n):
    """t_0 .. t_k of Phi at one raw value x (or at ∞ once per run of n), up
    to a factor, and their zero levels."""
    a, b = _phi_terms(f, x, k + 1, n)
    size = np.maximum.accumulate(np.maximum(np.abs(a), np.abs(b)))
    return a - b, _ORDER_TOL * size


def _orders_at_infinity(f: RationalMap, max_period):
    """{p: order of Phi at infinity for f^p} for p = 1..max_period: 0 when
    f^p moves it, None when Phi vanishes identically.

    The open periods share one jet iteration at ∞ per doubling of the
    truncation, one run per period, each reading at most its d^p + 2
    coefficients; a coefficient does not depend on the truncation, so each
    order is the one its period finds alone."""
    orders = dict.fromkeys(range(1, max_period + 1))
    pending, k = list(orders), 2
    while pending:
        t, zero = _phi_taylor(f, None, k - 1, [(p, i) for i, p in enumerate(pending)])
        left = []
        for i, p in enumerate(pending):
            top = min(k, f.degree**p + 2)
            above = np.flatnonzero(np.abs(t[:top, i]) > zero[:top, i])
            if above.size:
                orders[p] = int(above[0])
            elif top < f.degree**p + 2:
                left.append(p)
        pending = left
        k = min(2 * k, max((f.degree**p + 2 for p in pending), default=k))
    return orders


def _preimages(num, den, v):
    """The d solutions w of num(w) = v den(w) for every target v, by batched Durand-Kerner."""
    d = len(num) - 1
    # non-finite preimages are replaced in ``_seeds``
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


def _seeds(f: RationalMap, counts):
    """Aberth starting points for the fixed points of f^p, counts[p] of them
    for each period p of counts (ascending), from the d^p preimages of one
    generic point at depth p; the levels of preimages are walked once.

    Preimages of a point equidistribute on the Julia set as the periodic
    points do, and the branch of f^-p along a repelling cycle contracts
    onto it, so most seeds start next to a zero of Phi.  Non-finite seeds
    (a preimage at infinity) go on a circle, the seeds closest to infinity
    are dropped when infinity is a multiple zero, a missing seed goes
    outside the rest, and a small fixed jitter separates coincident ones,
    from one generator per period.
    """
    num, den = f.padded
    level, seeds = np.array([_PULLBACK_TARGET], dtype=complex), []
    for p in range(1, max(counts) + 1):
        level = _preimages(num, den, level)
        if p not in counts:
            continue
        n, v, rng = counts[p], level.copy(), np.random.default_rng(12345)
        bad = ~np.isfinite(v)
        v[bad] = np.exp(2j * np.pi * rng.random(int(np.sum(bad))))
        v = v[np.argsort(np.abs(v), kind="stable")][:n]
        if v.size < n:
            far = 1.0 + np.max(np.abs(v), initial=1.0)
            v = np.concatenate([v, far * np.exp(2j * np.pi * rng.random(n - v.size))])
        seeds.append(v + 1e-6 * np.maximum(1.0, np.abs(v)) * np.exp(2j * np.pi * rng.random(n)))
    return seeds


def _fixed_points(f: RationalMap, max_period):
    """(levels, error): the fixed points of f^p for p = 1, 2, ... in order,
    each level (finite fixed points, their multiplicities, order m of
    infinity), up to max_period or to the first level that fails, whose
    ``CycleError`` is error (None when every level is solved).

    Every level's Aberth iteration runs in one ``kernel.aberth`` call, its
    Phi read for all levels by one jet iteration per sweep, one run per
    level; the residuals of all levels come from one more.
    """
    orders = _orders_at_infinity(f, max_period)
    periods = list(itertools.takewhile(lambda p: orders[p] is not None, orders))
    counts = {p: f.degree**p + 1 - orders[p] for p in periods}
    counts = {p: n for p, n in counts.items() if n}  # the levels with finite zeros
    iterates = {}
    if counts:
        found, _ = aberth(
            lambda x, runs: np.subtract(*_phi_terms(f, x, 2, list(zip(counts, runs)))),
            _seeds(f, counts))
        iterates = dict(zip(counts, found))
    roots, error = {}, None
    for p in periods:
        z = iterates.get(p, np.zeros(0, dtype=complex))
        if not np.all(np.isfinite(z)):
            error = CycleError(f"periodic-point iteration for f^{p} left the plane")
            break
        roots[p] = collapse_multiple_roots(z, lambda x, k: _phi_taylor(f, x, k, p))
    z = np.array([r for p in roots for r, _ in roots[p]], dtype=complex)
    ends = np.cumsum([0] + [len(roots[p]) for p in roots]).tolist()
    res = np.abs(np.subtract(*_phi_terms(f, z, 1, list(zip(roots, ends))))[0])
    bound = ALGEBRAIC_TOL * np.maximum(1.0, np.abs(z))
    levels = []
    for p, lo, hi in zip(roots, ends, ends[1:]):
        if not np.all(res[lo:hi] <= bound[lo:hi]):
            worst = float(np.max(res[lo:hi] / bound[lo:hi]))
            return levels, CycleError(
                f"periodic points of f^{p} did not converge: residual {worst:.3e} times the bound")
        z_p, mult = zip(*by_position(roots[p])) if roots[p] else ((), ())
        levels.append((np.array(z_p, dtype=complex), np.array(mult, dtype=int), orders[p]))
    if error is None and len(periods) < max_period:
        error = CycleError(f"f^{len(periods) + 1} is the identity; periodic points are not isolated")
    return levels, error


def _divisors(p):
    return [q for q in range(1, p) if p % q == 0]


def _near(zs, bs):
    """For each entry of the ``raw_array`` bs, the indices of the entries of
    the ``raw_array`` zs within SNAP_TOL of it, nearest first (ties by
    index), from ``ratmap.distance_matrix`` built in row blocks."""
    near = [[] for _ in range(bs.shape[1])]
    rows = max(1, _PAIR_BLOCK // max(bs.shape[1], 1))
    for s in range(0, zs.shape[1], rows):
        d = distance_matrix(zs[:, s : s + rows], bs)
        i, j = np.nonzero(d <= SNAP_TOL)
        for r, c, dist in zip((i + s).tolist(), j.tolist(), d[i, j].tolist()):
            near[c].append((dist, r))
    return [[r for _, r in sorted(hits)] for hits in near]


def _orbits(f: RationalMap, p, exact, zs, lam):
    """The cycles of exact period p through the raw values exact (their
    ``raw_array`` zs), whose multipliers are lam: an orbit goes from each
    point to the nearest unused one within SNAP_TOL of its image (``_near``
    of the images against the points, one matrix per level)."""
    images = [f.step(v) for v in exact]
    near = _near(zs, raw_array(images)) if p > 1 else None  # a fixed point needs no match
    used = [False] * len(exact)
    cycles = []
    for i, start in enumerate(exact):
        if used[i]:
            continue
        used[i] = True
        orbit = [i]
        for _ in range(p - 1):
            k = orbit[-1]
            j = next((j for j in near[k] if not used[j]), None)
            if j is None:
                d = distance_matrix(zs, raw_array([images[k]]))[:, 0]
                d[used] = np.inf
                raise CycleError(
                    f"orbit of {SpherePoint(exact[k])!r} does not close: f maps it "
                    f"{np.min(d):.3g} from the nearest unused period-{p} point"
                )
            used[j] = True
            orbit.append(j)
        gap = distance(images[orbit[-1]], start)
        if gap > SNAP_TOL:
            raise CycleError(
                f"orbit of {SpherePoint(start)!r} does not close: f^{p} moves it {gap:.3g}"
            )
        points = [SpherePoint(exact[j]) for j in orbit]
        cycles.append(Cycle(points=points, period=p, multiplier=complex(lam[i])))
    return cycles


def find_cycles(f: RationalMap, max_period):
    """All cycles of exact period <= max_period, sorted deterministically."""
    if max_period < 1:
        raise CycleError(f"max_period must be >= 1, got {max_period}")
    if f.degree**max_period + 1 > DEGREE_BUDGET:
        raise CycleError(
            f"degree budget exceeded: {f.degree}^{max_period} + 1 > {DEGREE_BUDGET}"
        )
    levels, error = _fixed_points(f, max_period)
    values, zs, new = [], [], []  # per level: the fixed points, their raw_array, the exact ones
    for p, (z, _, m_inf) in enumerate(levels, 1):
        values.append([complex(zi) for zi in z] + ([None] if m_inf else []))
        zs.append(raw_array(values[-1]))
        # a point of exact period p is none of the fixed points of f^q, q | p
        old = [zs[q - 1] for q in _divisors(p)]
        seen = np.zeros(len(values[-1]), dtype=bool)
        if old:
            seen = np.any(distance_matrix(zs[-1], np.hstack(old)) <= SNAP_TOL, axis=1)
        new.append(~seen)
    # (f^p)' at each new finite point, in its local coordinate: one jet
    # iteration for every level, one run per level
    finite = [z[new[p - 1][: len(z)]] for p, (z, _, _) in enumerate(levels, 1)]
    ends = np.cumsum([0] + [len(z) for z in finite]).tolist()
    lam = f.multiplier(np.concatenate([np.zeros(0, dtype=complex)] + finite),
                       list(enumerate(ends[:-1], 1)))
    cycles = []
    for p, (lo, hi) in enumerate(zip(ends, ends[1:]), 1):
        # ∞ is new at one level only, its exact period
        at_inf = [f.multiplier(None, p)] if levels[p - 1][2] and new[p - 1][-1] else []
        lam_p = np.concatenate([lam[lo:hi], at_inf])
        if not np.all(np.isfinite(lam_p)):
            raise CycleError(f"a multiplier of f^{p} is not finite")
        exact = [v for v, ok in zip(values[p - 1], new[p - 1]) if ok]
        cycles += _orbits(f, p, exact, zs[p - 1][:, new[p - 1]], lam_p)
    if error is not None:
        raise error
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
