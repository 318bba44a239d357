"""Critical-orbit tracking: tails, tame/wild classification, divisor bookkeeping.

Each critical point is iterated within a budget and matched against a
battery of detectors, in order:

1. exact landing: the orbit revisits an earlier point (within snap
   tolerance), so the forward orbit is a finite set -> Bounded;
2. petal convergence: the normalized local coordinate at a parabolic
   cycle stays in an attracting sector with decreasing modulus for a
   dwell of consecutive returns -> Tame (parabolic attraction is
   polynomial-rate, so this runs before the geometric detector);
3. geometric convergence: distance to an attracting or superattracting
   cycle decreases for 20 consecutive iterations and ends below 1e-6
   -> Tame;
4. region dwell: the orbit stays inside an annotated invariant disc or
   annulus (Siegel / Herman data) for 1000 consecutive iterations ->
   Tame targeting that region.

Anything else is Wild — a negative determination ("not found to be tame
within budget"), reported with the budget and closing orbit statistics.

The orbit is stepped in blocks of iterates and each detector scans a
whole block at once, its run counters carried from block to block.  A
block is one ``ratmap.raw_array``: the snap keys, the local coordinates
of the petal and region detectors and the distances of the geometric one
are ``ratmap``'s array rules on it, which round as the scalar ones.  The
earliest iterate at which any detector fires decides; on a tie the order
above decides (landing, petal, geometric in cycle order, region dwell in
region order), so the result is the one-iterate-at-a-time loop's
whatever the block size.  A ``MapError`` raised by a step past that
iterate is dropped: the one-at-a-time loop never takes that step.

Tails (classes of critical points with eventually-identical orbits) are
merged via snapped forward-orbit intersection: each orbit's snap keys
are a sorted int64 array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycles import (
    CLASS_ATTRACTING,
    CLASS_SUPER,
    CLASS_SIEGEL,
    PARABOLIC_CLASSES,
)
from .parabolic import petal_sector
from .ratmap import (
    MapError,
    RamificationDivisor,
    RationalMap,
    SpherePoint,
    _as_point,
    chart_coords,
    distances,
    local_coord,
    local_coords,
    moduli,
    raw_array,
    snap_keys,
)

DEFAULT_BUDGET = 100_000
GEOMETRIC_RUN = 20
GEOMETRIC_FINAL = 1e-6
PETAL_RUN = 50
DWELL_RUN = 1000
_BLOCK_FIRST = 64  # iterates in the first block; each next block doubles,
_BLOCK_MAX = 8192  # up to this many

KIND_BOUNDED = "Bounded"
KIND_TAME = "Tame"
KIND_WILD = "Wild"


@dataclass
class Region:
    """An annotated invariant region: a closed disc or annulus about center."""

    id: str
    kind: str  # "SD" or "HR"
    center: SpherePoint = None
    r_in: float = 0.0
    r_out: float = 0.0

    def contains(self, z):
        """Whether the raw value z (complex, or None for ∞) lies in the region."""
        return bool(self.contains_each(raw_array([z]))[0])

    def contains_each(self, zs):
        """``contains`` over a ``raw_array``: the modulus of the local
        coordinate about the center (|1/z| when the center is ∞) lies in
        [r_in, r_out], up to 1e-12."""
        c = 0j if self.center is None else self.center.value
        r = moduli(local_coords(zs, c))
        return (self.r_in - 1e-12 <= r) & (r <= self.r_out + 1e-12)


@dataclass
class Tail:
    id: int
    members: list  # (SpherePoint, multiplicity)
    classification: str  # Bounded | Tame | Wild
    target: str = ""  # cycle index "C<i>" or region id, for Tame
    confidence: str = "high"
    budget_used: int = 0
    final_stats: dict = field(default_factory=dict)
    # snap keys of the members' orbits, sorted int64
    orbit_keys: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def multiplicity(self):
        return sum(m for _, m in self.members)

    def to_json(self):
        return {
            "id": self.id,
            "members": [
                {"point": pt.to_json(), "multiplicity": m} for pt, m in self.members
            ],
            "classification": self.classification,
            "target": self.target,
            "confidence": self.confidence,
            "budget_used": self.budget_used,
            "final_stats": self.final_stats,
        }


@dataclass
class RamSplit:
    ram_b: RamificationDivisor
    ram_t: RamificationDivisor
    ram_w: RamificationDivisor
    tame_by_target: dict  # target id -> RamificationDivisor

    def to_json(self):
        return {
            "ram_b": self.ram_b.to_json(),
            "ram_t": self.ram_t.to_json(),
            "ram_w": self.ram_w.to_json(),
            "tame_by_target": {k: v.to_json() for k, v in self.tame_by_target.items()},
        }


def regions_from_annotations(cycles, annotations):
    """Invariant regions (discs/annuli) derivable from the annotations."""
    regions = []
    for i, ann in enumerate(annotations):
        if ann.kind == "HermanRing" and len(ann.annulus) == 2:
            regions.append(
                Region(
                    id=f"HR{i}",
                    kind="HR",
                    center=SpherePoint(0.0),
                    r_in=float(ann.annulus[0]),
                    r_out=float(ann.annulus[1]),
                )
            )
        elif ann.kind == "RotationNumberBrjuno" and len(ann.annulus) == 1:
            # optional closed-disc radius around the annotated Siegel cycle point
            center = _siegel_point(cycles, ann)
            if center is not None:
                regions.append(
                    Region(
                        id=f"SD{i}",
                        kind="SD",
                        center=center,
                        r_in=0.0,
                        r_out=float(ann.annulus[0]),
                    )
                )
    return regions


def _siegel_point(cycles, ann):
    """The point of a Siegel cycle that ann names: the matching point, the
    first point of the indexed cycle, or of the first Siegel cycle when the
    annotation is unanchored; None when no Siegel cycle fits."""
    for i, c in enumerate(cycles):
        if c.cls != CLASS_SIEGEL:
            continue
        if ann.cycle is None or (isinstance(ann.cycle, int) and ann.cycle == i):
            return c.points[0]
        for pt in c.points:
            if ann.matches_point(pt):
                return pt
    return None


def _runs(flags, carry):
    """Length of the run of True ending at each index of flags; a run open
    at index 0 continues the carried length."""
    idx = np.arange(len(flags))
    last_false = np.maximum.accumulate(np.where(flags, -1, idx))
    return np.where(last_false < 0, carry + idx + 1, idx - last_false)


def _insert(keys, slots, new):
    """keys with the entries of new inserted before the given slots
    (their ``np.searchsorted`` positions in keys; new sorted)."""
    slots = slots + np.arange(len(new))
    old = np.ones(len(keys) + len(new), dtype=bool)
    old[slots] = False
    out = np.empty(len(old), dtype=keys.dtype)
    out[slots], out[old] = new, keys
    return out


def _find(keys, new):
    """(slots, found): the ``np.searchsorted`` positions of new in the
    sorted keys, and whether keys holds each entry of new there.

    The key sets use these and ``_insert``, not ``np.intersect1d`` and
    ``np.union1d``, which page in about 0.8 MB more of numpy on first use."""
    slots = np.searchsorted(keys, new)
    if not len(keys):
        return slots, np.zeros(len(new), dtype=bool)
    return slots, keys[np.minimum(slots, len(keys) - 1)] == new


def _shared_union(a, b):
    """Sorted union of the sorted key arrays a and b if they share a key, else None."""
    slots, found = _find(a, b)
    if not found.any():
        return None
    return _insert(a, slots[~found], b[~found])


class _OrbitTracker:
    """Block state machine applying the detector battery along one orbit.

    The orbit runs on raw values (complex, or None for ∞) through
    ``RationalMap.step``, a block at a time (``_BLOCK_FIRST`` iterates,
    doubling up to ``_BLOCK_MAX``); the detectors scan each block as
    arrays, carrying their run counters from block to block.  A
    SpherePoint is built only at the exits.
    """

    def __init__(self, f, cycles, regions, budget):
        self.f = f
        self.cycles = cycles
        self.regions = regions
        self.budget = budget
        self.petals = [
            (i, c.parabolic, c.parabolic.z0.value)
            for i, c in enumerate(cycles)
            if c.cls in PARABOLIC_CLASSES and c.parabolic is not None
        ]
        self.sinks = [
            (i, [q.value for q in c.points])
            for i, c in enumerate(cycles)
            if c.cls in (CLASS_ATTRACTING, CLASS_SUPER)
        ]

    def run(self, start: SpherePoint):
        """Classify the orbit of start; "keys" holds its snap keys, sorted."""
        step = self.f.step
        keys = steps = np.empty(0, dtype=np.int64)  # seen snap keys (sorted), first steps
        petal = [(0, np.inf)] * len(self.petals)  # run, previous |x|
        geo = [(0, np.inf)] * len(self.sinks)  # run, previous distance
        dwell = [0] * len(self.regions)
        z, base, size = start.value, 0, _BLOCK_FIRST
        while base <= self.budget:
            block, error = [z] if base == 0 else [], None
            try:
                for _ in range(min(size, self.budget + 1 - base) - len(block)):
                    z = step(z)
                    block.append(z)
            except MapError as exc:
                error = exc
            if not block:
                raise error
            zs = raw_array(block)
            fired = []  # (block index, kind, target, stats), in precedence order

            # exact landing: first revisit of a snap key, earlier block or this one
            bkeys = snap_keys(zs)
            uniq, first, inverse = np.unique(bkeys, return_index=True, return_inverse=True)
            slots, seen = _find(keys, uniq)
            prev = base + first  # step of each key's first visit
            prev[seen] = steps[slots[seen]]
            prev = prev[inverse]
            hit = np.flatnonzero(prev < base + np.arange(len(block)))
            if hit.size:
                k = int(hit[0])
                fired.append((k, KIND_BOUNDED, self._landing_cycle(block[k]),
                              {"preperiod": int(prev[k]), "loop": base + k - int(prev[k])}))
            # parabolic petal detector: a scalar pass over the iterates near z0
            for j, (i, inv, z0) in enumerate(self.petals):
                run, prev_ax = petal[j]
                for k in np.flatnonzero(moduli(local_coords(zs, z0)) < 0.4):
                    x = inv.normal_series(local_coord(block[k], z0))
                    ax = abs(x)
                    ok = 0 < ax < prev_ax and petal_sector(x, inv.e_loc) is not None
                    run, prev_ax = (run + 1, ax) if ok else (0, np.inf)
                    if run >= PETAL_RUN:
                        fired.append((int(k), KIND_TAME, f"C{i}", {"|x|": ax}))
                        break
                petal[j] = run, prev_ax
            # geometric convergence detector
            for j, (i, points) in enumerate(self.sinks):
                dist = distances(zs, points[0])
                for q in points[1:]:
                    dq = distances(zs, q)
                    dist = np.where(dq < dist, dq, dist)
                run = _runs(dist < np.append(geo[j][1], dist[:-1]), geo[j][0])
                hit = np.flatnonzero((run >= GEOMETRIC_RUN) & (dist < GEOMETRIC_FINAL))
                if hit.size:
                    k = int(hit[0])
                    fired.append((k, KIND_TAME, f"C{i}", {"distance": float(dist[k])}))
                geo[j] = int(run[-1]), dist[-1]
            # annotated-region dwell detector
            for j, r in enumerate(self.regions):
                run = _runs(r.contains_each(zs), dwell[j])
                hit = np.flatnonzero(run >= DWELL_RUN)
                if hit.size:
                    fired.append((int(hit[0]), KIND_TAME, r.id, {"dwell": DWELL_RUN}))
                dwell[j] = int(run[-1])

            # the earliest step decides; min keeps the first of equal steps
            decided = min(fired, key=lambda e: e[0]) if fired else None
            k = decided[0] if decided else len(block) - 1
            new = ~seen & (first <= k)  # keys first met at steps up to k
            keys = _insert(keys, slots[new], uniq[new])
            if decided:
                _, kind, target, stats = decided
                return {"kind": kind, "target": target, "steps": base + k,
                        "keys": keys, "stats": stats}
            if error is not None:
                raise error
            steps = _insert(steps, slots, base + first)
            base += len(block)
            size = min(2 * size, _BLOCK_MAX)
        chart, coord = chart_coords(z)
        return {"kind": KIND_WILD, "target": "", "steps": self.budget, "keys": keys,
                "stats": {"budget": self.budget, "last_chart": chart,
                          "last_point": [coord.real, coord.imag]}}

    def _landing_cycle(self, z):
        pt = SpherePoint(z)
        for i, c in enumerate(self.cycles):
            if c.contains(pt):
                return f"C{i}"
        return ""


def classify_tails(f: RationalMap, cycles, annotations=(), budget=DEFAULT_BUDGET):
    """(tails, RamSplit): classify each critical orbit and merge tails."""
    ram = f.critical_divisor()
    regions = regions_from_annotations(cycles, annotations)
    tracker = _OrbitTracker(f, cycles, regions, budget)
    raw = []
    for pt, mult in ram.entries:
        res = tracker.run(pt)
        raw.append((pt, mult, res))
    # merge into tails by forward-orbit intersection (snapped key overlap)
    tails = []
    for i, (pt, mult, res) in enumerate(raw):
        placed = False
        for t in tails:
            union = None
            if res["kind"] == t.classification and res["target"] == t.target:
                union = _shared_union(t.orbit_keys, res["keys"])
            if union is not None:
                t.members.append((pt, mult))
                t.orbit_keys = union
                placed = True
                break
        if not placed:
            tails.append(
                Tail(
                    id=len(tails),
                    members=[(pt, mult)],
                    classification=res["kind"],
                    target=res["target"],
                    confidence="low" if res["kind"] == KIND_WILD else "high",
                    budget_used=res["steps"],
                    final_stats=res["stats"],
                    orbit_keys=res["keys"],
                )
            )
    split = _build_split(ram, tails)
    return tails, split


def _build_split(ram: RamificationDivisor, tails):
    b_entries, t_entries, w_entries = [], [], []
    by_target = {}
    for t in tails:
        for pt, m in t.members:
            if t.classification == KIND_BOUNDED:
                b_entries.append((pt, m))
            elif t.classification == KIND_TAME:
                t_entries.append((pt, m))
                by_target.setdefault(t.target, []).append((pt, m))
            else:
                w_entries.append((pt, m))
    return RamSplit(
        ram_b=RamificationDivisor(b_entries, label="Ram_b"),
        ram_t=RamificationDivisor(t_entries, label="Ram_t"),
        ram_w=RamificationDivisor(w_entries, label="Ram_w"),
        tame_by_target={k: RamificationDivisor(v, label=f"Ram_t[{k}]")
                        for k, v in by_target.items()},
    )


def epsilon_marks(split: RamSplit, regions):
    """Per SD/HR region: 1 iff some tame ramification targets it."""
    out = {}
    for r in regions:
        div = split.tame_by_target.get(r.id)
        out[r.id] = 1 if div is not None and div.total > 0 else 0
    return out


def delta_marks(cycles, split: RamSplit):
    """Per parabolic cycle: 1 iff Re(nu) <= 0 and the tame ramification
    attracted to the cycle (with multiplicity) equals the petal-orbit count.

    The petal-orbit count is e_loc / r: the first return has e_loc petals
    which the cycle itself permutes in orbits of length r.
    """
    out = {}
    for i, c in enumerate(cycles):
        if c.cls not in PARABOLIC_CLASSES or c.parabolic is None:
            continue
        div = split.tame_by_target.get(f"C{i}")
        tame_mult = div.total if div is not None else 0
        e_cycle = c.parabolic.e_loc // c.parabolic.r
        out[f"C{i}"] = 1 if (c.parabolic.nu.real <= 0 and tame_mult == e_cycle) else 0
    return out


def orbit_transcript_rows(f: RationalMap, z0, n):
    """CSV rows (iterate, re, im, chart) of the orbit of z0."""
    rows = []
    z = _as_point(z0).value
    for k in range(n + 1):
        if k:
            z = f.step(z)
        chart, c = chart_coords(z)
        rows.append((k, c.real, c.imag, chart))
    return rows
