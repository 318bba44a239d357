"""Critical-orbit tracking: tails, tame/wild classification, divisor bookkeeping.

Each critical point is iterated within a budget and matched against a
battery of detectors, in order:

1. landing: the orbit revisits an earlier snap cell at step prev, loop
   steps later.  Its target is the cycle with a point within ``SNAP_TOL``
   of the iterate; failing that, the cycle of the nearest cycle point if
   that cycle attracts with multiplier λ, the point lies within
   √2·SNAP_TOL/(1 − |λ|) (two returns one cell apart, contracted by |λ|:
   Koenigs linearization, Milnor §8) and the period divides loop.  Tame
   when the target attracts and prev > 0, else Bounded;
2. petal convergence: PETAL_RUN near returns (|u| < NORMAL_RADIUS about a
   parabolic cycle point) in a row, each with x = normal_series(u) in an
   attracting sector and 0 < |x| below the |x| of the near return before
   it -> Tame (parabolic attraction is polynomial-rate, far slower than a
   landing);
3. region dwell: the orbit stays inside an annotated invariant disc or
   annulus (Siegel / Herman data) for 1000 consecutive iterations ->
   Tame targeting that region.

Anything else is Wild — a negative determination ("not found to be tame
within budget"), reported with the budget and closing orbit statistics.

The orbit is stepped in blocks of iterates, one call of the map's orbit
kernel (``RationalMap.iterate``) per block, and each detector scans a
whole block at once, its run counters carried from block to block.  A
block is one ``ratmap.raw_array``: the snap keys and the local
coordinates of the petal and region detectors are ``ratmap``'s array
rules on it, which round as the scalar ones.  The earliest iterate at
which any detector fires decides; on a tie the order above decides
(landing, petal, region dwell in region order), so the result is the
one-iterate-at-a-time loop's whatever the block size.  A ``MapError``
raised by a step past that iterate is dropped: the one-at-a-time loop
never takes that step.

The landing detector sorts each block's snap keys once and merges them
with the orbit's sorted key set; two equal adjacent keys in the merge
show a key met twice.  A clean block, with no key twice and none met in
an earlier block (every block of a Wild orbit is clean), keeps the merge
as the key set.  The exact first-revisit search runs only in the block
where the orbit lands, and takes the step of the earlier visit from the
kept per-block keys.

Tails (classes of critical points with eventually-identical orbits) are
merged via snapped forward-orbit intersection: each orbit's snap keys
are a sorted int64 array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycles import (
    CLASS_ATTRACTING,
    CLASS_PARABOLIC_ATTR,
    CLASS_SUPER,
    CLASS_SIEGEL,
    PARABOLIC_CLASSES,
)
from .parabolic import NORMAL_RADIUS
from .ratmap import (
    MapError,
    RamificationDivisor,
    RationalMap,
    SpherePoint,
    _as_point,
    SNAP_TOL,
    chart_coords,
    distance,
    local_coords,
    moduli,
    raw_array,
    snap_keys,
)

DEFAULT_BUDGET = 100_000
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
    """The point of the first Siegel cycle that ann names
    (``Annotation.names``), or None when no Siegel cycle fits."""
    for i, c in enumerate(cycles):
        if c.cls == CLASS_SIEGEL:
            pt = ann.names(i, c)
            if pt is not None:
                return pt
    return None


def _runs(flags, carry):
    """Length of the run of True ending at each index of flags; a run open
    at index 0 continues the carried length."""
    idx = np.arange(len(flags))
    last_false = np.maximum.accumulate(np.where(flags, -1, idx))
    return np.where(last_false < 0, carry + idx + 1, idx - last_false)


def _merge(keys, new):
    """The sorted key arrays keys and new merged into one sorted array.

    One stable sort of the concatenation merges the two sorted runs in
    linear time.  The key sets use this, not ``np.intersect1d`` and
    ``np.union1d``, which page in about 0.8 MB more of numpy on first use
    (a plain ``np.unique``, hashed in numpy 2, pages in about 1.2 MB)."""
    merged = np.concatenate((keys, new))
    merged.sort(kind="stable")
    return merged


def _repeats(merged):
    """Whether each entry of a ``_merge`` result after the first equals the one before."""
    return merged[1:] == merged[:-1]


def _distinct(merged, repeat):
    """A ``_merge`` result with each entry that repeats the one before dropped."""
    return merged[np.concatenate(([True], ~repeat))]


def _first_revisit(bkeys, keys, past, base):
    """(k, step of the earlier visit) of the first iterate k of a block whose
    snap key was met before, in the block or in an earlier one.

    The earlier blocks were clean (the first revisit ends the orbit), so
    their keys, concatenated in step order, hold each key once and
    ``keys`` is their sorted set."""
    uniq, first, inverse = np.unique(bkeys, return_index=True, return_inverse=True)
    seen = np.zeros(len(uniq), dtype=bool)
    if len(keys):
        seen = keys[np.minimum(np.searchsorted(keys, uniq), len(keys) - 1)] == uniq
    revisit = seen[inverse] | (first[inverse] < np.arange(len(bkeys)))
    k = int(np.flatnonzero(revisit)[0])
    if seen[inverse[k]]:
        return k, int(np.flatnonzero(np.concatenate(past) == bkeys[k])[0])
    return k, base + int(first[inverse[k]])


def _shared_union(a, b):
    """Sorted union of the sorted key arrays a and b if they share a key, else None."""
    merged = _merge(a, b)
    repeat = _repeats(merged)
    return _distinct(merged, repeat) if repeat.any() else None


class _OrbitTracker:
    """Block state machine applying the detector battery along one orbit.

    The orbit runs on raw values (complex, or None for ∞) through
    ``RationalMap.iterate``, a block at a time (``_BLOCK_FIRST`` iterates,
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

    def run(self, start: SpherePoint):
        """Classify the orbit of start; "keys" holds its snap keys, sorted."""
        iterate = self.f.iterate
        keys = np.empty(0, dtype=np.int64)  # seen snap keys, sorted
        past = []  # snap keys of the earlier blocks, in step order
        petal = [(0, np.inf)] * len(self.petals)  # run, |x| of the last near return
        dwell = [0] * len(self.regions)
        z, base, size = start.value, 0, _BLOCK_FIRST
        while base <= self.budget:
            block, error = [z] if base == 0 else [], None
            try:
                iterate(z, min(size, self.budget + 1 - base) - len(block), block)
            except MapError as exc:
                error = exc
            if not block:
                raise error
            z = block[-1]
            zs = raw_array(block)
            fired = []  # (block index, kind, target, stats), in precedence order

            # exact landing: first revisit of a snap key, earlier block or this one
            bkeys = snap_keys(zs)
            merged = _merge(keys, np.sort(bkeys))
            # the mask is dropped at once: kept through the detectors below, it
            # raised the pipeline's peak RSS by about 2 MB (heap fragmentation)
            if _repeats(merged).any():
                k, prev = _first_revisit(bkeys, keys, past, base)
                loop = base + k - prev
                fired.append((k, *self._landing(block[k], prev, loop),
                              {"preperiod": prev, "loop": loop}))
            # parabolic petal detector over the near returns (|u| < NORMAL_RADIUS)
            for j, (i, inv, z0) in enumerate(self.petals):
                u = local_coords(zs, z0)
                near = np.flatnonzero(moduli(u) < NORMAL_RADIUS)
                if near.size:
                    x = inv.normal_series(u[near])
                    ax = moduli(x)
                    shrinks = (0 < ax) & (ax < np.concatenate(([petal[j][1]], ax[:-1])))
                    run = _runs(shrinks & (inv.sectors(x) >= 0), petal[j][0])
                    hit = np.flatnonzero(run >= PETAL_RUN)
                    if hit.size:
                        k = hit[0]
                        fired.append((int(near[k]), KIND_TAME, f"C{i}", {"|x|": float(ax[k])}))
                    petal[j] = int(run[-1]), float(ax[-1])
            # annotated-region dwell detector
            for j, r in enumerate(self.regions):
                run = _runs(r.contains_each(zs), dwell[j])
                hit = np.flatnonzero(run >= DWELL_RUN)
                if hit.size:
                    fired.append((int(hit[0]), KIND_TAME, r.id, {"dwell": DWELL_RUN}))
                dwell[j] = int(run[-1])

            # the earliest step decides; min keeps the first of equal steps
            if fired:
                k, kind, target, stats = min(fired, key=lambda e: e[0])
                merged = _merge(keys, np.sort(bkeys[: k + 1]))
                keys = _distinct(merged, _repeats(merged))
                return {"kind": kind, "target": target, "steps": base + k,
                        "keys": keys, "stats": stats}
            if error is not None:
                raise error
            keys = merged
            past.append(bkeys)
            base += len(block)
            size = min(2 * size, _BLOCK_MAX)
        chart, coord = chart_coords(z)
        return {"kind": KIND_WILD, "target": "", "steps": self.budget, "keys": keys,
                "stats": {"budget": self.budget, "last_chart": chart,
                          "last_point": [coord.real, coord.imag]}}

    def _landing(self, z, prev, loop):
        """(kind, target) of an orbit whose iterate z revisits the snap cell
        of step prev after loop steps: the landing rule of the module
        docstring."""
        sinks = (CLASS_ATTRACTING, CLASS_SUPER)
        dist = [min(distance(z, q.value) for q in c.points) for c in self.cycles]
        i = next((i for i, d in enumerate(dist) if d <= SNAP_TOL), None)
        if i is None and dist:
            j = int(np.argmin(dist))
            c = self.cycles[j]
            if (c.cls in sinks and loop % c.period == 0
                    and dist[j] <= 2**0.5 * SNAP_TOL / (1 - abs(c.multiplier))):
                i = j
        if i is None:
            return KIND_BOUNDED, ""
        tame = self.cycles[i].cls in sinks and prev > 0
        return (KIND_TAME if tame else KIND_BOUNDED), f"C{i}"


def classify_tails(f: RationalMap, cycles, annotations=(), budget=DEFAULT_BUDGET):
    """(tails, RamSplit): classify each critical orbit and merge tails."""
    if budget < 0:
        raise ValueError(f"orbit budget must be >= 0, got {budget}")
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
    """Per parabolic cycle: 1 iff it is ParabolicAttracting and the tame
    ramification attracted to the cycle (with multiplicity) equals the petal-orbit count.

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
        out[f"C{i}"] = 1 if (c.cls == CLASS_PARABOLIC_ATTR and tame_mult == e_cycle) else 0
    return out


def orbit_transcript_rows(f: RationalMap, z0, n):
    """CSV rows (iterate, re, im, chart) of the orbit of z0, n >= 0 steps long."""
    if n < 0:
        raise ValueError(f"orbit length must be >= 0, got {n}")
    zs = [_as_point(z0).value]
    f.iterate(zs[0], n, zs)
    rows = []
    for k, z in enumerate(zs):
        chart, c = chart_coords(z)
        rows.append((k, c.real, c.imag, chart))
    return rows
