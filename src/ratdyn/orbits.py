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
Tails (classes of critical points with eventually-identical orbits) are
merged via snapped forward-orbit intersection.
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
    RamificationDivisor,
    RationalMap,
    SpherePoint,
    _as_point,
    chart_coords,
    distance,
    local_coord,
    snap_key,
)

DEFAULT_BUDGET = 100_000
GEOMETRIC_RUN = 20
GEOMETRIC_FINAL = 1e-6
PETAL_RUN = 50
DWELL_RUN = 1000

KIND_BOUNDED = "Bounded"
KIND_TAME = "Tame"
KIND_WILD = "Wild"


@dataclass
class Region:
    """An annotated invariant region: a closed disc or annulus."""

    id: str
    kind: str  # "SD" or "HR"
    center: SpherePoint = None
    r_in: float = 0.0
    r_out: float = 0.0

    def contains(self, z):
        """Whether the raw value z (complex, or None for ∞) lies in the region."""
        if z is None:
            return False
        c = 0j if self.center is None or self.center.is_infinity else self.center.value
        return self.r_in - 1e-12 <= abs(z - c) <= self.r_out + 1e-12


@dataclass
class Tail:
    id: int
    members: list  # (SpherePoint, multiplicity)
    classification: str  # Bounded | Tame | Wild
    target: str = ""  # cycle index "C<i>" or region id, for Tame
    confidence: str = "high"
    budget_used: int = 0
    final_stats: dict = field(default_factory=dict)
    orbit_keys: set = field(default_factory=set)  # snapped orbit points (set-like)

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
            # optional closed-disc radius around the annotated Siegel cycle
            center = None
            for j, c in enumerate(cycles):
                if c.cls == CLASS_SIEGEL:
                    center = c.points[0]
                    break
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


class _OrbitTracker:
    """State machine applying the detector battery along one orbit.

    The orbit runs on raw values (complex, or None for ∞) through
    ``RationalMap.step``; a SpherePoint is built only at the exits.
    """

    def __init__(self, f, cycles, regions, budget):
        self.f = f
        self.cycles = cycles
        self.regions = regions
        self.budget = budget
        self.petals = [
            (i, c.parabolic, chart_coords(c.parabolic.z0.value))
            for i, c in enumerate(cycles)
            if c.cls in PARABOLIC_CLASSES and c.parabolic is not None
        ]
        self.sinks = [
            (i, [q.value for q in c.points])
            for i, c in enumerate(cycles)
            if c.cls in (CLASS_ATTRACTING, CLASS_SUPER)
        ]

    def run(self, start: SpherePoint):
        """Classify the orbit of start; "keys" holds its snapped points."""
        step = self.f.step
        seen = {}

        def result(kind, target, steps, stats):
            return {"kind": kind, "target": target, "steps": steps,
                    "keys": seen.keys(), "stats": stats}

        geo_run = {i: 0 for i, _ in self.sinks}
        geo_prev = {i: np.inf for i, _ in self.sinks}
        petal_run = {}
        petal_prev = {}
        dwell_run = {r.id: 0 for r in self.regions}
        z = start.value
        for n in range(self.budget + 1):
            if n:
                z = step(z)
            key = snap_key(z)
            prev = seen.get(key)
            if prev is not None:
                return result(KIND_BOUNDED, self._landing_cycle(z), n,
                              {"preperiod": prev, "loop": n - prev})
            seen[key] = n
            # parabolic petal detector
            for i, inv, (c0, t0) in self.petals:
                u = local_coord(z, c0, t0)
                if u is not None and abs(u) < 0.4:
                    x = inv.normal_series(u)
                    ax = abs(x)
                    ok = 0 < ax < abs(petal_prev.get(i, np.inf)) and (
                        petal_sector(x, inv.e_loc, 1.02) is not None
                    )
                    petal_run[i] = petal_run.get(i, 0) + 1 if ok else 0
                    petal_prev[i] = ax if ok else np.inf
                    if petal_run[i] >= PETAL_RUN:
                        return result(KIND_TAME, f"C{i}", n, {"|x|": ax})
            # geometric convergence detector
            for i, points in self.sinks:
                dist = min([distance(z, q) for q in points])
                if dist < geo_prev[i]:
                    geo_run[i] += 1
                else:
                    geo_run[i] = 0
                geo_prev[i] = dist
                if geo_run[i] >= GEOMETRIC_RUN and dist < GEOMETRIC_FINAL:
                    return result(KIND_TAME, f"C{i}", n, {"distance": dist})
            # annotated-region dwell detector
            for r in self.regions:
                if r.contains(z):
                    dwell_run[r.id] += 1
                    if dwell_run[r.id] >= DWELL_RUN:
                        return result(KIND_TAME, r.id, n, {"dwell": dwell_run[r.id]})
                else:
                    dwell_run[r.id] = 0
        chart, coord = chart_coords(z)
        return result(KIND_WILD, "", self.budget, {
            "budget": self.budget,
            "last_chart": chart,
            "last_point": [coord.real, coord.imag],
        })

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
            if (res["kind"] == t.classification and res["target"] == t.target
                    and not t.orbit_keys.isdisjoint(res["keys"])):
                t.members.append((pt, mult))
                t.orbit_keys |= res["keys"]
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
    mk = lambda es, lbl: RamificationDivisor(es, label=lbl) if es else RamificationDivisor([], label=lbl)
    return RamSplit(
        ram_b=mk(b_entries, "Ram_b"),
        ram_t=mk(t_entries, "Ram_t"),
        ram_w=mk(w_entries, "Ram_w"),
        tame_by_target={k: mk(v, f"Ram_t[{k}]") for k, v in by_target.items()},
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
