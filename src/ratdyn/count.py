"""Audit of the Fatou-Shishikura-type counting inequalities.

Two inequalities are assembled from the cycle, petal, and tail reports and
checked as pure integer comparisons:

* v-count:  2 #(HR) + #(SD) + #(CR) + delta  <=  sum(eps over SD u HR) + #(wild tails)
* I-count:  #(SD) + #(CR) + 2 #(HR)  <=  min(#(wild ram points), sum(eps over HR) + #(wild tails))

A violation is a red flag on the pipeline (a misclassification upstream),
not a mathematical discovery; the report therefore carries every raw term
so a reader can re-derive both sides, plus caveats for the judgement calls
(unresolved indifferent cycles, low-confidence wild tails, Lattes maps).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .cycles import (
    CLASS_ATTRACTING,
    CLASS_CREMER,
    CLASS_SIEGEL,
    CLASS_SUPER,
    CLASS_UNRESOLVED,
    PARABOLIC_CLASSES,
)
from .orbits import KIND_WILD
from .ratmap import RationalMap


class CountError(ValueError):
    pass


@dataclass
class CountReport:
    n_SD: int = 0
    n_CR: int = 0
    n_HR: int = 0
    n_parabolic: int = 0
    n_attracting: int = 0
    n_super: int = 0
    e_by_parabolic: dict = field(default_factory=dict)
    delta: int = 0
    epsilons: dict = field(default_factory=dict)
    wild_tails: int = 0
    wild_ram_points: int = 0
    lhs_v: int = 0
    rhs_v: int = 0
    lhs_i: int = 0
    rhs_i: int = 0
    satisfied_v: bool = True
    satisfied_i: bool = True
    caveats: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)

    def table(self):
        """Human-readable two-column summary."""
        rows = [
            ("Siegel cycles (SD)", self.n_SD),
            ("Cremer cycles (CR)", self.n_CR),
            ("Herman rings (HR)", self.n_HR),
            ("parabolic cycles", self.n_parabolic),
            ("attracting cycles", self.n_attracting),
            ("superattracting cycles", self.n_super),
            ("delta (sum)", self.delta),
            ("wild tails", self.wild_tails),
            ("wild ram points", self.wild_ram_points),
            ("v-count", f"{self.lhs_v} <= {self.rhs_v}"
             + ("  OK" if self.satisfied_v else "  VIOLATED")),
            ("I-count", f"{self.lhs_i} <= {self.rhs_i}"
             + ("  OK" if self.satisfied_i else "  VIOLATED")),
        ]
        width = max(len(k) for k, _ in rows)
        lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
        for c in self.caveats:
            lines.append(f"caveat: {c}")
        return "\n".join(lines)


def evaluate_counts(f: RationalMap, cycles, tails, split, epsilons, deltas,
                    annotations=()):
    """Assemble a CountReport from the upstream reports.

    split: the tails' RamSplit, whose Ram_w holds the distinct wild critical
    points; epsilons: region id -> {0,1} (from epsilon_marks); deltas: cycle
    id -> {0,1} (from delta_marks).  Unresolved indifferent cycles count toward
    CR (stressing the inequality surfaces classification failures loudly),
    and a caveat records each one.
    """
    if f.degree < 2:
        raise CountError("counting inequalities require degree >= 2")
    rep = CountReport()
    rep.epsilons = dict(epsilons)
    for i, c in enumerate(cycles):
        if c.cls == CLASS_SIEGEL:
            rep.n_SD += 1
        elif c.cls == CLASS_CREMER:
            rep.n_CR += 1
        elif c.cls == CLASS_UNRESOLVED:
            rep.n_CR += 1
            rep.caveats.append(
                f"cycle C{i} is indifferent but unresolved; counted as CR"
            )
        elif c.cls in PARABOLIC_CLASSES:
            rep.n_parabolic += 1
            if c.parabolic is not None:
                rep.e_by_parabolic[f"C{i}"] = (
                    c.parabolic.e_loc // c.parabolic.r
                )
        elif c.cls == CLASS_ATTRACTING:
            rep.n_attracting += 1
        elif c.cls == CLASS_SUPER:
            rep.n_super += 1
    rep.n_HR = sum(1 for a in annotations if a.kind == "HermanRing")
    rep.delta = sum(int(v) for v in deltas.values())
    wild = [t for t in tails if t.classification == KIND_WILD]
    rep.wild_tails = len(wild)
    # distinct critical points in wild tails, no multiplicity
    rep.wild_ram_points = len(split.ram_w)
    for t in wild:
        if t.confidence == "low":
            rep.caveats.append(
                f"tail {t.id} is Wild at low confidence (budget {t.budget_used})"
            )
    for a in annotations:
        if a.kind == "LattesFlag":
            rep.caveats.append(
                "Lattes map: the one-dimensional exception to the first-order "
                "vanishing; counts audited but the exceptional direction is "
                "expected"
            )
    eps_sd_hr = sum(int(v) for v in rep.epsilons.values())
    eps_hr = sum(
        int(v) for k, v in rep.epsilons.items() if k.startswith("HR")
    )
    rep.lhs_v = 2 * rep.n_HR + rep.n_SD + rep.n_CR + rep.delta
    rep.rhs_v = eps_sd_hr + rep.wild_tails
    rep.lhs_i = rep.n_SD + rep.n_CR + 2 * rep.n_HR
    rep.rhs_i = min(rep.wild_ram_points, eps_hr + rep.wild_tails)
    rep.satisfied_v = rep.lhs_v <= rep.rhs_v
    rep.satisfied_i = rep.lhs_i <= rep.rhs_i
    return rep
