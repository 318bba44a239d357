"""Dynamical invariants of rational self-maps of the Riemann sphere.

Cycle enumeration and classification, parabolic local invariants
(rotation order, petal count, the iterative residue), numerical dynamical
residues of form densities, critical-orbit tail bookkeeping, jet-space
equalizer dimensions, and audits of the associated cycle-count
inequalities.
"""

from .kernel import Polynomial, poly_roots, rank_nullity
from .series import TruncatedSeries
from .ratmap import (
    RamificationDivisor,
    RationalMap,
    SpherePoint,
    parse_map,
)
from .parabolic import ParabolicInvariants, rotation_order, tangency_and_residu
from .cycles import Annotation, Cycle, analyze_cycles, find_cycles
from .orbits import classify_tails
from .residue import FormDensity, ResidueEstimate, dynamical_residue
from .extjet import JetSpec, global_e1, jet_e1
from .count import CountReport, evaluate_counts
from .corpus import corpus_run, load_corpus, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "poly_roots",
    "rank_nullity",
    "TruncatedSeries",
    "SpherePoint",
    "RationalMap",
    "RamificationDivisor",
    "parse_map",
    "ParabolicInvariants",
    "rotation_order",
    "tangency_and_residu",
    "Annotation",
    "Cycle",
    "analyze_cycles",
    "find_cycles",
    "classify_tails",
    "FormDensity",
    "ResidueEstimate",
    "dynamical_residue",
    "JetSpec",
    "global_e1",
    "jet_e1",
    "CountReport",
    "evaluate_counts",
    "corpus_run",
    "load_corpus",
    "run_pipeline",
    "__version__",
]
