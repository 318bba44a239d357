"""Curated map corpus with frozen expectations, and the harness that replays it.

Each corpus entry bundles a map expression (plus parameter bindings and
annotations) with a list of expected values addressed by dotted paths
into the pipeline report, e.g. ``counts.lhs_v`` or ``parabolic.C0.nu``.
Every expectation carries a provenance note saying where the value comes
from, so a failing comparison points at either a pipeline regression or
a stale freeze — never at an unexplained number.

The harness is deterministic: cycle enumeration, orbit tracking and the
count audit involve no randomness beyond the seeded root finder, so two
runs produce identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .count import CountError, CountReport, evaluate_counts
from .cycles import analyze_cycles, load_annotations
from .orbits import (
    DEFAULT_BUDGET,
    RamSplit,
    classify_tails,
    delta_marks,
    epsilon_marks,
    regions_from_annotations,
)
from .ratmap import RationalMap, parse_map

FLOAT_TOL = 1e-9


def load_corpus(path=None):
    """The corpus entries as a list of dicts (packaged data by default)."""
    if path is None:
        text = resources.files("ratdyn.data").joinpath("corpus.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    obj = json.loads(text)
    return obj["entries"] if isinstance(obj, dict) else obj


def _bind_params(params):
    return {k: complex(v[0], v[1]) for k, v in (params or {}).items()}


@dataclass
class PipelineReport:
    """What each stage of ``run_pipeline`` produced.

    ``counts`` is None and ``count_error`` holds the ``CountError`` when the
    count audit rejects the map (degree 1); the earlier stages still ran.
    """

    f: RationalMap
    cycles: list
    tails: list
    split: RamSplit
    epsilons: dict
    deltas: dict
    counts: CountReport | None = None
    count_error: CountError | None = None

    def to_json(self):
        out = {
            "degree": self.f.degree,
            "cycles": [c.to_json() for c in self.cycles],
            "parabolic": {
                f"C{i}": c.parabolic.to_json()
                for i, c in enumerate(self.cycles)
                if c.parabolic is not None
            },
            "tails": [t.to_json() for t in self.tails],
            "split": self.split.to_json(),
            "epsilons": self.epsilons,
            "deltas": self.deltas,
            "count_error": self.count_error is not None,
            "counts": None if self.counts is None else self.counts.to_json(),
        }
        if self.count_error is not None:
            out["count_error_message"] = str(self.count_error)
        return out


def run_pipeline(f, annotations=(), max_period=2, budget=DEFAULT_BUDGET):
    """Cycles, critical tails, epsilon/delta marks and the count audit of f."""
    cycles = analyze_cycles(f, max_period, annotations)
    tails, split = classify_tails(f, cycles, annotations, budget=budget)
    regions = regions_from_annotations(cycles, annotations)
    report = PipelineReport(
        f, cycles, tails, split, epsilon_marks(split, regions), delta_marks(cycles, split)
    )
    try:
        report.counts = evaluate_counts(
            f, cycles, tails, split, report.epsilons, report.deltas, annotations
        )
    except CountError as exc:
        report.count_error = exc
    return report


def run_entry(entry, budget=DEFAULT_BUDGET):
    """Run the full pipeline on one entry and return the report dict."""
    f = parse_map(entry["map"], _bind_params(entry.get("params")))
    anns = load_annotations(entry.get("annotations", []))
    report = run_pipeline(f, anns, int(entry.get("max_period", 2)), budget)
    return {"name": entry["name"], **report.to_json()}


def _resolve(report, path):
    """Walk a dotted path through nested dicts/lists; raises KeyError."""
    cur = report
    for part in path.split("."):
        if isinstance(cur, list):
            cur = cur[int(part)]
        elif isinstance(cur, dict):
            cur = cur[part]
        else:
            raise KeyError(path)
    return cur


def _values_match(actual, expected, tol):
    if isinstance(expected, bool) or isinstance(actual, bool):
        return actual is expected
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(actual - expected) <= tol
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return False
        return all(_values_match(a, e, tol) for a, e in zip(actual, expected))
    return actual == expected


def check_entry(entry, report):
    """Compare a report against the entry's expectations.

    Returns a list of failure records; empty means the entry passes.
    """
    failures = []
    for exp in entry.get("expected", ()):
        path = exp["path"]
        try:
            actual = _resolve(report, path)
        except (KeyError, IndexError, TypeError, ValueError):
            failures.append(
                {"path": path, "expected": exp.get("value", exp.get("contains")),
                 "actual": None, "reason": "path missing from report"}
            )
            continue
        if "contains" in exp:
            ok = isinstance(actual, str) and exp["contains"] in actual
            if not ok:
                failures.append(
                    {"path": path, "expected": f"...{exp['contains']}...",
                     "actual": actual, "reason": "substring not found"}
                )
            continue
        tol = float(exp.get("tol", FLOAT_TOL))
        if not _values_match(actual, exp["value"], tol):
            failures.append(
                {"path": path, "expected": exp["value"], "actual": actual,
                 "reason": "value mismatch"}
            )
    return failures


def corpus_run(entries=None, budget=DEFAULT_BUDGET, names=None):
    """Replay the corpus; returns {"entries": [...], "all_passed": bool}.

    Per-entry records carry the pass flag, any expectation failures, and
    the full report for inspection.
    """
    if entries is None:
        entries = load_corpus()
    if names:
        wanted = set(names)
        entries = [e for e in entries if e["name"] in wanted]
    out = []
    all_passed = True
    for entry in entries:
        report = run_entry(entry, budget=budget)
        failures = check_entry(entry, report)
        passed = not failures
        all_passed = all_passed and passed
        out.append(
            {
                "name": entry["name"],
                "passed": passed,
                "failures": failures,
                "report": report,
            }
        )
    return {"entries": out, "all_passed": all_passed}
