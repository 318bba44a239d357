"""One benchmark process for the pipeline, cycles and residue workloads.

Builds the workload's inputs, prints ``ready``, then runs whole passes over
the ops until ``--seconds`` have gone by, checks every output against the
oracles in checks.py, and prints one JSON result as its last line.  With
``--setup-only`` it stops after ``ready``; run.py times those cold starts.
With ``--trace-out`` untraced and traced passes alternate, and the trace
of the traced ones is written there.

ratdyn must be importable (run.py puts the checkout's ``src`` first on
PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402

# Failure signatures of the named faults.  A failed op whose problems all
# carry one of these tags is counted in `failed` and leaves `correct` true.
FAULT_TAIL = "orbits: converging orbit reported Bounded"
FAULT_NAN = "kernel: poly_roots returns NaN roots"
FAULT_BUDGET = "residue: quadrature budget exhausted"


class Outcome:
    """Problems found in one op's output, split into those a named fault
    explains and the rest."""

    def __init__(self, name):
        self.name = name
        self.faults = []
        self.problems = []

    def add(self, problems, fault=None):
        (self.faults if fault else self.problems).extend(
            f"{fault}: {p}" if fault else p for p in problems
        )

    @property
    def failed(self):
        return bool(self.faults or self.problems)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    def __init__(self, seed):
        import ratdyn

        self.ratdyn = ratdyn  # looked up per call, so a tracer's wrappers apply
        self.packaged = ratdyn.load_corpus()
        self.generated = inputs.pipeline_inputs(seed)
        keys = ("name", "map", "params", "max_period")
        self.entries = self.packaged + [{k: g[k] for k in keys} for g in self.generated]

    def run_pass(self):
        start = time.perf_counter()
        try:
            result = self.ratdyn.corpus_run(self.entries)
        except Exception as exc:  # every op of the pass fails
            elapsed = time.perf_counter() - start
            outs = []
            for e in self.entries:
                out = Outcome(e["name"])
                out.add([f"corpus_run raised {exc!r}"])
                outs.append(out)
            return elapsed, outs, 0
        elapsed = time.perf_counter() - start
        records = {r["name"]: r for r in result["entries"]}
        outs = [self.check_packaged(e, records.get(e["name"])) for e in self.packaged]
        points = 0
        for g in self.generated:
            out = self.check_generated(g, records.get(g["name"]))
            if not out.failed:
                points += sum(
                    len(c["points"])
                    for c in records[g["name"]]["report"]["cycles"]
                    if c["period"] == g["max_period"]
                )
            outs.append(out)
        return elapsed, outs, points

    @staticmethod
    def _common(out, report, expect_count_error):
        out.add(checks.check_nu_identity(report["parabolic"]))
        out.add(checks.check_critical_total(report["tails"], report["degree"]))
        if expect_count_error:
            if not report["count_error"]:
                out.add(["count audit was expected to refuse this map"])
        else:
            out.add(checks.check_counts(report["counts"]))

    def check_packaged(self, entry, record):
        out = Outcome(entry["name"])
        if record is None:
            out.add(["entry missing from corpus_run output"])
            return out
        if not record["passed"]:
            out.add([f"corpus expectation missed: {f}" for f in record["failures"]])
        expect_error = any(
            e["path"] == "count_error" and e.get("value") is True
            for e in entry.get("expected", ())
        )
        self._common(out, record["report"], expect_error)
        return out

    def check_generated(self, gen, record):
        out = Outcome(gen["name"])
        if record is None:
            out.add(["entry missing from corpus_run output"])
            return out
        report = record["report"]
        self._common(out, report, False)
        c, mu = checks.as_complex(gen["c"]), checks.as_complex(gen["mu"])
        out.add(checks.check_closure(report["cycles"], checks.PlainMap([c, 0, 1])))
        problems, target = checks.check_quadratic_target(report, c, mu)
        out.add(problems)
        if gen["tail_check"] and target is not None:
            out.add(checks.check_tame_tail(report, target), fault=FAULT_TAIL)
        return out


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


class Cycles:
    def __init__(self, seed):
        import ratdyn

        self.ratdyn = ratdyn
        self.ops = []
        for op in inputs.cycles_inputs(seed):
            params = {k: checks.as_complex(v) for k, v in op["params"].items()}
            fmap = checks.PlainMap(
                [checks.as_complex(c) for c in op["num"]],
                [checks.as_complex(c) for c in op["den"]],
            )
            self.ops.append((op, ratdyn.parse_map(op["map"], params), fmap))

    def run_pass(self):
        total, outs, points = 0.0, [], 0
        for op, f, fmap in self.ops:
            out = Outcome(op["name"])
            p = op["period"]
            start = time.perf_counter()
            try:
                cycles = self.ratdyn.analyze_cycles(f, p)
            except Exception as exc:
                total += time.perf_counter() - start
                fault = FAULT_NAN if "nan" in str(exc) else None
                out.add([f"{type(exc).__name__}: {exc}"], fault=fault)
                outs.append(out)
                continue
            total += time.perf_counter() - start
            report = [c.to_json() for c in cycles]
            out.add(checks.check_finite(report), fault=FAULT_NAN)
            out.add(checks.check_closure(report, fmap))
            if op["kind"] == "generic":
                out.add(checks.check_point_count(report, p, fmap.degree))
                out.add(checks.check_index_identity(report, p))
            for point, want in op["closed"]:
                out.add(checks.check_parabolic_closed_form(report, point, want))
            if not out.failed:
                points += sum(len(c["points"]) for c in report if c["period"] == p)
            outs.append(out)
        return total, outs, points


# ---------------------------------------------------------------------------
# residue
# ---------------------------------------------------------------------------


class Residue:
    def __init__(self, seed):
        import ratdyn

        self.ratdyn = ratdyn
        self.ops = [
            (op, ratdyn.parse_map(op["map"]), ratdyn.FormDensity.parse(op["form"]),
             checks.PlainMap(op["num"]))
            for op in inputs.residue_inputs(seed)
        ]

    def run_pass(self):
        """Each op locates the fixed point 0 with analyze_cycles, as a user
        would to get its parabolic package, then takes the residue there."""
        total, outs, points = 0.0, [], 0
        for op, f, mu, fmap in self.ops:
            out = Outcome(op["name"])
            start = time.perf_counter()
            try:
                cycles = self.ratdyn.analyze_cycles(f, 1)
                at_zero = [c for c in cycles if c.contains(0.0)]
                inv = at_zero[0].parabolic if at_zero else None
                est = self.ratdyn.dynamical_residue(f, mu, kind=op["kind"], inv=inv)
            except Exception as exc:
                total += time.perf_counter() - start
                out.add([f"{type(exc).__name__}: {exc}"])
                outs.append(out)
                continue
            total += time.perf_counter() - start
            fixed = [c.to_json() for c in cycles]
            out.add(checks.check_closure(fixed, fmap))
            if not at_zero:
                out.add(["analyze_cycles found no fixed point at 0"])
            report = est.to_json()
            if op["kind"] == "disc":
                out.add(checks.check_disc_residue(report, op["lam"], op["tol"]))
            else:
                out.add(checks.check_fatou_residue(report, op["nu"]))
                out.add(checks.check_reliable(report), fault=FAULT_BUDGET)
            if not out.failed:
                points += len(fixed)
            outs.append(out)
        return total, outs, points


class Cli:
    """Set-up of the cli workload (its passes run from run.py, one fresh
    process per invocation)."""

    def __init__(self, seed):
        import ratdyn  # noqa: F401

        self.ops = inputs.cli_inputs(seed)


WORKLOADS = {"pipeline": Pipeline, "cycles": Cycles, "residue": Residue, "cli": Cli}


def run_passes(run_pass, seconds, alternate=False):
    """Whole passes until `seconds` have gone by (at least one).

    run_pass(traced) returns (seconds, outcomes, points).  With alternate,
    passes alternate untraced and traced and end on a whole pair, so both
    kinds sample the same stretch of machine time.  Returns the untraced
    and the traced pass records.
    """
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        on = alternate and len(traced) < len(plain)
        elapsed, outs, points = run_pass(on)
        (traced if on else plain).append({
            "seconds": elapsed,
            "points": points,
            "attempted": len(outs),
            "failed": sum(o.failed for o in outs),
            "outcomes": outs,
        })
        done = len(traced) == len(plain) if alternate else True
        if done and time.perf_counter() >= deadline:
            return plain, traced


def summarize(passes):
    """Totals over passes, and each failing op's first problem."""
    failures, unexplained = {}, {}
    for p in passes:
        for o in p.pop("outcomes"):
            if o.problems:
                unexplained.setdefault(o.name, o.problems[0])
            elif o.faults:
                failures.setdefault(o.name, o.faults[0])
    return {
        "passes": passes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "faults": failures,
        "unexplained": unexplained,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if not hasattr(work, "run_pass"):
        ap.error(f"{args.workload} has no in-process passes; use run.py")
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()

    def run_pass(traced):
        if not traced:
            return work.run_pass()
        tracer.install()
        try:
            return work.run_pass()
        finally:
            tracer.uninstall()

    plain, traced = run_passes(run_pass, args.seconds, alternate=tracer is not None)
    result = summarize(plain)
    if tracer is not None:
        trace = tracer.data()
        trace["passes"] = len(traced)
        with open(args.trace_out, "w") as fh:
            json.dump(trace, fh)
        result["traced"] = summarize(traced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
