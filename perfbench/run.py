"""ratdyn benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics (see README.md).  Exits 2 without a
result when the checkout holds no ratdyn sources or a run cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("pipeline", "cycles", "residue", "cli")
SETUP_STARTS = 3
CHILD_TIMEOUT = 150.0

# Every thread pool pinned to one thread; nproc is 2 on the reference
# machine and the benchmark measures one core's worth of work.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

CLI_SUBS = ("parse", "cycles", "parabolic", "residue", "tails", "ext", "count",
            "corpus-run", "error")
CORPUS_ENTRIES = (
    "quad-parabolic-fixed", "quad-parabolic-order2", "quad-siegel-golden",
    "quad-cremer-liouville", "petal-one", "petal-two", "lattes-deg4",
    "blaschke-herman", "mobius-parabolic",
)
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"),
              ("points_per_s", "1/s"))


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env():
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, out_path, err_path, env):
    """Run cmd to completion; (exit code, wall seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        deadline = start + CHILD_TIMEOUT
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError(f"timed out: {cmd}")
            time.sleep(0.001)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024


def cold_start(workload, seed, env):
    """Seconds from starting a fresh interpreter until ratdyn is imported
    and the workload's inputs are built (the child then prints ``ready``)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        if select.select([proc.stdout], [], [], CHILD_TIMEOUT)[0]:
            line = proc.stdout.readline()
        else:
            line = b""
            proc.kill()
        ready = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise BenchError(f"set-up of {workload} failed (exit {code})")
    return ready


def run_worker(workload, seed, seconds, env, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# cli workload: one fresh `python -m ratdyn.cli` process per op
# ---------------------------------------------------------------------------


def check_cli(op, code, stdout, stderr, tmp):
    """Problems in one invocation's exit code and outputs; verified points."""
    problems = checks.check_exit(code, op["exit"])
    if problems:
        return problems, 0
    name, points = op["name"], 0
    if name == "error":
        return checks.check_error_stream(stderr) + (
            ["stdout is not empty"] if stdout.strip() else []), 0
    if name == "count":
        return [], 0
    report = json.loads(stdout)
    if name == "parse":
        problems += checks.check_parse_report(report, op["degree"])
        with open(os.path.join(tmp, "julia.ppm"), "rb") as fh:
            problems += checks.check_ppm(fh.read(), op["ppm_size"])
    elif name == "cycles":
        cycles = report["cycles"]
        problems += checks.check_closure(cycles, checks.PlainMap([0.25, 0, 1]))
        problems += checks.check_parabolic_closed_form(
            [c for c in cycles if c["period"] == 1], 0.5, {"multiplier": 1})
        if not problems:
            points = sum(len(c["points"]) for c in cycles if c["period"] == 2)
    elif name == "parabolic":
        pkgs = report["parabolic"].values()
        if not any(p["e_loc"] == 2 and abs(checks.as_complex(p["nu"]) - 1.5) <= 1e-6
                   for p in pkgs):
            problems.append("no parabolic package with e=2, nu=3/2")
    elif name == "residue":
        problems += checks.check_disc_residue(report, 2.0, 1e-3)
        with open(os.path.join(tmp, "trace.csv")) as fh:
            problems += checks.check_trace_csv(fh.read(), len(report["parameter_trace"]))
    elif name == "tails":
        problems += checks.check_all_bounded(report)
    elif name in ("ext-global", "ext-jet"):
        key = "global" if name == "ext-global" else "jet"
        problems += checks.check_dims(report[key], *op["dims"])
    elif name == "corpus-run":
        if report["all_passed"] is not True:
            problems.append("corpus-run entry did not pass")
    return problems, points


class CliRunner:
    """Passes of the cli workload.  Besides the outcomes it keeps the peak
    RSS over the child processes, the seconds per subcommand of the traced
    passes and the traces those processes wrote."""

    def __init__(self, seed, env, tmp):
        self.ops = inputs.cli_inputs(seed)
        self.env, self.tmp = env, tmp
        self.rss = 0.0
        self.sub_seconds = dict.fromkeys(CLI_SUBS, 0.0)
        self.traces = []

    def run_pass(self, traced):
        total, outs, points = 0.0, [], 0
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        trace_path = os.path.join(self.tmp, "trace.json")
        for op in self.ops:
            argv = [a.replace("{tmp}", self.tmp) for a in op["argv"]]
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path] + argv
            else:
                cmd = [sys.executable, "-m", "ratdyn.cli"] + argv
            code, elapsed, rss = run_child(cmd, out_path, err_path, self.env)
            total += elapsed
            out = worker.Outcome(op["name"])
            with open(out_path) as fh:
                stdout = fh.read()
            with open(err_path) as fh:
                stderr = fh.read()
            try:
                problems, n = check_cli(op, code, stdout, stderr, self.tmp)
            except (ValueError, KeyError, OSError) as exc:
                problems, n = [f"unreadable output: {exc!r}"], 0
            out.add(problems)
            points += n
            outs.append(out)
            if traced:
                self.sub_seconds[op["sub"]] += elapsed
                with open(trace_path) as fh:
                    self.traces.append(json.load(fh))
            else:
                self.rss = max(self.rss, rss)
        return total, outs, points


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_layer(trace, n_passes, imports, cli_seconds, overhead):
    """Per-layer metrics, per pass, from a (merged) trace."""
    layers, counts = trace["layers"], trace["counts"]

    def total(label):
        return layers.get(label, {}).get("total_s", 0.0) / n_passes

    def calls(label):
        return layers.get(label, {}).get("calls", 0) / n_passes

    def count(key):
        return counts.get(key, 0) / n_passes

    m = {
        "import.ratdyn_s": (imports["ratdyn"], "s"),
        "import.scipy_stats_s": (imports["scipy.stats"], "s"),
        "import.scipy_linalg_s": (imports["scipy.linalg"], "s"),
    }
    for sub in CLI_SUBS:
        m[f"cli.{sub}_s"] = (cli_seconds.get(sub, 0.0), "s")
    for name in CORPUS_ENTRIES:
        m[f"corpus.entry.{name}_s"] = (total(f"corpus.entry.{name}"), "s")
    tails_s = total("orbits.classify_tails")
    m.update({
        "orbits.classify_tails_s": (tails_s, "s"),
        "orbits.steps": (count("orbits.steps"), "count"),
        "orbits.steps_per_s": (count("orbits.steps") / tails_s if tails_s else 0.0, "1/s"),
        "ratmap.evaluate.calls": (calls("ratmap.evaluate"), "count"),
        "ratmap.evaluate_s": (total("ratmap.evaluate"), "s"),
        "kernel.poly_roots.calls": (calls("kernel.poly_roots"), "count"),
        "kernel.poly_roots_s": (total("kernel.poly_roots"), "s"),
        "kernel.poly_roots.max_degree": (counts.get("kernel.poly_roots.max_degree", 0), "count"),
        "kernel.poly_roots.nonfinite": (count("kernel.poly_roots.nonfinite"), "count"),
        "ratmap.compose_self_homogeneous_s": (total("ratmap.compose_self_homogeneous"), "s"),
        "cycles.analyze_cycles_s": (
            layers.get("cycles.analyze_cycles", {}).get("self_s", 0.0) / n_passes, "s"),
        "cycles.points": (count("cycles.points"), "count"),
        "parabolic.tangency_and_residu.calls": (calls("parabolic.tangency_and_residu"), "count"),
        "parabolic.tangency_and_residu_s": (total("parabolic.tangency_and_residu"), "s"),
        "series.compose.calls": (calls("series.compose"), "count"),
        "series.compose_s": (total("series.compose"), "s"),
        "series.inverse_s": (total("series.inverse"), "s"),
        "residue.regions": (count("residue.regions"), "count"),
        "residue.disc_region_s": (total("residue.disc_region"), "s"),
        "residue.fatou_region_s": (total("residue.fatou_region"), "s"),
        "residue.indicator_s": (total("residue.indicator"), "s"),
        "residue.in_region.points": (count("residue.in_region.points"), "count"),
        "residue.density.points": (count("residue.density.points"), "count"),
        "residue.unreliable": (count("residue.unreliable"), "count"),
        "extjet.jet_e1_s": (total("extjet.jet_e1"), "s"),
        "count.evaluate_counts_s": (total("count.evaluate_counts"), "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def import_breakdown(env):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ratdyn"],
                          stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("import ratdyn failed")
    return tracing.parse_importtime(proc.stderr.decode(),
                                    ("ratdyn", "scipy.stats", "scipy.linalg"))


def measure(workload, seed, seconds, trace):
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, f"trace-{workload}-seed{seed}.json") if trace else None
    if workload == "cli":
        tmp = os.path.join(OUT, f"cli-{os.getpid()}")
        os.makedirs(tmp, exist_ok=True)
        try:
            cli = CliRunner(seed, env, tmp)
            plain, traced = worker.run_passes(cli.run_pass, seconds, alternate=trace)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        runs = [worker.summarize(plain)] + ([worker.summarize(traced)] if trace else [])
        rss = cli.rss
    else:
        res = run_worker(workload, seed, seconds, env, trace_out)
        runs = [res] + ([res["traced"]] if trace else [])
        rss = res["peak_rss_mb"]
    unexplained = {k: v for r in runs for k, v in r["unexplained"].items()}
    for name, problem in unexplained.items():
        print(f"check failed: {name}: {problem}", file=sys.stderr)
    result = {
        "correct": not unexplained,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    passes = runs[0]["passes"]
    pass_s = statistics.median(p["seconds"] for p in passes)
    if trace:
        overhead = statistics.median(p["seconds"] for p in runs[1]["passes"]) - pass_s
        if workload == "cli":
            n = len(runs[1]["passes"])
            merged = dict(tracing.merge(cli.traces), passes=n)
            sub_seconds = {k: v / n for k, v in cli.sub_seconds.items()}
        else:
            with open(trace_out) as fh:
                merged = json.load(fh)
            sub_seconds = {}
        merged["overhead_s"] = overhead
        with open(trace_out, "w") as fh:
            json.dump(merged, fh)
        result["metrics"] = per_layer(merged, merged["passes"], import_breakdown(env),
                                      sub_seconds, overhead)
        return result
    values = {
        "setup_s": statistics.median(cold_start(workload, seed, env)
                                     for _ in range(SETUP_STARTS)),
        "pass_s": pass_s,
        "peak_rss_mb": rss,
        "points_per_s": statistics.median(p["points"] / p["seconds"] for p in passes),
    }
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description="ratdyn benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ratdyn", "__init__.py")):
        print(f"no ratdyn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
