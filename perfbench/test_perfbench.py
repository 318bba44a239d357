"""Tests of the benchmark itself: each oracle rejects a wrong output, the
op accounting is exact, and the tracer and metric tables hang together.

    python3 -m pytest perfbench -q
"""

import cmath
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def quadratic_fixed_points(c):
    """Cycles report of z^2 + c at period 1, computed here in closed form."""
    r = cmath.sqrt(1 - 4 * c)
    pts = [(1 + r) / 2, (1 - r) / 2]
    cycles = [{"period": 1, "points": [[z.real, z.imag]], "multiplier": [2 * z.real, 2 * z.imag]}
              for z in pts]
    cycles.append({"period": 1, "points": ["inf"], "multiplier": [0.0, 0.0]})
    return cycles


C = complex(-0.4, 0.3)


def perturbed(cycles, i, field, delta):
    out = json.loads(json.dumps(cycles))
    if field == "multiplier":
        out[i]["multiplier"][0] += delta
    else:
        out[i]["points"][0][0] += delta
    return out


class TestCycleOracles:
    def test_accept_closed_form(self):
        cycles = quadratic_fixed_points(C)
        fmap = checks.PlainMap([C, 0, 1])
        assert checks.check_point_count(cycles, 1, 2) == []
        assert checks.check_index_identity(cycles, 1) == []
        assert checks.check_closure(cycles, fmap) == []
        assert checks.check_finite(cycles) == []

    def test_reject_perturbed_multiplier(self):
        bad = perturbed(quadratic_fixed_points(C), 0, "multiplier", 1e-3)
        assert checks.check_index_identity(bad, 1)

    def test_reject_perturbed_point(self):
        bad = perturbed(quadratic_fixed_points(C), 1, "point", 1e-4)
        assert checks.check_closure(bad, checks.PlainMap([C, 0, 1]))

    def test_reject_missing_cycle(self):
        assert checks.check_point_count(quadratic_fixed_points(C)[1:], 1, 2)

    def test_reject_nan(self):
        bad = quadratic_fixed_points(C)
        bad[0]["points"] = [[math.nan, 0.0]]
        assert checks.check_finite(bad)

    def test_index_identity_over_period_two(self):
        # z^2 - 1: fixed points (1 +- sqrt 5)/2, 2-cycle {0, -1} (multiplier 0)
        cycles = quadratic_fixed_points(-1)
        cycles.append({"period": 2, "points": [[0.0, 0.0], [-1.0, 0.0]], "multiplier": [0.0, 0.0]})
        assert checks.check_index_identity(cycles, 2) == []
        assert checks.check_point_count(cycles, 2, 2) == []
        assert checks.check_index_identity(perturbed(cycles, 3, "multiplier", 1e-3), 2)

    def test_parabolic_closed_form(self):
        cycles = [{"period": 1, "points": [[0.5, 0.0]], "multiplier": [1.0, 0.0],
                   "parabolic": {"r": 1, "e_loc": 1, "nu": [1.0, 0.0], "index": [0.0, 0.0]}}]
        want = {"multiplier": 1, "r": 1, "e_loc": 1, "nu": 1}
        assert checks.check_parabolic_closed_form(cycles, 0.5, want) == []
        cycles[0]["parabolic"]["nu"] = [1.01, 0.0]
        assert checks.check_parabolic_closed_form(cycles, 0.5, want)
        cycles[0]["parabolic"]["nu"] = [1.0, 0.0]
        cycles[0]["parabolic"]["e_loc"] = 2
        assert checks.check_parabolic_closed_form(cycles, 0.5, want)


class TestPipelineOracles:
    def test_nu_identity(self):
        good = {"C0": {"e_loc": 2, "nu": [1.5, 0.0], "index": [0.0, 0.0]}}
        assert checks.check_nu_identity(good) == []
        bad = {"C0": {"e_loc": 2, "nu": [1.5 + 1e-6, 0.0], "index": [0.0, 0.0]}}
        assert checks.check_nu_identity(bad)

    def test_critical_total(self):
        tails = [{"members": [{"point": [0.0, 0.0], "multiplicity": 1}]},
                 {"members": [{"point": "inf", "multiplicity": 1}]}]
        assert checks.check_critical_total(tails, 2) == []
        assert checks.check_critical_total(tails[:1], 2)

    def test_counts(self):
        good = {"lhs_v": 1, "rhs_v": 2, "lhs_i": 2, "rhs_i": 2,
                "satisfied_v": True, "satisfied_i": True}
        assert checks.check_counts(good) == []
        assert checks.check_counts(dict(good, lhs_v=3))
        assert checks.check_counts(dict(good, satisfied_i=False))
        assert checks.check_counts(None)

    def report_for(self, c, mu, tail="Tame"):
        lam_pt = [p for p in quadratic_fixed_points(c)
                  if abs(checks.as_complex(p["multiplier"]) - mu) < 1e-9]
        return {"cycles": lam_pt, "tails": [{
            "members": [{"point": [0.0, 0.0], "multiplicity": 1}],
            "classification": tail, "target": "C0"}]}

    def test_quadratic_target(self):
        import inputs

        mu = cmath.rect(0.5, 1.0)
        c = inputs.quadratic_with_multiplier("cardioid", mu)
        report = self.report_for(c, mu)
        problems, target = checks.check_quadratic_target(report, c, mu)
        assert problems == [] and target == 0
        assert checks.check_tame_tail(report, 0) == []
        # a wrong multiplier finds no cycle; a wrong map misses the orbit
        assert checks.check_quadratic_target(report, c, mu + 1e-6)[0]
        assert checks.check_quadratic_target(report, c + 0.01, mu)[0]
        assert checks.check_tame_tail(self.report_for(c, mu, "Bounded"), 0)


class TestResidueOracles:
    def test_disc(self):
        good = {"value": math.log(4) - 5e-4}
        assert checks.check_disc_residue(good, 2.0, 1e-3) == []
        assert checks.check_disc_residue({"value": math.log(4) + 2e-3}, 2.0, 1e-3)

    def test_fatou_value(self):
        assert checks.check_fatou_residue({"value": 1.98}, 1) == []
        assert checks.check_fatou_residue({"value": 1.02}, 1) == []
        assert checks.check_fatou_residue({"value": 1.5}, 1)
        assert checks.check_fatou_residue({"value": 0.02}, 0) == []
        assert checks.check_fatou_residue({"value": 0.1}, 0)

    def test_reliable(self):
        assert checks.check_reliable({"reliable": True, "notes": []}) == []
        assert checks.check_reliable({"reliable": False, "notes": ["budget"]})


class TestCliOracles:
    def test_exit(self):
        assert checks.check_exit(2, 2) == []
        assert checks.check_exit(0, 2)

    def test_error_stream(self):
        assert checks.check_error_stream('{"error": "ParseError", "message": "x"}\n') == []
        assert checks.check_error_stream("")
        assert checks.check_error_stream('{"error": "A", "message": "x"}\n{"error": "B", "message": "y"}\n')
        assert checks.check_error_stream("Traceback (most recent call last):\n")

    def test_ppm(self):
        data = b"P6\n4 4\n255\n" + bytes(48)
        assert checks.check_ppm(data, 4) == []
        assert checks.check_ppm(data[:-1], 4)
        assert checks.check_ppm(data, 5)

    def test_trace_csv_and_dims(self):
        assert checks.check_trace_csv("param,value\n0.2,1\n0.1,1\n", 2) == []
        assert checks.check_trace_csv("param,value\n0.2,1\n", 2)
        assert checks.check_dims({"ker": 1, "coker": 2}, 1, 2) == []
        assert checks.check_dims({"ker": 0, "coker": 2}, 1, 2)

    def test_parse_report(self):
        report = {"degree": 2, "critical_divisor": {"entries": [
            {"multiplicity": 1}, {"multiplicity": 1}]}}
        assert checks.check_parse_report(report, 2) == []
        assert checks.check_parse_report(dict(report, degree=3), 2)


class TestAccounting:
    def test_whole_passes(self):
        def run_pass(traced):
            outs = [worker.Outcome(n) for n in ("a", "b", "c")]
            outs[1].add(["named fault"], fault=worker.FAULT_NAN)
            return 0.01, outs, 2

        plain, traced = worker.run_passes(run_pass, 0.0)
        res = worker.summarize(plain)
        assert traced == [] and (res["attempted"], res["failed"]) == (3, 1)
        assert list(res["faults"]) == ["b"] and res["unexplained"] == {}
        res = worker.summarize(worker.run_passes(run_pass, 0.05)[0])
        n = len(res["passes"])
        assert n >= 2 and (res["attempted"], res["failed"]) == (3 * n, n)

    def test_alternating_passes(self):
        seen = []

        def run_pass(traced):
            seen.append(traced)
            return 0.01, [worker.Outcome("a")], 0

        plain, traced = worker.run_passes(run_pass, 0.0, alternate=True)
        assert seen == [False, True] and len(plain) == len(traced) == 1
        seen.clear()
        plain, traced = worker.run_passes(run_pass, 0.05, alternate=True)
        assert seen[::2] == [False] * len(plain) and seen[1::2] == [True] * len(traced)
        assert len(plain) == len(traced) >= 2

    def test_unexplained_failure(self):
        def run_pass(traced):
            out = worker.Outcome("x")
            out.add(["wrong value"])
            return 0.01, [out], 0

        res = worker.summarize(worker.run_passes(run_pass, 0.0)[0])
        assert res["unexplained"] == {"x": "wrong value"} and res["failed"] == 1

    def test_tiny_cycles_input(self):
        work = worker.Cycles(seed=7)
        work.ops = [op for op in work.ops if op[0]["name"] in ("rational", "nan-lattes-p3")]
        res = worker.summarize(worker.run_passes(lambda traced: work.run_pass(), 0.0)[0])
        assert (res["attempted"], res["failed"]) == (2, 1)
        assert list(res["faults"]) == ["nan-lattes-p3"] and res["unexplained"] == {}
        # 2^2 + 1 = 5 fixed points of f^2: three fixed points and one 2-cycle
        assert res["passes"][0]["points"] == 2


class TestTracing:
    def test_wraps_every_namespace(self):
        import ratdyn
        from ratdyn import cycles, kernel, ratmap

        originals = (kernel.poly_roots, cycles.poly_roots, ratmap.poly_roots,
                     ratdyn.poly_roots, ratdyn.RationalMap.evaluate)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cycles.poly_roots is not originals[1] and ratdyn.poly_roots is not originals[3]
            ratdyn.analyze_cycles(ratdyn.parse_map("z^2 - 1"), 2)
        finally:
            tracer.uninstall()
        assert (kernel.poly_roots, cycles.poly_roots, ratmap.poly_roots,
                ratdyn.poly_roots, ratdyn.RationalMap.evaluate) == originals
        data = tracer.data()
        layers = data["layers"]
        assert layers["cycles.analyze_cycles"]["calls"] == 1
        assert layers["kernel.poly_roots"]["calls"] >= 2
        top = layers["cycles.analyze_cycles"]
        assert 0 <= top["self_s"] < top["total_s"]
        assert data["counts"]["cycles.points"] == 5
        assert data["counts"]["kernel.poly_roots.max_degree"] >= 4
        ids = {s[0] for s in data["spans"]}
        assert all(s[4] is None or s[4] in ids for s in data["spans"])

    def test_importtime_lazy_package(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     pkg.sub.a",
            "import time:        20 |         30 |   pkg.sub.b",
            "import time:         5 |          5 |   pkg.sub.c",
            "import time:       100 |        200 | pkg",
        ])
        out = tracing.parse_importtime(text, ("pkg", "pkg.sub"))
        assert out["pkg"] == pytest.approx(200e-6)
        assert out["pkg.sub"] == pytest.approx(35e-6)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    empty = {"layers": {}, "counts": {}}
    imports = dict.fromkeys(("ratdyn", "scipy.stats", "scipy.linalg"), 0.0)
    got = run.per_layer(empty, 1, imports, {}, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(got)
    assert all(m["unit"] == got[m["name"]]["unit"] for m in spec["per_layer"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
