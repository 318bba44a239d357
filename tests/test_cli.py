"""The command-line front end: flags, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratdyn.cli import main
from ratdyn.corpus import load_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter, whose
    stderr shows numpy's warnings as a user sees them."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "ratdyn.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    return out.returncode, out.stdout, out.stderr


class TestParse:
    def test_reports_degree_and_criticals(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--map", "z^2 - 1")
        obj = json.loads(out)
        assert code == 0
        assert obj["degree"] == 2
        assert len(obj["critical_divisor"]["entries"]) == 2

    def test_map_file_with_expression(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"map": "z^2 + c", "params": {"c": [0.25, 0.0]}}))
        code, out, _ = run_cli(capsys, "parse", "--map-file", str(path))
        assert code == 0 and json.loads(out)["degree"] == 2

    def test_ppm_raster(self, capsys, tmp_path):
        ppm = tmp_path / "img.ppm"
        code, _, _ = run_cli(
            capsys, "parse", "--map", "z^2 - 1", "--ppm", str(ppm),
            "--ppm-size", "32",
        )
        assert code == 0
        data = ppm.read_bytes()
        assert data.startswith(b"P6\n32 32\n255\n")
        assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_bad_expression_exits_2(self, capsys):
        for text in ("z^2 +", "1/(z-z)"):
            code, _, err = run_cli(capsys, "parse", "--map", text)
            assert code == 2
            obj = json.loads(err)
            assert "error" in obj and "message" in obj

    def test_exponent_literal(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--map", "z^2+1e-3")
        assert code == 0 and json.loads(out)["num"][0] == [1e-3, 0.0]

    def test_missing_map_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "parse")
        assert code == 2

    def test_overflowing_map_writes_one_error_object(self, tmp_path):
        # the Wronskian of 1e308 z^2 overflows; stderr carries the error object only
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"num": [[0, 0], [0, 0], [1e308, 0]], "den": [[1, 0]]}))
        code, out, err = run_cli_process("parse", "--map-file", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError", "message": "non-finite polynomial coefficient"}

    @pytest.mark.parametrize("expr,n", [("z^40 + (z-1)^39", 39), ("(z-1)^25/(z+1)^24", 48)])
    def test_unsolvable_critical_points_write_one_error_object(self, expr, n):
        # Aberth's iterates overflow on the Wronskian: a kernel error is an input error
        code, out, err = run_cli_process("parse", "--map", expr)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "RootFindingError", "message": f"{n} of {n} root iterates are not finite"}


class TestPipelines:
    def test_cycles(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycles", "--map", "z^2 - 1", "--max-period", "2"
        )
        obj = json.loads(out)
        assert code == 0
        classes = {c["class"] for c in obj["cycles"]}
        assert "SuperAttracting" in classes and "Repelling" in classes

    def test_overflowing_preimages_keep_stderr_empty(self):
        # the preimage iteration that seeds the z^40 solver overflows; the
        # seeds replace those preimages, and no warning reaches stderr
        code, out, err = run_cli_process("cycles", "--map", "z^40+0.1", "--max-period", "2")
        assert code == 0 and err == ""
        assert sum(c["period"] for c in json.loads(out)["cycles"]) == 40**2 + 1

    def test_parabolic(self, capsys):
        code, out, _ = run_cli(
            capsys, "parabolic", "--map", "z + z^3", "--max-period", "1"
        )
        obj = json.loads(out)["parabolic"]
        assert code == 0
        assert obj["C0"]["e_loc"] == 2
        assert abs(obj["C0"]["nu"][0] - 1.5) < 1e-9

    def test_parabolic_large_nu(self, capsys):
        # nu = 1 - a for z + z^2 + a z^3
        code, out, _ = run_cli(
            capsys, "parabolic", "--map", "z + z^2 - 10*z^3", "--max-period", "1"
        )
        assert code == 0
        nu = json.loads(out)["parabolic"]["C0"]["nu"]
        assert abs(nu[0] - 11) < 1e-9 and abs(nu[1]) < 1e-9

    def test_ext_global(self, capsys):
        code, out, _ = run_cli(capsys, "ext", "--map", "z^2")
        assert code == 0
        assert json.loads(out) == {"global": {"ker": 0, "coker": 2}}

    def test_ext_jet(self, capsys):
        code, out, _ = run_cli(
            capsys, "ext", "--map", "z + z^2", "--point", "0", "--jet-order", "6"
        )
        obj = json.loads(out)["jet"]
        assert code == 0 and (obj["ker"], obj["coker"]) == (1, 2)

    def test_tails_and_orbit_csv(self, capsys, tmp_path):
        csv = tmp_path / "orbit.csv"
        code, out, _ = run_cli(
            capsys, "tails", "--map", "z^2 + 1/4", "--max-period", "1",
            "--budget", "20000",
            "--orbit-csv", str(csv), "--orbit-from", "0", "--orbit-len", "3",
        )
        assert code == 0
        obj = json.loads(out)
        assert any(t["classification"] == "Tame" for t in obj["tails"])
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "iterate,re,im,chart"
        assert len(lines) == 5

    @pytest.mark.parametrize("flag,value", [("--orbit-csv", "orbit.csv"), ("--orbit-from", "0")])
    def test_orbit_csv_and_orbit_from_go_together(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(
            capsys, "tails", "--map", "z^2 + 1/4", "--max-period", "1",
            "--budget", "2000", flag, str(tmp_path / value) if flag == "--orbit-csv" else value,
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"
        assert list(tmp_path.iterdir()) == []

    def test_count_json_and_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--map", "z + z^2", "--max-period", "2",
            "--budget", "20000",
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["satisfied_v"] and obj["satisfied_i"]

    def test_count_with_annotations_matches_corpus(self, capsys, tmp_path):
        entry = next(e for e in load_corpus() if e["name"] == "quad-siegel-golden")
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps({"map": entry["map"], "params": entry["params"]}))
        annot = tmp_path / "annot.json"
        annot.write_text(json.dumps({"annotations": entry["annotations"]}))
        code, out, _ = run_cli(
            capsys, "count", "--map-file", str(map_file), "--annot", str(annot),
            "--max-period", str(entry["max_period"]),
        )
        assert code == 0
        _, corpus_out, _ = run_cli(capsys, "corpus-run", "--only", entry["name"])
        assert json.loads(out) == json.loads(corpus_out)["entries"][0]["report"]["counts"]

    @pytest.mark.parametrize("anchor", [0.0, "0", True, False, {"x": 1}])
    def test_bad_annotation_anchor_exits_2(self, capsys, tmp_path, anchor):
        annot = tmp_path / "annot.json"
        annot.write_text(json.dumps({"annotations": [{"kind": "RotationNumberBrjuno",
                                                      "cycle": anchor}]}))
        code, out, err = run_cli(capsys, "cycles", "--map", "z^2 - 1", "--annot", str(annot))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "CycleError"

    def test_count_rejects_degree_one(self, capsys):
        code, out, err = run_cli(capsys, "count", "--map", "z/(1+z)")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "CountError"

    def test_residue_binds_param_in_form(self, capsys):
        args = ("residue", "--map", "2*z", "--family", "disc",
                "--family-param", "0.2", "--family-param", "0.1")
        code, out, _ = run_cli(capsys, *args, "--form", "a/z", "--param", "a=2")
        assert code == 0
        _, literal, _ = run_cli(capsys, *args, "--form", "2/z")
        assert json.loads(out) == json.loads(literal)

    def test_residue_zero_division_in_form_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "residue", "--map", "2*z", "--form", "1/(z-z)")
        assert code == 2 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "ParseError" and "position 1" in obj["message"]

    def test_residue_center_not_fixed_exits_2(self):
        # 2/z sends the center 0 to infinity: no multiplier is computed there
        code, out, err = run_cli_process("residue", "--map", "2/z", "--form", "1/z",
                                         "--center", "0")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ResidueError"

    @pytest.mark.parametrize("argv", [
        ("--map", "z^2", "--form", "1/z"),
        ("--map", "z^2+z^3", "--form", "1/z"),
        ("--map", "z+z^3", "--form", "(1+1.5*z^2)/z^3", "--center", "inf"),
    ])
    def test_residue_fatou_at_superattracting_center_exits_2(self, argv):
        code, out, err = run_cli_process("residue", *argv, "--family", "fatou")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        obj = json.loads(err)
        assert obj["error"] == "ResidueError" and "superattracting" in obj["message"]

    @pytest.mark.parametrize("argv", [
        ("--seed", "1", "parse", "--map", "z^2"),
        ("residue", "--map", "2*z", "--form", "1/z", "--qmc"),
        ("ext", "--map", "z + z^2", "--point", "0", "--two-jets"),
    ])
    def test_removed_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("parse", "--map", "-1/z"),
        ("cycles", "--map", "-z^2", "--max-period", "1"),
        ("residue", "--map", "2*z", "--form", "-1/z", "--family", "disc"),
        ("residue", "--map", "2*z + 2", "--form", "1/(z+2)", "--family", "disc",
         "--center", "-2+0i"),
        ("ext", "--map", "z + z^2", "--point", "-0.0+0i"),
        ("tails", "--map", "z^2 - 1", "--max-period", "1", "--orbit-csv", "{tmp}",
         "--orbit-from", "-1"),
    ])
    def test_values_starting_with_minus(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "orbit.csv") if a == "{tmp}" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        if argv[0] == "parse":
            assert json.loads(out)["degree"] == 1

    def test_elliptic_moebius_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "cycles", "--map", "i*z", "--max-period", "1")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "CycleError", "message":
                                   "f^4 is the identity; periodic points are not isolated"}

    @pytest.mark.parametrize("argv,error", [
        (("ext", "--map", "z+z^2", "--point", "0", "--rot-order", "0"), "ValueError"),
        (("ext", "--map", "z+z^2", "--point", "0", "--period", "0"), "ValueError"),
        (("ext", "--map", "z+z^2", "--point", "0", "--jet-order", "-1"), "ValueError"),
        (("tails", "--map", "z^2-1", "--budget", "-1"), "ValueError"),
        (("count", "--map", "z^2+0.25", "--max-period", "0"), "CycleError"),
        (("parse", "--map", "z^2", "--ppm", "{tmp}", "--ppm-size", "0"), "ValueError"),
    ])
    def test_integer_out_of_range_exits_2(self, capsys, tmp_path, argv, error):
        argv = [str(tmp_path / "raster.ppm") if a == "{tmp}" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == error
        assert not (tmp_path / "raster.ppm").exists()

    @pytest.mark.parametrize("value", ["0", "inf", "-0.1", "nan"])
    def test_residue_family_param_not_positive_exits_2(self, value):
        code, out, err = run_cli_process("residue", "--map", "2*z", "--form", "1/z",
                                         "--family", "disc", "--family-param", value)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ResidueError"

    @pytest.mark.parametrize("sub", ["cycles", "parabolic"])
    def test_budget_only_where_an_orbit_runs(self, sub):
        # --budget caps the tail tracker, which only tails and count run
        with pytest.raises(SystemExit) as exc:
            main([sub, "--map", "z^2", "--budget", "10"])
        assert exc.value.code == 2

    def test_residue_with_trace(self, capsys, tmp_path):
        csv = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "residue", "--map", "2*z", "--form", "1/z",
            "--family", "disc", "--family-param", "0.2", "--family-param", "0.1",
            "--trace-csv", str(csv),
        )
        obj = json.loads(out)
        assert code == 0
        assert abs(obj["value"] - 1.3862944) < 1e-2
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "param,value" and len(lines) == 3

    def test_residue_center_at_infinity(self, capsys):
        # u = 1/z conjugates 2z to u/2, and 1/z pulls back to -1/u: the
        # residue of z/2 at 0, -log 4
        code, out, _ = run_cli(
            capsys, "residue", "--map", "2*z", "--form", "1/z", "--family", "disc",
            "--center", "inf",
        )
        assert code == 0
        assert abs(json.loads(out)["value"] + 1.3862943611198906) < 1e-12

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "parse", "--map", "z^2", "--out", str(dest)
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["degree"] == 2


class TestCorpusRun:
    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "corpus-run", "--only", "petal-one", "--only", "petal-two"
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["all_passed"]
        assert [e["name"] for e in obj["entries"]] == ["petal-one", "petal-two"]

    def test_doctored_corpus_exits_1(self, capsys, tmp_path):
        bad = {
            "entries": [
                {
                    "name": "wrong",
                    "map": "z^2",
                    "params": {},
                    "annotations": [],
                    "max_period": 1,
                    "expected": [
                        {"path": "degree", "value": 3,
                         "provenance": "[TRIVIAL]"}
                    ],
                }
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(
            capsys, "corpus-run", "--corpus-file", str(path)
        )
        assert code == 1
        assert not json.loads(out)["all_passed"]
