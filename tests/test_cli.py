"""The command-line front end: flags, outputs, exit codes."""

import json

import pytest

from ratdyn.cli import main
from ratdyn.corpus import load_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_missing_map_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "parse")
        assert code == 2


class TestPipelines:
    def test_cycles(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycles", "--map", "z^2 - 1", "--max-period", "2"
        )
        obj = json.loads(out)
        assert code == 0
        classes = {c["class"] for c in obj["cycles"]}
        assert "SuperAttracting" in classes and "Repelling" in classes

    def test_parabolic(self, capsys):
        code, out, _ = run_cli(
            capsys, "parabolic", "--map", "z + z^3", "--max-period", "1"
        )
        obj = json.loads(out)["parabolic"]
        assert code == 0
        assert obj["C0"]["e_loc"] == 2
        assert abs(obj["C0"]["nu"][0] - 1.5) < 1e-9

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

    @pytest.mark.parametrize("argv", [
        ("--seed", "1", "parse", "--map", "z^2"),
        ("residue", "--map", "2*z", "--form", "1/z", "--qmc"),
    ])
    def test_removed_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
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
