"""The packaged corpus: expectations, determinism, and the checker itself."""

import copy
import importlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from ratdyn.corpus import _bind_params, check_entry, corpus_run, load_corpus, run_entry
from ratdyn.cycles import load_annotations


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def results(corpus):
    return corpus_run(corpus)


def test_corpus_has_required_maps(corpus):
    names = {e["name"] for e in corpus}
    assert {
        "quad-parabolic-fixed",
        "quad-parabolic-order2",
        "quad-siegel-golden",
        "quad-cremer-liouville",
        "petal-one",
        "petal-two",
        "lattes-deg4",
        "blaschke-herman",
        "mobius-parabolic",
    } <= names


def test_every_expectation_has_provenance(corpus):
    for entry in corpus:
        assert entry["expected"], f"{entry['name']} has no expectations"
        for exp in entry["expected"]:
            tag = exp["provenance"]
            assert tag.startswith(("[PAPER]", "[TRIVIAL]", "[DERIVED]"))


def test_all_entries_pass(results):
    failing = [e["name"] for e in results["entries"] if not e["passed"]]
    assert results["all_passed"], f"corpus misses: {failing}"


def test_reports_are_deterministic(corpus):
    one = run_entry(corpus[0])
    two = run_entry(corpus[0])
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_checker_catches_mismatch(corpus):
    entry = copy.deepcopy(corpus[0])
    report = run_entry(entry)
    entry["expected"].append(
        {"path": "degree", "value": 99, "provenance": "[TRIVIAL]"}
    )
    failures = check_entry(entry, report)
    assert any(f["path"] == "degree" and f["actual"] == 2 for f in failures)


def test_checker_catches_missing_path(corpus):
    entry = copy.deepcopy(corpus[0])
    report = run_entry(entry)
    entry["expected"].append(
        {"path": "no.such.path", "value": 1, "provenance": "[TRIVIAL]"}
    )
    failures = check_entry(entry, report)
    assert any(f["reason"] == "path missing from report" for f in failures)


def test_name_filter(corpus):
    res = corpus_run(corpus, names=["petal-one"])
    assert [e["name"] for e in res["entries"]] == ["petal-one"]
    assert res["all_passed"]


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ratdyn"


def test_packaged_corpus_is_the_data_file():
    obj = json.loads((PACKAGE / "data" / "corpus.json").read_text())
    assert load_corpus() == obj["entries"]


def test_a_renamed_copy_reads_its_own_data(tmp_path, monkeypatch):
    # a second copy of the package under another name (an A/B harness) must
    # not read the installed package's data
    shutil.copytree(PACKAGE, tmp_path / "ratdyn_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "ratdyn_copy" / "data" / "corpus.json").write_text(
        json.dumps({"entries": [{"name": "only"}]}))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        assert importlib.import_module("ratdyn_copy.corpus").load_corpus() == [{"name": "only"}]
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "ratdyn_copy"]:
            del sys.modules[name]


def test_corpus_inputs_pass_validation(corpus):
    # every packaged entry's params and annotations have the validated shapes
    for entry in corpus:
        assert set(_bind_params(entry.get("params"))) == set(entry.get("params", {}))
        assert len(load_annotations(entry.get("annotations", []))) == len(
            entry.get("annotations", []))
