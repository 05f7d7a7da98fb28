"""Tests of the benchmark itself, on corpora shrunk to a few sentences per length."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import measure
import workloads
from depmetrics import treebank
from depmetrics.errors import InvalidTree

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "UD_PER_LENGTH", 2)
    monkeypatch.setattr(workloads, "CAB_PER_LENGTH", 4)
    monkeypatch.setattr(workloads, "JSONL_PER_LENGTH", 1)
    # enough corrupted lines that every kind of corruption shows up
    monkeypatch.setattr(workloads, "JSONL_NOISE", 0.3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_corpora(small, tmp_path, name):
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        workloads.WORKLOADS[name](tmp_path / label, seed)

    def files(label: str) -> dict[str, bytes]:
        return {path.name: path.read_bytes() for path in sorted((tmp_path / label).iterdir())}

    assert files("a") == files("b")
    assert files("a") != files("c")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracle_agrees_with_the_program(small, tmp_path, name):
    corpus = workloads.WORKLOADS[name](tmp_path, 3)
    runs = measure.RunSet(corpus, measure.child_env(SRC))
    runs.run()
    runs.run()
    assert runs.problems == []
    assert (runs.attempted, runs.failed, len(runs.walls)) == (2, 0, 2)
    if name == "noisy_jsonl_metrics":
        assert sum(not tree.valid for tree in corpus.trees) > 0
    if name == "bunsetsu_cabocha_report":
        assert runs.oracle.report["lexicon_misses"] > 0


def _corrupt_report(directory: Path) -> None:
    path = directory / "out" / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["pooled_distribution"]["dd"]["counts"]["1"] += 1
    path.write_text(json.dumps(report), encoding="utf-8")


def _corrupt_metrics(directory: Path) -> None:
    path = directory / "out" / "metrics.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["mhd"] += 0.0001
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "name, corrupt",
    [("ud_conllu_report", _corrupt_report), ("noisy_jsonl_metrics", _corrupt_metrics)],
)
def test_corrupted_output_counts_as_failed_run(small, tmp_path, monkeypatch, name, corrupt):
    corpus = workloads.WORKLOADS[name](tmp_path, 5)
    runs = measure.RunSet(corpus, measure.child_env(SRC))
    runs.run()
    real_run_child = measure.run_child

    def run_then_corrupt(*args, **kwargs):
        child = real_run_child(*args, **kwargs)
        corrupt(tmp_path)
        return child

    monkeypatch.setattr(measure, "run_child", run_then_corrupt)
    runs.run()
    assert (runs.attempted, runs.failed, len(runs.walls)) == (2, 1, 1)
    assert runs.problems


def test_output_bytes_must_repeat_across_runs(small, tmp_path):
    corpus = workloads.WORKLOADS["ud_conllu_report"](tmp_path, 5)
    runs = measure.RunSet(corpus, measure.child_env(SRC))
    runs.run()
    with open(tmp_path / "out" / "trend.csv", "a", encoding="utf-8") as handle:
        handle.write("\n")
    assert runs.oracle.check() == ["outputs differ from the first run's bytes"]


def test_tracer_reports_absent_functions_and_passes_exceptions_through():
    tracer = layertrace.Tracer()
    tracer.install({"treebank": ("parse", "validate_tree", "no_such_function"), "no_such_layer": ("f",)})
    try:
        assert sorted(tracer.absent) == ["no_such_layer.f", "treebank.no_such_function"]
        with pytest.raises(InvalidTree):
            treebank.validate_tree(treebank.Sentence.from_heads((2, 1), id="cycle"))
        text = '{"id": "a", "nodes": [{"index": 1, "head": 0}]}\n{"id": "b", "nodes": [{"index": 1, "head": 1}]}\n'
        rejections: list = []
        accepted = treebank.parse(text, "canonical", errors="skip", rejections=rejections)
    finally:
        tracer.uninstall()
    assert [s.id for s in accepted] == ["a"] and len(rejections) == 1
    assert tracer.counts == {"accepted": 1, "rejected": 1, "nodes_in": 4}
    assert tracer.spans["treebank.parse"][0] == 1
    assert tracer.spans["treebank.validate_tree"][0] == 3
    assert not hasattr(treebank.parse, "__wrapped__")


def test_counter_that_no_longer_fits_is_dropped_not_fatal():
    tracer = layertrace.Tracer()
    tracer.install({"treebank": ("parse",)})
    try:
        treebank.parse('{"id": "a", "nodes": [{"index": 1, "head": 0}]}', "canonical")  # no rejections list
    finally:
        tracer.uninstall()
    assert "accepted" not in tracer.counts and tracer.spans["treebank.parse"][0] == 1


def test_all_workloads_print_every_metric(small, tmp_path, capsys):
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in workloads.WORKLOADS:
            result = measure.run_workload(name, SRC, tmp_path, 1, 0.0, bool(trace))
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == {m["name"] for m in bench[key]}
            if trace and name == "noisy_jsonl_metrics":
                assert all(v["value"] == 0 for m, v in result["metrics"].items() if m.startswith("analysis."))
    assert "error_rate = 0.0 ratio" in capsys.readouterr().out


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "ud_conllu_report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0 and done.stdout == ""
