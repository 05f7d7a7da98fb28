"""Loading in forked workers: the same outputs, warnings and errors as one serial pass.

The fixtures are far below the input size at which ``load_corpus`` forks, so
these tests force three workers: they lower the input bytes per worker,
raise the cap on workers and report three usable CPUs. Every test that forks
checks afterwards that no child process is left. The last three tests check
that loading holds a chunk of an input at a time, not the whole of it, nor
the whole of a CaboCha sentence that never ends, nor the whole of a CoNLL-U
input whose blank lines hold a space, which has no empty line to cut at.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from depmetrics import cli, report, treebank
from depmetrics.analysis import CorpusStats
from depmetrics.cli import main
from depmetrics.treebank import iter_parse

from . import reference_treebank, test_golden


def force_workers(monkeypatch, workers: int = 3) -> list[int]:
    """Make load_corpus use ``workers`` processes; return the list that collects forked pids."""
    monkeypatch.setattr(report, "MIN_SHARD_BYTES", 1)
    monkeypatch.setattr(report, "MAX_WORKERS", workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    pids: list[int] = []
    fork = os.fork

    def counted_fork() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def warnings_logged(caplog) -> list[tuple[str, str, str]]:
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    caplog.clear()
    return records


# the cases that read a corpus; ``generate`` reads none
@pytest.mark.parametrize("name", sorted(name for name, (inputs, _) in test_golden.CASES.items() if inputs))
def test_golden_outputs_and_warnings_do_not_depend_on_the_worker_count(
    name, tmp_path, caplog, monkeypatch
):
    (tmp_path / "serial").mkdir()
    (tmp_path / "forked").mkdir()
    serial = test_golden.run_case(name, tmp_path / "serial")
    serial_warnings = warnings_logged(caplog)
    pids = force_workers(monkeypatch)
    forked = test_golden.run_case(name, tmp_path / "forked")
    assert len(pids) == 2
    assert forked == serial
    assert warnings_logged(caplog) == serial_warnings
    golden = {path.name: path.read_bytes() for path in (test_golden.GOLDEN_DIR / name).iterdir()}
    assert forked == golden
    assert_no_child_left()


def test_two_file_metrics_keeps_file_order(data_dir, monkeypatch, capsys):
    paths = [str(data_dir / "noisy.jsonl"), str(data_dir / "sample_200.jsonl")]
    assert main(["metrics", *paths]) == 0
    serial = capsys.readouterr().out
    pids = force_workers(monkeypatch)
    assert main(["metrics", *paths]) == 0
    forked = capsys.readouterr().out
    assert len(pids) == 2
    assert forked == serial
    ids = [json.loads(line)["id"] for line in forked.splitlines()[1:]]
    expected = [
        sentence.id
        for path in paths
        for sentence in iter_parse(Path(path).read_bytes(), "canonical", errors="skip", rejections=[])
        if len(sentence) >= 2
    ]
    assert ids == expected
    assert_no_child_left()


def test_an_error_raised_in_a_child_is_raised_as_in_a_serial_run(
    data_dir, tmp_path, monkeypatch, capsys
):
    add = CorpusStats.add

    def add_until_line_150(self, sentence):
        # sample_200.jsonl has 201 lines: with three workers, line 150 is in the last shard
        if int(sentence.source.rpartition(":")[2]) >= 150:
            raise ValueError(f"cannot fold {sentence.id}")
        add(self, sentence)

    monkeypatch.setattr(CorpusStats, "add", add_until_line_150)
    argv = ["report", str(data_dir / "sample_200.jsonl"), "--output-dir", str(tmp_path)]
    serial = main(argv), capsys.readouterr().err
    pids = force_workers(monkeypatch)
    forked = main(argv), capsys.readouterr().err
    assert len(pids) == 2
    assert forked == serial
    assert serial[0] == 3
    assert serial[1].startswith("internal error: ValueError('cannot fold ")
    assert_no_child_left()


def test_a_missing_second_input_fails_after_the_first_inputs_warnings(
    data_dir, tmp_path, monkeypatch, capsys, caplog
):
    argv = ["validate", str(data_dir / "noisy.jsonl"), str(tmp_path / "missing.jsonl")]
    serial = main(argv), capsys.readouterr(), warnings_logged(caplog)
    pids = force_workers(monkeypatch)
    forked = main(argv), capsys.readouterr(), warnings_logged(caplog)
    assert len(pids) == 2
    assert forked == serial
    code, captured, warnings = serial
    assert code == 1
    assert captured.err.startswith("input error: [Errno 2] No such file or directory")
    assert warnings and all("noisy.jsonl" in message for _, _, message in warnings)
    assert_no_child_left()


def test_children_still_running_are_killed_when_the_parent_fails():
    def work(k):
        if k:
            time.sleep(60)
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        report._in_workers(3, work)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_child_that_cannot_send_its_result_is_an_error():
    with pytest.raises(RuntimeError, match="sent no result"):
        report._in_workers(2, lambda k: lambda: k)  # a lambda does not pickle
    assert_no_child_left()


def test_worker_count_is_the_usable_cpus_capped_at_one_per_mib(tmp_path, data_dir, monkeypatch):
    big = tmp_path / "big.jsonl"
    with open(big, "wb") as handle:
        handle.truncate(3 * report.MIN_SHARD_BYTES)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert report.worker_count([str(big)]) == report.MAX_WORKERS == 2
    monkeypatch.setattr(report, "MAX_WORKERS", 8)
    assert report.worker_count([str(big)]) == 3
    assert report.worker_count([str(big), str(tmp_path / "missing.jsonl")]) == 3
    assert report.worker_count([str(data_dir / "sample_200.jsonl")]) == 1
    assert report.worker_count([]) == 1

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert report.worker_count([str(big)]) == 1

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert report.worker_count([str(big)]) == 1  # forking beside a thread is unsafe
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.worker_count([str(big)]) == 3

    fifo = tmp_path / "more.jsonl"
    os.mkfifo(fifo)
    assert report.worker_count([str(big), str(fifo)]) == 1  # a pipe is read only once
    assert report.worker_count([str(big), str(tmp_path)]) == 1

    monkeypatch.delattr(os, "fork")
    assert report.worker_count([str(big)]) == 1


def test_an_input_read_from_a_pipe_is_loaded_serially(data_dir, tmp_path, monkeypatch, capsys):
    more = tmp_path / "more.jsonl"
    os.mkfifo(more)
    argv = ["validate", str(data_dir / "sample_200.jsonl"), str(more)]
    pids = force_workers(monkeypatch)
    copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    writer = subprocess.Popen([sys.executable, "-c", copy, str(data_dir / "noisy.jsonl"), str(more)])
    try:
        piped = main(argv), capsys.readouterr()
    finally:
        writer.wait(timeout=30)
    assert writer.returncode == 0
    assert pids == []
    monkeypatch.undo()
    more.unlink()
    more.write_bytes((data_dir / "noisy.jsonl").read_bytes())
    assert (main(argv), capsys.readouterr()) == piped
    assert_no_child_left()


def test_a_file_that_workers_read_in_different_versions_is_an_error(
    data_dir, tmp_path, monkeypatch, capsys
):
    version = report._version
    parent = os.getpid()

    def a_later_version_in_children(handle):
        device, inode, size, mtime = version(handle)
        return device, inode, size, mtime + (os.getpid() != parent)

    monkeypatch.setattr(report, "_version", a_later_version_in_children)
    pids = force_workers(monkeypatch)
    path = data_dir / "sample_200.jsonl"
    assert main(["validate", str(path)]) == 1
    assert len(pids) == 2
    assert capsys.readouterr().err == f"input error: {path} changed while it was being read\n"
    assert_no_child_left()


def test_without_fork_every_run_is_the_one_worker_path(tmp_path, monkeypatch):
    monkeypatch.setattr(report, "MIN_SHARD_BYTES", 1)
    monkeypatch.delattr(os, "fork")
    golden = test_golden.GOLDEN_DIR / "validate_jsonl" / "stdout"
    assert test_golden.run_case("validate_jsonl", tmp_path)["stdout"] == golden.read_bytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_metrics_lines_written_in_batches_give_the_golden_output(workers, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "METRIC_BATCH", 7)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where the batches go
    (tmp_path / "run").mkdir()
    if workers > 1:
        force_workers(monkeypatch, workers)
    outputs = test_golden.run_case("metrics_jsonl", tmp_path / "run")
    golden = test_golden.GOLDEN_DIR / "metrics_jsonl"
    assert outputs == {path.name: path.read_bytes() for path in golden.iterdir()}
    assert [path.name for path in tmp_path.iterdir()] == ["run"]  # no batch is left behind
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 3])
def test_a_byte_that_is_not_utf8_is_named_by_file_and_offset(
    workers, data_dir, tmp_path, monkeypatch, capsys
):
    good = tmp_path / "good.jsonl"
    good.write_bytes((data_dir / "noisy.jsonl").read_bytes())
    data = (data_dir / "sample_200.jsonl").read_bytes()
    # past the middle: in the last of three ranges, which begins at a line start after 2/3
    offset = data.index(b'"', data.index(b"\n", len(data) * 2 // 3))
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(data[:offset] + b"\xff" + data[offset + 1 :])
    if workers > 1:
        pids = force_workers(monkeypatch, workers)
    assert main(["validate", str(good), str(bad)]) == 1
    if workers > 1:
        assert len(pids) == workers - 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {bad}: byte {offset} is not UTF-8 (invalid start byte)\n"
    assert_no_child_left()


def traced_load(path: Path, fmt: str) -> tuple[report.CorpusData, int]:
    """Load ``path`` in one process; return the corpus and the peak of the memory traced while loading it."""
    config = report.RunConfig(inputs=[(str(path), fmt)])
    assert report.worker_count([str(path)]) == 1
    tracemalloc.start()
    try:
        corpus = report.load_corpus(config)
        _, high = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return corpus, high


# An input of each format, as the lines of a test file, and what keeps two copies of it apart.
# The canonical input is the first 40 lines of its file, which hold no 20-node sentence: CPython
# 3.11 keeps every freed 20-item tuple on its free list and never reuses one, so the traced peak
# grows with the number of 20-node sentences whatever the reader does. Read the whole file once
# the interpreter in use no longer does that.
HELD_INPUTS = {
    "cabocha": ("sample.cabocha", None, b""),
    "conllu": ("sample_ud.conllu", None, b"\n"),  # a blank line
    "canonical": ("sample_200.jsonl", 40, b""),
}


@pytest.mark.parametrize("fmt", sorted(HELD_INPUTS))
def test_loading_holds_a_chunk_not_the_input(fmt, data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(treebank, "CHUNK_BYTES", 1 << 12)
    name, lines, apart = HELD_INPUTS[fmt]
    data = b"".join((data_dir / name).read_bytes().splitlines(keepends=True)[:lines]) + apart
    sentences = len(list(iter_parse(data, fmt)))  # in raise mode: the input holds no bad sentence

    def peak(repeats: int) -> int:
        path = tmp_path / f"x{repeats}.{fmt}"
        path.write_bytes(data * repeats)
        corpus, high = traced_load(path, fmt)
        assert corpus.accepted == sentences * repeats
        return high

    peak(1)  # the first load compiles the patterns and builds the tables that the later ones reuse
    assert peak(64) < 2 * peak(8)


def test_loading_holds_a_chunk_of_a_cabocha_sentence_that_never_ends(data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(treebank, "CHUNK_BYTES", 1 << 12)
    data = (data_dir / "sample.cabocha").read_bytes()
    header = b"* 0 -1D 0/0 0.000000\n"
    morpheme = b"hai\tinterjection,*,*,*,*,*,hai,HAI,HAI\n"

    def peak(repeats: int) -> int:
        path = tmp_path / f"open{repeats}.cabocha"
        path.write_bytes(data + header + morpheme * (200 * repeats))  # no EOS
        corpus, high = traced_load(path, "cabocha")
        assert corpus.accepted == 3
        want = []  # the reference's rejection
        list(reference_treebank.iter_cabocha(path.read_bytes(), source=path.name, errors="skip", rejections=want))
        assert corpus.inputs[0].rejections == want
        assert [rejection.reason for rejection in want] == [
            f"{path.name}: stream ended inside a sentence (missing EOS)"
        ]
        return high

    assert peak(64) < 2 * peak(8)


def test_loading_holds_a_chunk_of_conllu_whose_blank_lines_hold_a_space(data_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(treebank, "CHUNK_BYTES", 1 << 12)
    text = (data_dir / "sample_ud.conllu").read_bytes().rstrip(b"\n")
    data = text.replace(b"\n\n", b"\n \n") + b"\n \n"  # every sentence, the last too, ends in a line " "
    serial = list(iter_parse(data, "conllu", errors="skip", rejections=[]))

    def peak(repeats: int) -> int:
        path = tmp_path / f"spaced{repeats}.conllu"
        path.write_bytes(data * repeats)
        corpus, high = traced_load(path, "conllu")
        assert corpus.accepted == len(serial) * repeats
        return high

    assert peak(64) < 2 * peak(8)
