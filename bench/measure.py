"""Timed CLI runs, the traced runs and the result line.

Every CLI run is a child process (``python -m depmetrics ...``), started
only after the previous one has ended, so the two-core box runs nothing
else of ours meanwhile. A run's wall time is taken around the child, its
peak RSS from ``os.wait4`` for that pid (``RUSAGE_CHILDREN`` would give the
maximum over every child reaped so far), and its stdout and stderr go to
files, so a child that logs one warning per rejected sentence never blocks
on a full pipe. A run fails on a nonzero exit or on any oracle problem.

The end-to-end times are divided by the host slowdown measured around each
run (see ``hostspeed``); the wall-clock figures are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import layertrace
import workloads
from oracle import Oracle

CHILD_TIMEOUT_S = 40.0  # a normal run takes about a second
MIN_RUNS = 3  # timed runs a set needs for a median, unless a run has failed
MAX_PROBLEMS_SHOWN = 5


@dataclass
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stderr_lines: int


def child_env(src: Path) -> dict[str, str]:
    """The environment of every child: the package from ``src`` first, a fixed hash seed."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")


def run_child(argv: list[str], cwd: Path, env: dict[str, str], log_stem: str) -> Child:
    """Run one child to its end; kill it if it outlives ``CHILD_TIMEOUT_S``."""
    with open(cwd / f"{log_stem}.stdout", "wb") as out, open(cwd / f"{log_stem}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(cwd / f"{log_stem}.stderr", "rb") as err:
        stderr_lines = sum(1 for _ in err)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, stderr_lines)


@dataclass
class RunSet:
    """Every run made on one corpus, with what the oracle found."""

    corpus: workloads.Corpus
    env: dict[str, str]
    oracle: Oracle = field(init=False)
    walls: list[float] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)  # host slowdown around each timed run
    rss_mb: list[float] = field(default_factory=list)
    traces: list[dict[str, float]] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)  # traced functions the package no longer has

    def __post_init__(self) -> None:
        self.oracle = Oracle(self.corpus)

    def _prepare_output(self) -> None:
        out = self.corpus.directory / workloads.OUTPUT_DIR
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()

    def _finish(self, exit_code: int) -> bool:
        self.attempted += 1
        problems = [f"exit code {exit_code}"] if exit_code != 0 else self.oracle.check()
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def run(self, timed: bool = True) -> None:
        """One untraced CLI run; ``timed=False`` is the warm-up, checked but not recorded."""
        self._prepare_output()
        argv = [sys.executable, "-m", "depmetrics", *self.corpus.argv]
        child, _, slowdown = hostspeed.bracketed(
            lambda: run_child(argv, self.corpus.directory, self.env, "cli")
        )
        if self._finish(child.exit_code) and timed:
            self.walls.append(child.wall_s)
            self.slowdowns.append(slowdown)
            self.rss_mb.append(child.peak_rss_mb)

    def run_traced(self, src: Path) -> None:
        """One in-process ``cli.main`` run under ``layertrace``, in its own interpreter."""
        self._prepare_output()
        trace_path = self.corpus.directory / "trace.json"
        trace_path.unlink(missing_ok=True)
        script = Path(layertrace.__file__).resolve()
        argv = [sys.executable, str(script), str(src), str(trace_path), "--", *self.corpus.argv]
        child = run_child(argv, self.corpus.directory, self.env, "traced")
        written = child.exit_code == 0 and trace_path.is_file()
        trace = json.loads(trace_path.read_text(encoding="utf-8")) if written else {}
        if not self._finish(trace.get("exit_code", child.exit_code or 1)):
            return
        metrics = layer_metrics(trace)
        metrics["report.stderr_lines"] = child.stderr_lines
        metrics["report.output_bytes"] = sum(p.stat().st_size for p in self.oracle.output_paths())
        self.traces.append(metrics)
        self.traced_walls.append(child.wall_s)
        self.absent.update(trace["absent"])


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced run; a function that was absent gives none."""
    spans, counts = trace["spans"], trace["counts"]
    out: dict[str, float] = {
        "cli.import_s": trace["import_s"],
        "gc.pause_s": trace["gc"]["pause_s"],
        "gc.collections": trace["gc"]["collections"],
    }

    def put(metric: str, span: str, field_index: int) -> None:
        if span in spans:
            out[metric] = spans[span][field_index]

    calls, busy, self_time = 0, 1, 2
    put("cli.command_self_s", "cli.main", self_time)
    put("report.load_corpus_self_s", "report.load_corpus", self_time)
    put("report.compute_analyses_self_s", "report.compute_analyses", self_time)
    put("report.write_outputs_s", "report.write_outputs", busy)
    render = [spans[f"report.{name}"][self_time] for name in layertrace.RENDER if f"report.{name}" in spans]
    if render:
        out["report.render_s"] = sum(render)
    put("treebank.parse_self_s", "treebank.parse", self_time)
    put("treebank.validate_tree_s", "treebank.validate_tree", busy)
    put("metrics.metric_record_self_s", "metrics.metric_record", self_time)
    put("metrics.node_depths_s", "metrics.node_depths", busy)
    put("metrics.records", "metrics.metric_record", calls)
    for name in layertrace.ANALYSES:
        put(f"analysis.{name}_s", f"analysis.{name}", busy)
    for name in layertrace.STATS:
        put(f"stats.{name}_s", f"stats.{name}", busy)
        put(f"stats.{name}_calls", f"stats.{name}", calls)
    if "accepted" in counts:
        sentences = counts["accepted"] + counts["rejected"]
        out["treebank.sentences_in"] = sentences
        out["treebank.accept_ratio"] = counts["accepted"] / sentences if sentences else 0.0
    if "nodes_in" in counts:
        out["treebank.nodes_in"] = counts["nodes_in"]
    return out


def traced_setup(make, directory: Path, seed: int) -> tuple[workloads.Corpus, dict[str, float]]:
    """Build the corpus with ``randtree.generate`` wrapped; figures are per set-up."""
    tracer = layertrace.Tracer()
    tracer.install({"randtree": ("generate",)})
    try:
        corpus = make(directory, seed)
    finally:
        tracer.uninstall()
    if "randtree.generate" not in tracer.spans:
        return corpus, {}
    return corpus, {
        "randtree.generate_s": tracer.spans["randtree.generate"][1] / workloads.SETUP_REPEATS,
        "randtree.trees": tracer.counts.get("randtree.generate", 0) // workloads.SETUP_REPEATS,
    }


def _median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = [k for k in dicts[0] if all(k in d for d in dicts)]
    return {k: statistics.median(d[k] for d in dicts) for k in sorted(keys)}


END_TO_END_UNITS = {"nodes_per_s": "nodes/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_slowdown")):
        return "ratio"
    return "count"


def run_workload(name: str, src: Path, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload in a fresh directory under ``work``.

    Prints its figures and returns the result object.
    """
    directory = work / f"{name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    env = child_env(src)
    try:
        make = workloads.WORKLOADS[name]
        if trace:
            corpus, setup_trace = traced_setup(make, directory, seed)
        else:
            corpus = make(directory, seed)
        runs = RunSet(corpus, env)
        trees = corpus.trees
        print(f"{name} seed {seed}: {len(corpus.files)} file(s), {len(trees)} sentences "
              f"({sum(not t.valid for t in trees)} corrupted), {corpus.nodes} nodes, "
              f"{corpus.input_bytes} bytes; depmetrics {' '.join(corpus.argv)}")
        runs.run(timed=False)  # warm-up: bytecode cache and page cache
        untraced_until = time.perf_counter() + (seconds / 2 if trace else seconds)
        while time.perf_counter() < untraced_until or (len(runs.walls) < MIN_RUNS and not runs.failed):
            runs.run()
        if trace:
            traced_until = time.perf_counter() + seconds / 2
            while time.perf_counter() < traced_until or not (runs.traces or runs.failed):
                runs.run_traced(src)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for problem in runs.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"{name}: FAILED CHECK {problem}", file=sys.stderr)
    for function in sorted(runs.absent):
        print(f"{name}: {function} is absent, so its metrics are not reported", file=sys.stderr)
    print(f"{name}: error_rate = {runs.failed / runs.attempted} ratio ({runs.failed} of "
          f"{runs.attempted} runs failed; {len(runs.walls)} timed, {len(runs.traces)} traced)")
    if trace:
        metrics = _median_of(runs.traces) if runs.traces else {}
        metrics.update(setup_trace)
        if runs.slowdowns:
            metrics["bench.host_slowdown"] = statistics.median(runs.slowdowns)
        if runs.walls and runs.traced_walls:
            metrics["bench.trace_overhead_s"] = (
                statistics.median(runs.traced_walls) - statistics.median(runs.walls)
            )
        units = {metric: _unit(metric) for metric in metrics}
    else:
        setup = corpus.setups
        metrics = {"setup_s": statistics.median(wall / slowdown for wall, slowdown in setup)}
        print(f"{name}: wall-clock setup_s = {statistics.median(wall for wall, _ in setup)} s")
        if runs.walls:
            per_run = [corpus.nodes * f / wall for wall, f in zip(runs.walls, runs.slowdowns)]
            metrics["nodes_per_s"] = statistics.median(per_run)
            metrics["peak_rss_mb"] = statistics.median(runs.rss_mb)
            print(f"{name}: wall-clock nodes_per_s = "
                  f"{statistics.median(corpus.nodes / wall for wall in runs.walls)} nodes/s; "
                  f"host slowdown {statistics.median(runs.slowdowns)} (median)")
            if len(per_run) >= 4:
                q1, q2, q3 = statistics.quantiles(per_run, n=4)
                print(f"{name}: nodes_per_s quartiles {q1:.0f} / {q2:.0f} / {q3:.0f} "
                      f"over {len(per_run)} runs")
        units = END_TO_END_UNITS
    for metric in sorted(metrics):
        print(f"{name}: {metric} = {metrics[metric]} {units[metric]}")
    return {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)},
    }


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description="Benchmark the depmetrics CLI on seeded corpora."
    )
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs instead of end-to-end metrics")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    src, work = root / "src", root / ".bench_work"
    try:
        results = {
            name: run_workload(name, src, work, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    finally:
        try:
            work.rmdir()
        except OSError:  # not empty: another benchmark process is using it
            pass
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0
