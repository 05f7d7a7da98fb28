"""Run configuration, corpus loading, and deterministic output rendering.

One run turns input files into a fixed set of CSV tables plus a consolidated
JSON report. Identical inputs and configuration produce byte-identical
outputs: rows are explicitly ordered (ascending length, metric name, valency
class), floats are rendered with fixed formats, and no timestamps are
embedded. Every run also emits a metadata block (tool version, config echo,
input digests) sufficient to reproduce it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import pickle
import secrets
import signal
import stat
import threading
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn, Protocol, Sequence, TypeVar

from . import __version__, treebank
from .analysis import (
    VALENCY_MODES,
    CorpusStats,
    CorrelationPoint,
    SeriesPoint,
    ValencyCell,
    ValencyFit,
    conditional_distributions,
    entropy_by_sl,
    find_intersection,
    fit_valency_models,
    length_histogram,
    mean_metric_by_sl,
    pooled_distribution,
    spearman_by_sl,
    split_gated,
    valency_conditioned_counts,
)
from .errors import ConfigError, EmptyLexicon, EmptySelection
from .stats import Distribution, significance_stars
from .treebank import FORMATS, Rejection, Sentence, ValencyLexicon, iter_byte_range

log = logging.getLogger(__name__)

TOOL_NAME = "depmetrics"

ENTROPY_BASES = {"2": 2.0, "e": math.e, "10": 10.0}
LOG_BASES = {"e": math.e, "10": 10.0}


@dataclass
class RunConfig:
    """Declarative settings for one analysis run; see the CLI for defaults."""

    inputs: list[tuple[str, str]] = field(default_factory=list)
    sl_min: int = 2
    sl_max: int = 20
    dist_sls: tuple[int, ...] = (5, 10, 15, 20, 25, 30)
    min_bucket: int = 10
    valency_mode: str = "root-out-degree"
    lexicon_path: str | None = None
    entropy_base: str = "2"
    log_base: str = "e"
    output_dir: str = "."
    drop_punct: bool = False

    def validate(self) -> None:
        if not 2 <= self.sl_min <= self.sl_max:
            raise ConfigError(f"need 2 <= sl_min <= sl_max, got [{self.sl_min}, {self.sl_max}]")
        if self.min_bucket < 3:
            raise ConfigError(f"min_bucket must be >= 3, got {self.min_bucket}")
        if any(sl < 2 for sl in self.dist_sls):
            raise ConfigError(f"distribution lengths must all be >= 2, got {list(self.dist_sls)}")
        if self.valency_mode not in VALENCY_MODES:
            raise ConfigError(f"unknown valency mode {self.valency_mode!r}")
        if self.valency_mode == "lexicon" and not self.lexicon_path:
            raise ConfigError("valency mode 'lexicon' requires --lexicon PATH")
        if self.valency_mode != "lexicon" and self.lexicon_path is not None:
            raise ConfigError(f"--lexicon needs valency mode 'lexicon', not {self.valency_mode!r}")
        if self.entropy_base not in ENTROPY_BASES:
            raise ConfigError(f"entropy base must be one of {sorted(ENTROPY_BASES)}")
        if self.log_base not in LOG_BASES:
            raise ConfigError(f"log base must be one of {sorted(LOG_BASES)}")
        for path, fmt in self.inputs:
            if fmt not in FORMATS:
                raise ConfigError(f"unknown input format {fmt!r}; expected one of {FORMATS}")
            if self.drop_punct and fmt != "conllu":
                raise ConfigError(f"--drop-punct applies to CoNLL-U only, but {path} is {fmt}")

    @property
    def entropy_base_value(self) -> float:
        return ENTROPY_BASES[self.entropy_base]

    @property
    def log_base_value(self) -> float:
        return LOG_BASES[self.log_base]

    def to_json_dict(self) -> dict[str, object]:
        # output_dir is deliberately not echoed: the same corpus and settings
        # must produce byte-identical outputs wherever they are written.
        echo = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output_dir"}
        echo["inputs"] = [{"path": path, "format": fmt} for path, fmt in self.inputs]
        echo["dist_sls"] = list(self.dist_sls)
        return echo


class Fold(Protocol):
    """What :func:`load_corpus` feeds each accepted sentence of two or more nodes to.

    Each worker fills one fold per input file with ``add``; the parent then
    combines them with ``merge`` in (file, shard) order, the order of a
    serial pass.
    """

    def add(self, sentence: Sentence) -> None: ...

    def merge(self, other: Any) -> None: ...


class CountOnly:
    """The fold of ``validate``: it keeps nothing, since load_corpus counts the sentences."""

    def add(self, sentence: Sentence) -> None:
        pass

    def merge(self, other: CountOnly) -> None:
        pass


@dataclass
class InputFile:
    """What loading one input file, or one byte range of it, took from it."""

    path: str
    format: str
    version: tuple[int, ...]  # device, inode, size and mtime of the file read
    fold: Fold
    sha256: str = ""  # of the whole file; only range 0 computes it
    accepted: int = 0
    single_node: int = 0
    rejections: list[Rejection] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return len(self.rejections)

    def merge(self, other: InputFile) -> None:
        """Add what a later byte range of the same file gave."""
        if other.version != self.version:
            raise OSError(f"{self.path} changed while it was being read")
        self.accepted += other.accepted
        self.single_node += other.single_node
        self.rejections += other.rejections
        self.fold.merge(other.fold)


@dataclass
class CorpusData:
    """What loading the configured inputs leaves: one record per input file, and the corpus fold."""

    inputs: list[InputFile]
    fold: Any  # a CorpusStats, unless load_corpus was given another kind of fold

    @property
    def accepted(self) -> int:
        return sum(record.accepted for record in self.inputs)

    @property
    def rejections(self) -> list[Rejection]:
        return [rejection for record in self.inputs for rejection in record.rejections]

    @property
    def single_node_count(self) -> int:
        return sum(record.single_node for record in self.inputs)


MIN_SHARD_BYTES = 1 << 20  # input bytes per worker, so that a small run never forks
MAX_WORKERS = 2  # more were never measured: that needs a machine with more than 2 cores


def worker_count(paths: Sequence[str]) -> int:
    """How many processes load the inputs: one per usable CPU, but at most one per MiB of input.

    It is 1 where ``os.fork`` is missing, while other threads run (a forked
    child could find one holding a lock), or when an input is not a regular
    file: each worker seeks to its own byte range of every input, and a pipe
    can be read only once, from its start.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        cpus = 0
    size = 0
    for path in paths:
        try:
            info = os.stat(path)
        except OSError:  # a missing file fails later, in input order
            continue
        if not stat.S_ISREG(info.st_mode):
            return 1
        size += info.st_size
    return max(1, min(cpus or os.cpu_count() or 1, MAX_WORKERS, size // MIN_SHARD_BYTES))


def load_corpus(config: RunConfig, new_fold: Callable[[], Fold] | None = None) -> CorpusData:
    """Parse all configured inputs, skipping invalid sentences with a reason, and fold them.

    The default fold is a :class:`~depmetrics.analysis.CorpusStats` with
    the lexicon of :func:`load_lexicon`, which is read and checked first,
    before any input; a fold given here reads no lexicon. Each
    input is split into :func:`worker_count` byte ranges of about equal
    size, cut between sentences (:func:`~depmetrics.treebank.iter_byte_range`).
    The parent forks a child for every range but the first, loads the first
    itself, and merges the workers' records of each file in range order, so
    the result, the rejection warnings and an error raised while loading are
    those of one serial pass. A file whose workers read different versions
    of it is an error. No sentence is kept, and no worker holds more of an
    input than ``CHUNK_BYTES`` and a sentence.
    """
    new_fold = new_fold or partial(CorpusStats, lexicon=load_lexicon(config))
    workers = worker_count([path for path, _ in config.inputs])
    shards = _in_workers(workers, lambda k: _load_shard(config, new_fold, k, workers))
    fold = new_fold()
    inputs = []
    for i in range(len(config.inputs)):
        for done, error in shards:
            if i == len(done):
                raise error  # type: ignore[misc]  # a shard stops at the file that failed
        record = shards[0][0][i]
        for done, _ in shards[1:]:
            record.merge(done[i])
        for rejection in record.rejections:
            log.warning("skipping sentence at %s: %s", rejection.source, rejection.reason)
        fold.merge(record.fold)
        inputs.append(record)
    return CorpusData(inputs, fold)


def _load_shard(
    config: RunConfig, new_fold: Callable[[], Fold], k: int, parts: int
) -> tuple[list[InputFile], Exception | None]:
    """Load byte range k of ``parts`` of every input, in order, one file at a time.

    Range 0 also hashes each whole file, in chunks. Stops at the first error
    and returns it beside the files done, so that :func:`load_corpus`
    raises it where a serial pass would.
    """
    done: list[InputFile] = []
    options = {"drop_punct": True} if config.drop_punct else {}
    try:
        for path, fmt in config.inputs:
            with open(path, "rb") as handle:
                part = InputFile(path, fmt, _version(handle), new_fold())
                digest = hashlib.sha256() if k == 0 else None
                for sentence in iter_byte_range(
                    handle,
                    fmt,
                    k,
                    parts,
                    part.version[2],
                    name=path,
                    digest=digest,
                    source=os.path.basename(path),
                    errors="skip",
                    rejections=part.rejections,
                    **options,
                ):
                    part.accepted += 1
                    if len(sentence) >= 2:
                        part.fold.add(sentence)
                    else:
                        part.single_node += 1
                if digest is not None:
                    for chunk in iter(lambda: handle.read(treebank.CHUNK_BYTES), b""):
                        digest.update(chunk)  # the bytes after range 0
                    part.sha256 = digest.hexdigest()
            done.append(part)
    except Exception as exc:  # the worker's boundary: handed to load_corpus
        return done, exc
    return done, None


def _version(handle: Any) -> tuple[int, ...]:
    """The device, inode, size and mtime of an open input."""
    info = os.fstat(handle.fileno())
    return (info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns)


T = TypeVar("T")


def _in_workers(workers: int, work: Callable[[int], T]) -> list[T]:
    """``[work(k) for k in range(workers)]``, with ``work(0)`` run here and the rest in forked children.

    Each child sends its pickled result through a pipe and leaves through
    ``os._exit``. Every child is reaped before this returns; on an error,
    children still running are killed first.
    """
    children: list[tuple[int, int]] = []  # pid and the read end of its pipe
    reaped: set[int] = set()
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _run_child(write_end, work, k)
            os.close(write_end)
            children.append((pid, read_end))
        results = [work(0)]
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            if not payload:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"worker process {pid} sent no result (exit status {code})")
            results.append(pickle.loads(payload))  # bytes our own child wrote
        return results
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if pid not in reaped:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_child(write_end: int, work: Callable[[int], object], k: int) -> NoReturn:
    """Run ``work(k)`` in a forked child, send the pickled result, and leave.

    ``os._exit`` skips the parent's cleanup, buffers and ``atexit`` hooks that
    the child inherited; a child that fails exits with status 1 and sends nothing.
    """
    status = 1
    try:
        payload = pickle.dumps(work(k), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


@dataclass
class Analyses:
    """The computed tables of one run; the ones a command does not write stay empty."""

    length_hist: dict[int, int] = field(default_factory=dict)  # full corpus, no length window
    pooled: dict[str, Distribution] = field(default_factory=dict)
    conditional: dict[str, dict[int, Distribution]] = field(default_factory=dict)
    entropy_points: dict[str, list[SeriesPoint]] = field(default_factory=dict)
    entropy_gated: dict[str, list[SeriesPoint]] = field(default_factory=dict)
    mdd_series: list[SeriesPoint] = field(default_factory=list)
    mhd_series: list[SeriesPoint] = field(default_factory=list)
    crossings: list[tuple[int, int]] = field(default_factory=list)
    corr_points: list[CorrelationPoint] = field(default_factory=list)
    corr_gated: list[CorrelationPoint] = field(default_factory=list)
    valency_cells: list[ValencyCell] = field(default_factory=list)
    valency_fits: list[ValencyFit] = field(default_factory=list)
    lexicon_misses: int = 0


def load_lexicon(config: RunConfig) -> ValencyLexicon | None:
    """The valency lexicon of lexicon mode, read, checked and not empty; None in the other mode."""
    lexicon_path = config.lexicon_path
    if config.valency_mode != "lexicon":
        return None
    if not lexicon_path:  # a config that did not pass RunConfig.validate
        raise ConfigError("valency mode 'lexicon' requires --lexicon PATH")
    lexicon = ValencyLexicon.from_tsv(Path(lexicon_path).read_bytes(), source=lexicon_path)
    if not len(lexicon):
        raise EmptyLexicon(f"{lexicon_path}: lexicon mode requires a non-empty valency lexicon")
    return lexicon


def compute_analyses(config: RunConfig, corpus: CorpusData, command: str = "report") -> Analyses:
    """Read from the corpus fold the tables that ``command`` writes: every one for ``report``.

    The length histogram covers the full corpus (including single-node
    sentences); everything else is restricted to [sl_min, sl_max], which
    must hold a sentence. Only the tables asked for are read, so only their
    warnings are logged.
    """
    stats: CorpusStats = corpus.fold
    window = stats.window(config.sl_min, config.sl_max)
    if not window.by_sl:
        raise EmptySelection(f"no sentences with length in [{config.sl_min}, {config.sl_max}]")
    analyses = Analyses()
    tables = COMMAND_TABLES[command]
    if command == "report":
        analyses.length_hist = length_histogram(stats)
        if corpus.single_node_count:
            analyses.length_hist = {1: corpus.single_node_count, **analyses.length_hist}
    if "dist.csv" in tables:
        for metric in ("dd", "hd"):
            analyses.pooled[metric] = pooled_distribution(stats, metric, config.sl_min, config.sl_max)
            analyses.conditional[metric] = conditional_distributions(window, metric, config.dist_sls)
    if "entropy.csv" in tables:
        for metric in ("dd", "hd"):
            points = entropy_by_sl(window, metric, base=config.entropy_base_value)
            analyses.entropy_points[metric], analyses.entropy_gated[metric] = split_gated(
                points, config.min_bucket
            )
    if "trend.csv" in tables:
        analyses.mdd_series, analyses.mhd_series = mean_metric_by_sl(window)
        analyses.crossings = find_intersection(window)
    if "corr.csv" in tables:
        analyses.corr_points, analyses.corr_gated = split_gated(
            spearman_by_sl(window), config.min_bucket
        )
    if "valency.csv" in tables:
        analyses.valency_cells, analyses.lexicon_misses = valency_conditioned_counts(window)
        analyses.valency_fits = fit_valency_models(
            analyses.valency_cells, log_base=config.log_base_value
        )
    return analyses


# --- rendering ---------------------------------------------------------------


def _f4(x: float) -> str:
    return f"{x:.4f}"


def _prob(x: float) -> str:
    return f"{x:.6f}"


def _pval(x: float) -> str:
    return f"{x:.6g}"


def render_dist_csv(config: RunConfig, analyses: Analyses) -> str:
    lines = ["metric,sl_bucket,value,count,probability"]
    for metric in ("dd", "hd"):
        conditional = analyses.conditional[metric]
        buckets = [(f"{config.sl_min}-{config.sl_max}", analyses.pooled[metric])]
        buckets += [(str(sl), conditional[sl]) for sl in sorted(conditional)]
        for bucket, dist in buckets:
            total = dist.total
            for value in dist.support():
                count = dist.counts[value]
                lines.append(f"{metric},{bucket},{value},{count},{_prob(count / total)}")
    return "\n".join(lines) + "\n"


def _entropy_csv(points_by_metric: dict[str, list[SeriesPoint]]) -> str:
    lines = ["metric,sl,entropy_bits,n"]
    for metric in ("dd", "hd"):
        for point in points_by_metric.get(metric, []):
            lines.append(f"{metric},{point.sl},{_f4(point.value)},{point.n}")
    return "\n".join(lines) + "\n"


def render_entropy_csv(analyses: Analyses) -> str:
    return _entropy_csv(analyses.entropy_points)


def render_entropy_gated_csv(analyses: Analyses) -> str:
    return _entropy_csv(analyses.entropy_gated)


def render_trend_csv(analyses: Analyses) -> str:
    lines = ["sl,mean_mdd,mean_mhd,n"]
    for mdd_point, mhd_point in zip(analyses.mdd_series, analyses.mhd_series):
        lines.append(
            f"{mdd_point.sl},{_f4(mdd_point.value)},{_f4(mhd_point.value)},{mdd_point.n}"
        )
    return "\n".join(lines) + "\n"


def _corr_csv(points: Sequence[CorrelationPoint]) -> str:
    lines = ["sl,rho,p_value,n"]
    for point in points:
        lines.append(f"{point.sl},{_f4(point.rho)},{_pval(point.p_value)},{point.n}")
    return "\n".join(lines) + "\n"


def render_corr_csv(analyses: Analyses) -> str:
    return _corr_csv(analyses.corr_points)


def render_corr_gated_csv(analyses: Analyses) -> str:
    return _corr_csv(analyses.corr_gated)


def render_valency_csv(analyses: Analyses) -> str:
    lines = ["valency,sl,avg_dd1,avg_hd1,n"]
    for cell in analyses.valency_cells:
        lines.append(f"{cell.valency},{cell.sl},{_f4(cell.avg_dd1)},{_f4(cell.avg_hd1)},{cell.n}")
    return "\n".join(lines) + "\n"


def render_valency_fit_csv(analyses: Analyses) -> str:
    lines = [
        "metric,valency,n,slope,se_slope,stars_slope,intercept,se_intercept,stars_intercept,model,adj_r2"
    ]
    for fit in analyses.valency_fits:
        r = fit.result
        lines.append(
            ",".join(
                [
                    fit.metric,
                    str(fit.valency),
                    str(r.n),
                    _f4(r.slope),
                    _f4(r.se_slope),
                    significance_stars(r.p_slope),
                    _f4(r.intercept),
                    _f4(r.se_intercept),
                    significance_stars(r.p_intercept),
                    f'"{r.model_string()}"',
                    _f4(r.adj_r2),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _dist_json(dist: Distribution) -> dict[str, object]:
    return {
        "total": dist.total,
        "counts": {str(v): dist.counts[v] for v in dist.support()},
        "probabilities": {str(v): round(p, 6) for v, p in dist.probabilities().items()},
    }


def _entropy_json(points_by_metric: dict[str, list[SeriesPoint]]) -> dict[str, object]:
    return {
        m: [{"sl": p.sl, "entropy": round(p.value, 4), "n": p.n} for p in points_by_metric[m]]
        for m in ("dd", "hd")
    }


def _correlation_json(points: Sequence[CorrelationPoint]) -> list[dict[str, object]]:
    return [{"sl": p.sl, "rho": round(p.rho, 4), "p_value": p.p_value, "n": p.n} for p in points]


def run_meta(config: RunConfig, corpus: CorpusData, command: str) -> dict[str, object]:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "config": config.to_json_dict(),
        "inputs": [
            {
                "path": s.path,
                "format": s.format,
                "sha256": s.sha256,
                "accepted": s.accepted,
                "rejected": s.rejected,
            }
            for s in corpus.inputs
        ],
        "sentence_counts": {
            "accepted": corpus.accepted,
            "rejected": len(corpus.rejections),
            "single_node": corpus.single_node_count,
        },
    }


def report_json_dict(config: RunConfig, corpus: CorpusData, analyses: Analyses) -> dict[str, object]:
    return {
        "meta": run_meta(config, corpus, "report"),
        "length_histogram": {str(sl): count for sl, count in analyses.length_hist.items()},
        "pooled_distribution": {m: _dist_json(analyses.pooled[m]) for m in ("dd", "hd")},
        "conditional_distributions": {
            m: {str(sl): _dist_json(d) for sl, d in sorted(analyses.conditional[m].items())}
            for m in ("dd", "hd")
        },
        "entropy_by_sl": {"base": config.entropy_base, "series": _entropy_json(analyses.entropy_points)},
        "trend": [
            {"sl": m.sl, "mean_mdd": round(m.value, 4), "mean_mhd": round(h.value, 4), "n": m.n}
            for m, h in zip(analyses.mdd_series, analyses.mhd_series)
        ],
        "crossings": [list(interval) for interval in analyses.crossings],
        "correlation_by_sl": _correlation_json(analyses.corr_points),
        "valency": {
            "mode": config.valency_mode,
            "lexicon_misses": analyses.lexicon_misses,
            "cells": [
                {
                    "valency": c.valency,
                    "sl": c.sl,
                    "avg_dd1": round(c.avg_dd1, 4),
                    "avg_hd1": round(c.avg_hd1, 4),
                    "n": c.n,
                }
                for c in analyses.valency_cells
            ],
            "fits": [
                {
                    "metric": f.metric,
                    "valency": f.valency,
                    "n": f.result.n,
                    "slope": round(f.result.slope, 4),
                    "se_slope": round(f.result.se_slope, 4),
                    "p_slope": f.result.p_slope,
                    "intercept": round(f.result.intercept, 4),
                    "se_intercept": round(f.result.se_intercept, 4),
                    "p_intercept": f.result.p_intercept,
                    "model": f.result.model_string(),
                    "adj_r2": round(f.result.adj_r2, 4),
                }
                for f in analyses.valency_fits
            ],
        },
        "gated": {
            "min_bucket": config.min_bucket,
            "entropy": _entropy_json(analyses.entropy_gated),
            "correlation": _correlation_json(analyses.corr_gated),
        },
        "rejections": [
            {"source": r.source, "reason": r.reason, "sentence_id": r.sentence_id}
            for r in corpus.rejections
        ],
    }


def json_text(obj: object) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


REPORT_RENDERERS = {
    "dist.csv": lambda cfg, a: render_dist_csv(cfg, a),
    "entropy.csv": lambda cfg, a: render_entropy_csv(a),
    "entropy_gated.csv": lambda cfg, a: render_entropy_gated_csv(a),
    "trend.csv": lambda cfg, a: render_trend_csv(a),
    "corr.csv": lambda cfg, a: render_corr_csv(a),
    "corr_gated.csv": lambda cfg, a: render_corr_gated_csv(a),
    "valency.csv": lambda cfg, a: render_valency_csv(a),
    "valency_fit.csv": lambda cfg, a: render_valency_fit_csv(a),
}

#: The tables each table command writes, in order; ``report`` also writes report.json.
COMMAND_TABLES = {
    "dist": ("dist.csv",),
    "entropy": ("entropy.csv", "entropy_gated.csv"),
    "trend": ("trend.csv",),
    "corr": ("corr.csv", "corr_gated.csv"),
    "valency": ("valency.csv", "valency_fit.csv"),
    "report": tuple(REPORT_RENDERERS),
}


def write_files(files: dict[Path, Iterable[str]]) -> None:
    """Write each text, given as an iterable of pieces, as UTF-8: all of them or none.

    A target that exists and, with symlinks followed, is not a regular file,
    such as a FIFO or a terminal, is opened and written in place, after the
    others. Every other text goes to a temporary file beside the file that
    its target resolves to (:func:`os.path.realpath`); only when every text
    is written are they renamed into place, so a failure leaves the previous
    files as they were and a symlink stays a symlink. The temporary files
    are removed on failure.
    """
    pending: list[tuple[Path, Path]] = []
    in_place: list[tuple[Path, Iterable[str]]] = []
    try:
        for target, pieces in files.items():
            if target.exists() and not target.is_file():
                in_place.append((target, pieces))
                continue
            real = Path(os.path.realpath(target))
            temporary = real.with_name(f".{real.name}.{secrets.token_hex(4)}.tmp")
            handle = open(temporary, "xb")  # "x": never truncate a file that is not ours
            pending.append((temporary, real))
            with handle:
                handle.writelines(piece.encode("utf-8") for piece in pieces)
        for target, pieces in in_place:
            with open(target, "wb") as handle:
                handle.writelines(piece.encode("utf-8") for piece in pieces)
        for temporary, real in pending:
            os.replace(temporary, real)
    except BaseException:
        for temporary, _ in pending:
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
        raise


def write_outputs(output_dir: str, files: dict[str, str]) -> list[str]:
    """Write rendered texts into ``output_dir`` with :func:`write_files`; return their paths."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    targets = {directory / name: (text,) for name, text in files.items()}
    write_files(targets)
    return [str(path) for path in targets]
