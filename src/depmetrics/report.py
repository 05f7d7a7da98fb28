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
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, TypeVar,
)

from . import __version__, treebank
from .errors import ConfigError, EmptyLexicon, EmptySelection
from .treebank import FORMATS, Rejection, Sentence, ValencyLexicon, iter_byte_range

if TYPE_CHECKING:  # the table path imports them when it runs: metrics and validate never do
    from .analysis import CorrelationPoint, SeriesPoint, ValencyCell, ValencyFit
    from .stats import Distribution

log = logging.getLogger(__name__)

TOOL_NAME = "depmetrics"

ENTROPY_BASES = {"2": 2.0, "e": math.e, "10": 10.0}
LOG_BASES = {"e": math.e, "10": 10.0}
VALENCY_MODES = ("lexicon", "root-out-degree")


class RunConfig:
    """Declarative settings for one analysis run; see the CLI for defaults.

    The annotated names are the settings, in the order of the config echo,
    and the keys a config file may set. Each keyword given to the
    constructor sets one; the others keep their class-level defaults, and
    ``inputs`` starts as a new empty list.
    """

    inputs: list[tuple[str, str]]
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

    def __init__(self, **settings: Any) -> None:
        self.inputs = []
        for name, value in settings.items():
            if name not in RunConfig.__annotations__:
                raise TypeError(f"RunConfig has no setting {name!r}")
            setattr(self, name, value)

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
        # a config file can spell a NUL, which no file name holds and the OS calls refuse
        paths = [("input path", path) for path, _ in self.inputs]
        paths += [("lexicon_path", self.lexicon_path or ""), ("output_dir", self.output_dir)]
        for name, path in paths:
            if "\0" in path:
                raise ConfigError(f"{name} {path!r} holds a NUL character")

    def to_json_dict(self) -> dict[str, object]:
        # output_dir is deliberately not echoed: the same corpus and settings
        # must produce byte-identical outputs wherever they are written.
        echo = {name: getattr(self, name) for name in RunConfig.__annotations__ if name != "output_dir"}
        echo["inputs"] = [{"path": path, "format": fmt} for path, fmt in self.inputs]
        echo["dist_sls"] = list(self.dist_sls)
        return echo


class CountOnly:
    """The fold of ``validate``: it keeps nothing, since load_corpus counts the sentences."""

    def add(self, sentence: Sentence) -> None:
        pass

    def merge(self, other: CountOnly) -> None:
        pass


class InputFile:
    """What loading one input file, or one byte range of it, took from it."""

    __slots__ = ("path", "format", "version", "fold", "sha256", "accepted", "single_node", "rejections")

    def __init__(self, path: str, format: str, version: tuple[int, ...], fold: Any) -> None:
        self.path = path
        self.format = format
        self.version = version  # device, inode, size and mtime of the file read
        self.fold = fold
        self.sha256 = ""  # of the whole file; only range 0 computes it
        self.accepted = 0
        self.single_node = 0
        self.rejections: list[Rejection] = []

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


class CorpusData:
    """What loading the configured inputs leaves: one record per input file, and the corpus fold."""

    __slots__ = ("inputs", "fold")

    def __init__(self, inputs: list[InputFile], fold: Any) -> None:
        self.inputs = inputs
        self.fold = fold  # a CorpusStats, unless load_corpus was given another kind of fold

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


def load_corpus(config: RunConfig, new_fold: Callable[[], Any] | None = None) -> CorpusData:
    """Parse all configured inputs, skipping invalid sentences with a reason, and fold them.

    ``new_fold()`` makes an empty fold, which takes each accepted sentence of
    two or more nodes by ``add`` and a later fold of its kind by ``merge``.
    The default is a :class:`~depmetrics.analysis.CorpusStats` bounded to the
    window [sl_min, sl_max], with the lexicon of :func:`load_lexicon`, which
    is read and checked first, before any input; a fold given here reads no
    lexicon. Each input is split into
    :func:`worker_count` byte ranges of about equal size, cut between
    sentences (:func:`~depmetrics.treebank.iter_byte_range`), each filling a
    fold of its own. The parent forks a child for every range but the first,
    loads the first itself, and merges the records and folds in (file, range)
    order, so the result, the rejection warnings and an error raised while
    loading are those of one serial pass. A file whose workers read
    different versions of it is an error. No sentence is kept, and no worker
    holds more of an input than ``CHUNK_BYTES`` and a sentence.
    """
    if new_fold is None:
        from .analysis import CorpusStats

        new_fold = partial(CorpusStats, (config.sl_min, config.sl_max), load_lexicon(config))
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
    config: RunConfig, new_fold: Callable[[], Any], k: int, parts: int
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
                add = part.fold.add
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
                    if len(sentence.head_vector) >= 2:
                        add(sentence)
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


def load_lexicon(config: RunConfig) -> ValencyLexicon | None:
    """The lexicon at ``lexicon_path``, read, checked and not empty; None without a path (other modes)."""
    lexicon_path = config.lexicon_path
    if lexicon_path is None:
        return None
    lexicon = ValencyLexicon.from_tsv(Path(lexicon_path).read_bytes(), source=lexicon_path)
    if not len(lexicon):
        raise EmptyLexicon(f"{lexicon_path}: lexicon mode requires a non-empty valency lexicon")
    return lexicon


def _analysis() -> Any:
    """The analysis layer, imported when a table is read; a reader looks its functions up on each call."""
    from . import analysis

    return analysis


def compute_analyses(config: RunConfig, corpus: CorpusData, command: str = "report") -> dict[str, Any]:
    """The results of each entry of :data:`TABLES` that ``command`` runs, by name, and nothing else.

    The entries read the fold, bounded to [sl_min, sl_max] when it was filled, which must hold a sentence.
    ``report`` also gets the ``length_histogram`` of the full corpus, single-node sentences included.
    """
    fold = corpus.fold
    if not fold.by_sl:
        raise EmptySelection(f"no sentences with length in [{config.sl_min}, {config.sl_max}]")
    results = {name: TABLES[name].read(fold, config) for name in table_commands(command)}
    if command == "report":
        single_node = {1: corpus.single_node_count} if corpus.single_node_count else {}
        results["length_histogram"] = {**single_node, **_analysis().length_histogram(fold)}
    return results


# --- the table registry --------------------------------------------------------


def _f4(x: float) -> str:
    return f"{x:.4f}"


def _read_dist(fold: Any, config: RunConfig) -> tuple[dict[str, Distribution], dict[str, Any]]:
    """Each metric's pooled distribution, and its distributions of the ``dist_sls`` lengths in the window."""
    inside = [sl for sl in config.dist_sls if config.sl_min <= sl <= config.sl_max]
    outside = sorted(set(config.dist_sls) - set(inside))
    if outside:
        log.warning("lengths %s lie outside the window [%d, %d]; omitting their dd and hd distributions",
                    ", ".join(map(str, outside)), config.sl_min, config.sl_max)
    analysis = _analysis()
    pooled = {metric: analysis.pooled_distribution(fold, metric) for metric in ("dd", "hd")}
    return pooled, analysis.conditional_distributions(fold, inside)


def _dist_rows(config: RunConfig, results: Any) -> Iterator[str]:
    pooled, conditional = results
    for metric in ("dd", "hd"):
        buckets = [(f"{config.sl_min}-{config.sl_max}", pooled[metric])]
        buckets += [(str(sl), dist) for sl, dist in conditional[metric].items()]
        for bucket, dist in buckets:
            for value, p in dist.probabilities().items():
                yield f"{metric},{bucket},{value},{dist.counts[value]},{p:.6f}"


def _dist_json(dist: Distribution) -> dict[str, object]:
    return {
        "total": dist.total,
        "counts": {str(v): dist.counts[v] for v in dist.support()},
        "probabilities": {str(v): round(p, 6) for v, p in dist.probabilities().items()},
    }


def _read_entropy(fold: Any, config: RunConfig) -> dict[str, tuple[list[SeriesPoint], list[SeriesPoint]]]:
    """Each metric's entropy series, split into lengths of ``min_bucket`` or more sentences and the rest."""
    analysis = _analysis()
    return {
        metric: analysis.split_gated(
            analysis.entropy_by_sl(fold, metric, base=ENTROPY_BASES[config.entropy_base]), config.min_bucket
        )
        for metric in ("dd", "hd")
    }


def _entropy_rows(results: Any, part: int) -> Iterator[str]:
    for metric in ("dd", "hd"):
        for point in results[metric][part]:
            yield f"{metric},{point.sl},{_f4(point.value)},{point.n}"


def _entropy_json(results: Any, part: int) -> dict[str, object]:
    return {
        m: [{"sl": p.sl, "entropy": round(p.value, 4), "n": p.n} for p in results[m][part]]
        for m in ("dd", "hd")
    }


def _crossings(results: Any) -> dict[str, object]:
    return {"crossings": [list(interval) for interval in results[2]]}


def _corr_rows(points: Sequence[CorrelationPoint]) -> Iterator[str]:
    return (f"{p.sl},{_f4(p.rho)},{p.p_value:.6g},{p.n}" for p in points)


def _correlation_json(points: Sequence[CorrelationPoint]) -> list[dict[str, object]]:
    return [{**p._asdict(), "rho": round(p.rho, 4)} for p in points]


def _read_valency(fold: Any, config: RunConfig) -> tuple[list[ValencyCell], int, list[ValencyFit]]:
    """The valency cells, the count of sentences whose root lemma the lexicon lacks, and the fits."""
    analysis = _analysis()
    cells, misses = analysis.valency_conditioned_counts(fold)
    return cells, misses, analysis.fit_valency_models(cells, log_base=LOG_BASES[config.log_base])


def _fit_rows(config: RunConfig, results: Any) -> Iterator[str]:
    from .stats import significance_stars

    for fit in results[2]:
        r = fit.result
        stars = significance_stars(r.p_slope), significance_stars(r.p_intercept)
        yield (f"{fit.metric},{fit.valency},{r.n},{_f4(r.slope)},{_f4(r.se_slope)},{stars[0]},"
               f'{_f4(r.intercept)},{_f4(r.se_intercept)},{stars[1]},"{r.model_string()}",{_f4(r.adj_r2)}')


def _valency_json(config: RunConfig, results: Any) -> dict[str, object]:
    cells, misses, fits = results
    return {"valency": {
        "mode": config.valency_mode,
        "lexicon_misses": misses,
        "cells": [
            {**c._asdict(), "avg_dd1": round(c.avg_dd1, 4), "avg_hd1": round(c.avg_hd1, 4)} for c in cells
        ],
        "fits": [
            {
                "metric": f.metric,
                "valency": f.valency,
                "n": f.result.n,
                "p_slope": f.result.p_slope,
                "p_intercept": f.result.p_intercept,
                "model": f.result.model_string(),
                **{
                    key: round(getattr(f.result, key), 4)
                    for key in ("slope", "se_slope", "intercept", "se_intercept", "adj_r2")
                },
            }
            for f in fits
        ],
    }}


class Table(NamedTuple):
    """One table command of :data:`TABLES`.

    ``read(fold, config)`` reads its results from the fold. Each of
    ``files`` is a CSV file's name, header and ``rows(config, results)``,
    the lines below it. ``report_json(config, results)`` gives its keys of
    report.json (``gated`` joins the report's ``gated``), and
    ``meta(results)`` what it adds to its own meta.json.
    It takes the flags of ``settings``, the ``RunConfig`` settings it reads
    besides the length window and the output directory.
    """

    help: str
    settings: tuple[str, ...]
    read: Callable[[Any, RunConfig], Any]
    files: tuple[tuple[str, str, Callable[[RunConfig, Any], Iterable[str]]], ...]
    report_json: Callable[[RunConfig, Any], dict[str, object]]
    meta: Callable[[Any], dict[str, object]] = lambda results: {}


#: The table commands, in the order in which ``report`` reads and writes them.
TABLES: dict[str, Table] = {
    "dist": Table(  # results: the pooled distribution, and those of dist_sls in the window, of each metric
        help="pooled and length-conditioned DD/HD distributions",
        settings=("dist_sls",),
        read=_read_dist,
        files=(("dist.csv", "metric,sl_bucket,value,count,probability", _dist_rows),),
        report_json=lambda config, results: {
            "pooled_distribution": {m: _dist_json(results[0][m]) for m in ("dd", "hd")},
            "conditional_distributions": {
                m: {str(sl): _dist_json(d) for sl, d in results[1][m].items()} for m in ("dd", "hd")
            },
        },
    ),
    "entropy": Table(
        help="entropy of length-conditioned distributions",
        settings=("min_bucket", "entropy_base"),
        read=_read_entropy,
        files=(
            ("entropy.csv", "metric,sl,entropy_bits,n", lambda config, results: _entropy_rows(results, 0)),
            ("entropy_gated.csv", "metric,sl,entropy_bits,n",
             lambda config, results: _entropy_rows(results, 1)),
        ),
        report_json=lambda config, results: {
            "entropy_by_sl": {"base": config.entropy_base, "series": _entropy_json(results, 0)},
            "gated": {"entropy": _entropy_json(results, 1)},
        },
    ),
    "trend": Table(  # results: the mean MDD and MHD series, and where they cross
        help="mean MDD/MHD by sentence length",
        settings=(),
        read=lambda fold, config: (*_analysis().mean_metric_by_sl(fold), _analysis().find_intersection(fold)),
        files=(("trend.csv", "sl,mean_mdd,mean_mhd,n", lambda config, results: (
            f"{m.sl},{_f4(m.value)},{_f4(h.value)},{m.n}" for m, h in zip(results[0], results[1])
        )),),
        report_json=lambda config, results: {
            "trend": [
                {"sl": m.sl, "mean_mdd": round(m.value, 4), "mean_mhd": round(h.value, 4), "n": m.n}
                for m, h in zip(results[0], results[1])
            ],
            **_crossings(results),
        },
        meta=_crossings,
    ),
    "corr": Table(  # results: the points of at least min_bucket sentences, and the rest
        help="per-length Spearman correlation of MDD and MHD",
        settings=("min_bucket",),
        read=lambda fold, config: _analysis().split_gated(_analysis().spearman_by_sl(fold),
                                                          config.min_bucket),
        files=(
            ("corr.csv", "sl,rho,p_value,n", lambda config, results: _corr_rows(results[0])),
            ("corr_gated.csv", "sl,rho,p_value,n", lambda config, results: _corr_rows(results[1])),
        ),
        report_json=lambda config, results: {
            "correlation_by_sl": _correlation_json(results[0]),
            "gated": {"correlation": _correlation_json(results[1])},
        },
    ),
    "valency": Table(
        help="valency-conditioned DD=1/HD=1 counts and fits",
        settings=("valency_mode", "lexicon_path", "log_base"),
        read=_read_valency,
        files=(
            ("valency.csv", "valency,sl,avg_dd1,avg_hd1,n", lambda config, results: (
                f"{c.valency},{c.sl},{_f4(c.avg_dd1)},{_f4(c.avg_hd1)},{c.n}" for c in results[0]
            )),
            ("valency_fit.csv", "metric,valency,n,slope,se_slope,stars_slope,intercept,se_intercept,"
             "stars_intercept,model,adj_r2", _fit_rows),
        ),
        report_json=_valency_json,
        meta=lambda results: {"lexicon_misses": results[1]},
    ),
}


def table_commands(command: str) -> list[str]:
    """The entries of :data:`TABLES` that ``command`` runs: every one for ``report``."""
    return list(TABLES) if command == "report" else [command]


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


def report_json_dict(config: RunConfig, corpus: CorpusData, results: dict[str, Any]) -> dict[str, object]:
    gated: dict[str, object] = {"min_bucket": config.min_bucket}
    report = {
        "meta": run_meta(config, corpus, "report"),
        "length_histogram": {str(sl): count for sl, count in results["length_histogram"].items()},
        "gated": gated,
        "rejections": [
            {"source": r.source, "reason": r.reason, "sentence_id": r.sentence_id}
            for r in corpus.rejections
        ],
    }
    for name, table in TABLES.items():
        part = table.report_json(config, results[name])
        gated.update(part.pop("gated", {}))  # type: ignore[call-overload]
        report.update(part)
    return report


def json_text(obj: object) -> str:
    """``obj`` as indented JSON with sorted keys; non-ASCII text is written raw, except a lone surrogate
    (such as the ``\\udcff`` that stands for a file name's byte that is not UTF-8), which has no UTF-8
    form and is written as its escape, which json reads back as the same character."""
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    return text if text.isascii() else text.encode("utf-8", "backslashreplace").decode("utf-8")


def render_outputs(
    config: RunConfig, corpus: CorpusData, command: str, results: dict[str, Any]
) -> dict[str, str]:
    """The texts that table command ``command`` writes, by file name, in order: its CSV tables,
    report.json for ``report``, and meta.json, to which another command's entry adds."""
    files = {}
    for name in table_commands(command):
        for file_name, header, rows in TABLES[name].files:
            files[file_name] = "\n".join([header, *rows(config, results[name])]) + "\n"
    meta = run_meta(config, corpus, command)
    if command == "report":
        files["report.json"] = json_text(report_json_dict(config, corpus, results))
    else:
        meta.update(TABLES[command].meta(results[command]))
    files["meta.json"] = json_text(meta)
    return files


def output_names(command: str) -> list[str]:
    """The names of the files that table command ``command`` writes, in :func:`render_outputs`' order."""
    tables = [file_name for name in table_commands(command) for file_name, _, _ in TABLES[name].files]
    return [*tables, "report.json", "meta.json"] if command == "report" else [*tables, "meta.json"]


def write_files(files: dict[Path, Iterable[str]]) -> None:
    """Write each text, given as an iterable of pieces, as UTF-8: all of them or none.

    A target that exists and, with symlinks followed, is not a regular file,
    such as a FIFO or a terminal, is opened and written in place, after the
    others. Every other text goes to a temporary file beside the file that
    its target resolves to (:func:`os.path.realpath`); only when every text
    is written are they renamed into place, so a failure leaves the previous
    files as they were and a symlink stays a symlink. The temporary files
    are removed on failure. An error in creating one names its target.
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
            try:
                handle = open(temporary, "xb")  # "x": never truncate a file that is not ours
            except OSError as exc:  # name the file asked for, not the hidden one beside it
                raise type(exc)(exc.errno, exc.strerror, str(target)) from None
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
