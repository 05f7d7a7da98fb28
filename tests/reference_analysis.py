"""Reference for the corpus fold: the per-record analyses the fold replaced.

Each analysis here regroups a list of per-sentence ``MetricRecord``s by
length, as the toolkit did before ``CorpusStats``: means are sums of exact
``Fraction``s, crossings compare float differences, Spearman is the
``fsum`` Pearson correlation of the mid-ranks of the per-sentence means in
corpus order, and valency counts walk the records beside their sentences.
``reference_analyses`` strings them together the way
``report.compute_analyses`` does, so a test can require equal results.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from depmetrics.analysis import (
    CorrelationPoint,
    SeriesPoint,
    ValencyCell,
    fit_valency_models,
    split_gated,
)
from depmetrics.errors import DegenerateInput, EmptyLexicon, EmptySelection
from depmetrics.metrics import MetricRecord, metric_record
from depmetrics.report import ENTROPY_BASES, LOG_BASES, VALENCY_MODES, RunConfig
from depmetrics.stats import CorrelationResult, Distribution, entropy, t_two_sided_p
from depmetrics.treebank import Sentence, ValencyLexicon

log = logging.getLogger(__name__)

# The highest valency class, written here rather than imported, so that the
# reference does not share the value it checks.
MAX_VALENCY_CLASS = 4


def _hist(record: MetricRecord, metric: str) -> Mapping[int, int]:
    if metric == "dd":
        return record.dd_hist
    if metric == "hd":
        return record.hd_hist
    raise ValueError(f"metric must be 'dd' or 'hd', got {metric!r}")


def length_histogram(records: Iterable[MetricRecord]) -> dict[int, int]:
    counts = Counter(record.sl for record in records)
    return {sl: counts[sl] for sl in sorted(counts)}


def pooled_distribution(
    records: Iterable[MetricRecord], metric: str, sl_min: int, sl_max: int
) -> Distribution:
    if sl_min < 2:
        raise ValueError(f"sl_min must be >= 2, got {sl_min}")
    merged: Counter[int] = Counter()
    selected = 0
    for record in records:
        if sl_min <= record.sl <= sl_max:
            selected += 1
            merged.update(_hist(record, metric))
    if selected == 0:
        raise EmptySelection(f"no sentences with length in [{sl_min}, {sl_max}]")
    return Distribution(counts=dict(merged))


def conditional_distributions(
    records: Iterable[MetricRecord], sl_list: Sequence[int]
) -> dict[str, dict[int, Distribution]]:
    for sl in sl_list:
        if sl < 2:
            raise ValueError(f"requested sentence lengths must be >= 2, got {sl}")
    wanted = sorted(set(sl_list))
    by_sl: dict[int, dict[str, Counter[int]]] = {sl: {"dd": Counter(), "hd": Counter()} for sl in wanted}
    seen: Counter[int] = Counter()
    for record in records:
        if record.sl in by_sl:
            for metric, counts in by_sl[record.sl].items():
                counts.update(_hist(record, metric))
            seen[record.sl] += 1
    result: dict[str, dict[int, Distribution]] = {"dd": {}, "hd": {}}
    for sl in wanted:
        if seen[sl] == 0:
            log.warning("no sentences of length %d; omitting its dd and hd distributions", sl)
            continue
        for metric, distributions in result.items():
            distributions[sl] = Distribution(counts=dict(by_sl[sl][metric]))
    return result


def _group_by_sl(records: Iterable[MetricRecord]) -> dict[int, list[MetricRecord]]:
    groups: dict[int, list[MetricRecord]] = defaultdict(list)
    for record in records:
        groups[record.sl].append(record)
    return groups


def entropy_by_sl(
    records: Iterable[MetricRecord], metric: str, base: float = 2.0
) -> list[SeriesPoint]:
    groups = _group_by_sl(records)
    points = []
    for sl in sorted(groups):
        merged: Counter[int] = Counter()
        for record in groups[sl]:
            merged.update(_hist(record, metric))
        dist = Distribution(counts=dict(merged))
        points.append(SeriesPoint(sl=sl, value=entropy(dist, base=base), n=len(groups[sl])))
    return points


def mean_metric_by_sl(
    records: Iterable[MetricRecord],
) -> tuple[list[SeriesPoint], list[SeriesPoint]]:
    groups = _group_by_sl(records)
    mdd_series = []
    mhd_series = []
    for sl in sorted(groups):
        bucket = groups[sl]
        mean_mdd = sum((Fraction(r.dd_total, r.sl - 1) for r in bucket), Fraction(0)) / len(bucket)
        mean_mhd = sum((Fraction(r.hd_total, r.sl - 1) for r in bucket), Fraction(0)) / len(bucket)
        mdd_series.append(SeriesPoint(sl=sl, value=float(mean_mdd), n=len(bucket)))
        mhd_series.append(SeriesPoint(sl=sl, value=float(mean_mhd), n=len(bucket)))
    return mdd_series, mhd_series


def find_intersection(
    mdd_series: Sequence[SeriesPoint], mhd_series: Sequence[SeriesPoint]
) -> list[tuple[int, int]]:
    if [p.sl for p in mdd_series] != [p.sl for p in mhd_series]:
        raise ValueError("series do not share the same length support")
    crossings: list[tuple[int, int]] = []
    diffs = [(m.sl, m.value - h.value) for m, h in zip(mdd_series, mhd_series)]
    for sl, diff in diffs:
        if diff == 0.0:
            crossings.append((sl, sl))
    for (sl_a, diff_a), (sl_b, diff_b) in zip(diffs, diffs[1:]):
        if diff_a * diff_b < 0.0:
            crossings.append((sl_a, sl_b))
    crossings.sort()
    return crossings


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks by walking the sorted positions one run of equal values at a time."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if sxx <= 0.0 or syy <= 0.0:
        raise DegenerateInput("constant vector: correlation is undefined")
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Spearman correlation as the Pearson correlation of the mid-ranks, with the t-approximation p-value."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise DegenerateInput(f"need >= 3 observations, got {n}")
    rho = _pearson(midranks(xs), midranks(ys))
    if abs(rho) >= 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = t_two_sided_p(t, n - 2)
    return CorrelationResult(rho=rho, p_value=p, n=n)


def spearman_by_sl(records: Iterable[MetricRecord]) -> list[CorrelationPoint]:
    groups = _group_by_sl(records)
    points = []
    for sl in sorted(groups):
        if sl == 2:
            continue
        bucket = groups[sl]
        if len(bucket) < 3:
            log.warning("length %d has only %d sentences; correlation skipped", sl, len(bucket))
            continue
        try:
            result = spearman([r.mdd for r in bucket], [r.mhd for r in bucket])
        except DegenerateInput as exc:
            log.warning("length %d: correlation skipped (%s)", sl, exc)
            continue
        points.append(CorrelationPoint(sl=sl, rho=result.rho, p_value=result.p_value, n=result.n))
    return points


def valency_conditioned_counts(
    records: Sequence[MetricRecord],
    sentences: Sequence[Sentence],
    lexicon: ValencyLexicon | None = None,
    valency_mode: str = "root-out-degree",
) -> tuple[list[ValencyCell], int]:
    if valency_mode not in VALENCY_MODES:
        raise ValueError(f"valency_mode must be one of {VALENCY_MODES}, got {valency_mode!r}")
    if len(records) != len(sentences):
        raise ValueError(f"records/sentences length mismatch: {len(records)} vs {len(sentences)}")
    if valency_mode == "lexicon" and (lexicon is None or len(lexicon) == 0):
        raise EmptyLexicon("lexicon mode requires a non-empty valency lexicon")
    sums: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0, 0])
    misses = 0
    for record, sentence in zip(records, sentences):
        if valency_mode == "lexicon":
            assert lexicon is not None
            valency = lexicon.get(sentence.root_lemma)
            if valency is None:
                misses += 1
                continue
        else:
            valency = min(record.root_out_degree, MAX_VALENCY_CLASS)
        cell = sums[(valency, record.sl)]
        cell[0] += record.dd_hist.get(1, 0)
        cell[1] += record.hd_hist.get(1, 0)
        cell[2] += 1
    cells = [
        ValencyCell(
            valency=valency,
            sl=sl,
            avg_dd1=float(Fraction(dd1, n)),
            avg_hd1=float(Fraction(hd1, n)),
            n=n,
        )
        for (valency, sl), (dd1, hd1, n) in sorted(sums.items())
    ]
    return cells, misses


def reference_analyses(
    config: RunConfig, sentences: Sequence[Sentence], lexicon: ValencyLexicon | None = None
) -> dict[str, object]:
    """Every table of a run over ``sentences``, computed record by record, in the form of ``compute_analyses``."""
    record_sentences = [s for s in sentences if len(s) >= 2]
    records = [metric_record(s) for s in record_sentences]
    single_node = len(sentences) - len(records)
    hist = length_histogram(records)
    if single_node:
        hist = {1: single_node, **hist}
    window = [
        (record, sentence)
        for record, sentence in zip(records, record_sentences)
        if config.sl_min <= record.sl <= config.sl_max
    ]
    win_records = [record for record, _ in window]
    win_sentences = [sentence for _, sentence in window]
    pooled = {m: pooled_distribution(records, m, config.sl_min, config.sl_max) for m in ("dd", "hd")}
    conditional = conditional_distributions(win_records, config.dist_sls)
    entropy_split = {
        metric: split_gated(entropy_by_sl(win_records, metric, ENTROPY_BASES[config.entropy_base]), config.min_bucket)
        for metric in ("dd", "hd")
    }
    mdd_series, mhd_series = mean_metric_by_sl(win_records)
    corr_points, corr_gated = split_gated(spearman_by_sl(win_records), config.min_bucket)
    cells, misses = valency_conditioned_counts(
        win_records, win_sentences, lexicon=lexicon, valency_mode=config.valency_mode
    )
    return {
        "length_histogram": hist,
        "dist": (pooled, conditional),
        "entropy": entropy_split,
        "trend": (mdd_series, mhd_series, find_intersection(mdd_series, mhd_series)),
        "corr": (corr_points, corr_gated),
        "valency": (cells, misses, fit_valency_models(cells, log_base=LOG_BASES[config.log_base])),
    }
