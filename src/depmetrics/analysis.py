"""Corpus-level aggregation of per-sentence metric records.

Produces the toolkit's tables: length histograms, pooled and
length-conditioned DD/HD distributions, entropy series, mean MDD/MHD trends
with crossing detection, per-length Spearman correlation, and
valency-conditioned counts with their regression fits.

Aggregation is a fold over per-sentence integer histograms, so results are
independent of sentence order; means are accumulated as exact rationals.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateInput, EmptyLexicon, EmptySelection
from .metrics import MetricRecord
from .stats import Distribution, RegressionResult, entropy, ols_fit, spearman
from .treebank import Sentence, ValencyLexicon

log = logging.getLogger(__name__)

METRICS = ("dd", "hd")
VALENCY_MODES = ("lexicon", "root-out-degree")
MAX_VALENCY_CLASS = 4


@dataclass(frozen=True)
class SeriesPoint:
    """A per-length statistic with the number of sentences behind it."""

    sl: int
    value: float
    n: int


@dataclass(frozen=True)
class CorrelationPoint:
    sl: int
    rho: float
    p_value: float
    n: int


@dataclass(frozen=True)
class ValencyCell:
    """Average count of DD=1 / HD=1 nodes at one (valency, length) bucket."""

    valency: int
    sl: int
    avg_dd1: float
    avg_hd1: float
    n: int


@dataclass(frozen=True)
class ValencyFit:
    metric: str  # "dd1" | "hd1"
    valency: int
    result: RegressionResult


def _hist(record: MetricRecord, metric: str) -> Mapping[int, int]:
    if metric == "dd":
        return record.dd_hist
    if metric == "hd":
        return record.hd_hist
    raise ValueError(f"metric must be 'dd' or 'hd', got {metric!r}")


def length_histogram(records: Iterable[MetricRecord]) -> dict[int, int]:
    """Sentence count per length, over everything passed in (no window)."""
    counts = Counter(record.sl for record in records)
    return {sl: counts[sl] for sl in sorted(counts)}


def pooled_distribution(
    records: Iterable[MetricRecord], metric: str, sl_min: int, sl_max: int
) -> Distribution:
    """Merge per-sentence histograms of all records with sl in [sl_min, sl_max]."""
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
    records: Iterable[MetricRecord], metric: str, sl_list: Sequence[int]
) -> dict[int, Distribution]:
    """One distribution per requested length, over records of exactly that length.

    Lengths with no records are omitted with a warning rather than failing,
    since a narrow corpus legitimately misses some of the requested lengths.
    """
    for sl in sl_list:
        if sl < 2:
            raise ValueError(f"requested sentence lengths must be >= 2, got {sl}")
    wanted = sorted(set(sl_list))
    by_sl: dict[int, Counter[int]] = {sl: Counter() for sl in wanted}
    seen: Counter[int] = Counter()
    for record in records:
        if record.sl in by_sl:
            by_sl[record.sl].update(_hist(record, metric))
            seen[record.sl] += 1
    result = {}
    for sl in wanted:
        if seen[sl] == 0:
            log.warning("no sentences of length %d; omitting its %s distribution", sl, metric)
            continue
        result[sl] = Distribution(counts=dict(by_sl[sl]))
    return result


def _group_by_sl(records: Iterable[MetricRecord]) -> dict[int, list[MetricRecord]]:
    groups: dict[int, list[MetricRecord]] = defaultdict(list)
    for record in records:
        groups[record.sl].append(record)
    return groups


def entropy_by_sl(
    records: Iterable[MetricRecord], metric: str, base: float = 2.0
) -> list[SeriesPoint]:
    """Entropy of the length-conditioned distribution, for each length present."""
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
    """Per-length arithmetic means of per-sentence MDD and MHD (exact, then float)."""
    groups = _group_by_sl(records)
    mdd_series = []
    mhd_series = []
    for sl in sorted(groups):
        bucket = groups[sl]
        mean_mdd = sum((r.mdd_exact for r in bucket), Fraction(0)) / len(bucket)
        mean_mhd = sum((r.mhd_exact for r in bucket), Fraction(0)) / len(bucket)
        mdd_series.append(SeriesPoint(sl=sl, value=float(mean_mdd), n=len(bucket)))
        mhd_series.append(SeriesPoint(sl=sl, value=float(mean_mhd), n=len(bucket)))
    return mdd_series, mhd_series


def find_intersection(
    mdd_series: Sequence[SeriesPoint], mhd_series: Sequence[SeriesPoint]
) -> list[tuple[int, int]]:
    """Report where the mean-MDD and mean-MHD series cross.

    Returns (k, k') intervals for strict sign changes of mean_mdd - mean_mhd
    between consecutive lengths, and degenerate (k, k) intervals where the
    means are exactly equal. Both series must cover the same lengths.
    """
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


def spearman_by_sl(records: Iterable[MetricRecord]) -> list[CorrelationPoint]:
    """Per-length Spearman correlation between per-sentence MDD and MHD.

    Length 2 is always excluded (MDD and MHD are both identically 1 there);
    buckets with fewer than 3 sentences or a constant vector are skipped
    with a warning.
    """
    groups = _group_by_sl(records)
    points = []
    for sl in sorted(groups):
        if sl == 2:
            log.info("length 2 excluded from correlation (no variance)")
            continue
        bucket = groups[sl]
        if len(bucket) < 3:
            log.warning("length %d has only %d sentences; correlation skipped", sl, len(bucket))
            continue
        mdds = [r.mdd for r in bucket]
        mhds = [r.mhd for r in bucket]
        try:
            result = spearman(mdds, mhds)
        except DegenerateInput as exc:
            log.warning("length %d: correlation skipped (%s)", sl, exc)
            continue
        points.append(CorrelationPoint(sl=sl, rho=result.rho, p_value=result.p_value, n=result.n))
    return points


def split_gated(points: Sequence, min_bucket: int) -> tuple[list, list]:
    """Partition series points into (kept, gated) by the minimum bucket size."""
    kept = [p for p in points if p.n >= min_bucket]
    gated = [p for p in points if p.n < min_bucket]
    return kept, gated


def valency_conditioned_counts(
    records: Sequence[MetricRecord],
    sentences: Sequence[Sentence],
    lexicon: ValencyLexicon | None = None,
    valency_mode: str = "root-out-degree",
) -> tuple[list[ValencyCell], int]:
    """Average counts of DD=1 and HD=1 nodes per (valency class, length).

    ``records[i]`` must describe ``sentences[i]``. In ``lexicon`` mode the
    valency class comes from looking up the root node's lemma; sentences
    whose root lemma misses the lexicon are skipped, and the returned second
    element is that miss count. In ``root-out-degree`` mode the class is the
    root's out-degree capped at 4 and the miss count is always 0.
    """
    if valency_mode not in VALENCY_MODES:
        raise ValueError(f"valency_mode must be one of {VALENCY_MODES}, got {valency_mode!r}")
    if len(records) != len(sentences):
        raise ValueError(f"records/sentences length mismatch: {len(records)} vs {len(sentences)}")
    if valency_mode == "lexicon" and (lexicon is None or len(lexicon) == 0):
        raise EmptyLexicon("lexicon mode requires a non-empty valency lexicon")

    sums: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0, 0])  # dd1, hd1, n
    misses = 0
    for record, sentence in zip(records, sentences):
        if valency_mode == "lexicon":
            assert lexicon is not None
            valency = lexicon.get(sentence.lemmas[sentence.root_index - 1] if sentence.lemmas else None)
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


def fit_valency_models(
    cells: Sequence[ValencyCell], log_base: float = math.e
) -> list[ValencyFit]:
    """Per valency class: linear fit of avg DD=1 counts on length, and
    log-linear fit of avg HD=1 counts on log length.

    Classes with fewer than 3 length points are omitted with a warning.
    """
    by_valency: dict[int, list[ValencyCell]] = defaultdict(list)
    for cell in cells:
        by_valency[cell.valency].append(cell)
    fits: list[ValencyFit] = []
    for metric in ("dd1", "hd1"):
        for valency in sorted(by_valency):
            bucket = sorted(by_valency[valency], key=lambda c: c.sl)
            if len(bucket) < 3:
                log.warning(
                    "valency class %d has only %d length points; %s fit omitted",
                    valency,
                    len(bucket),
                    metric,
                )
                continue
            xs = [float(c.sl) for c in bucket]
            if metric == "dd1":
                result = ols_fit(xs, [c.avg_dd1 for c in bucket], model_form="linear")
            else:
                result = ols_fit(
                    xs, [c.avg_hd1 for c in bucket], model_form="log-linear", log_base=log_base
                )
            fits.append(ValencyFit(metric=metric, valency=valency, result=result))
    return fits
