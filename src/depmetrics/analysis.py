"""Corpus-level aggregation: one fold of per-length integer totals.

Every table the toolkit writes is a per-length aggregate, so a corpus is
folded once, sentence by sentence, into :class:`CorpusStats`. The tables are
read from the fold: length histograms, pooled and length-conditioned DD/HD
distributions, entropy series, mean MDD/MHD trends with crossing detection,
per-length Spearman correlation, and valency-conditioned counts with their
regression fits.

The fold holds integers only, keyed by length and by valency class, so it
does not depend on sentence order, folds of parts of a corpus merge into the
fold of the whole, and each mean is one correctly rounded division of integer
totals.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DegenerateInput, EmptyLexicon, EmptySelection
from .metrics import dependency_terms, node_depths
from .stats import Distribution, RegressionResult, entropy, ols_fit, spearman
from .treebank import Sentence, ValencyLexicon

log = logging.getLogger(__name__)

MAX_VALENCY_CLASS = 4


class SeriesPoint(NamedTuple):
    """A per-length statistic with the number of sentences behind it."""

    sl: int
    value: float
    n: int


class CorrelationPoint(NamedTuple):
    sl: int
    rho: float
    p_value: float
    n: int


class ValencyCell(NamedTuple):
    """Average count of DD=1 / HD=1 nodes at one (valency, length) bucket."""

    valency: int
    sl: int
    avg_dd1: float
    avg_hd1: float
    n: int


class ValencyFit(NamedTuple):
    metric: str  # "dd1" | "hd1"
    valency: int
    result: RegressionResult


class LengthStats:
    """Integer totals over the sentences of one length."""

    __slots__ = ("n", "dd", "hd", "pairs", "valency")

    def __init__(self) -> None:
        self.n = 0
        self.dd: Counter[int] = Counter()  # DD value -> count
        self.hd: Counter[int] = Counter()  # depth -> count; each root counts at 0
        self.pairs: Counter[tuple[int, int]] = Counter()  # per-sentence (DD sum, HD sum)
        # valency class (None: a lexicon miss) -> [DD=1 count, HD=1 count, sentences]
        self.valency: dict[int | None, list[int]] = {}

    def merge(self, other: LengthStats) -> None:
        """Add another fold's totals for the same length."""
        self.n += other.n
        self.dd.update(other.dd)
        self.hd.update(other.hd)
        self.pairs.update(other.pairs)
        for key, (dd1, hd1, n) in other.valency.items():
            tally = self.valency.setdefault(key, [0, 0, 0])
            tally[0] += dd1
            tally[1] += hd1
            tally[2] += n

    def totals(self) -> tuple[int, int]:
        """The DD sum and the HD sum over the sentences of the length."""
        return sum(map(mul, self.dd, self.dd.values())), sum(map(mul, self.hd, self.hd.values()))

    def value_counts(self, metric: str) -> dict[int, int]:
        """DD or HD value counts of the dependencies (the roots left out)."""
        if metric == "dd":
            return self.dd
        if metric == "hd":
            return {value: count for value, count in self.hd.items() if value}
        raise ValueError(f"metric must be 'dd' or 'hd', got {metric!r}")


class CorpusStats:
    """Per-length integer totals of a corpus, filled by :meth:`add` one sentence at a time.

    A sentence's valency class is decided as it is folded: the root lemma's
    class in ``lexicon``, None on a miss, or without a lexicon the root's
    out-degree capped at ``MAX_VALENCY_CLASS``.

    ``window``, a pair (sl_min, sl_max), is required: it bounds the lengths
    that get totals in ``by_sl``, which every table but the length histogram
    reads. ``outside`` holds, for each length of two or more nodes outside
    the window, only its sentence count.
    """

    __slots__ = ("by_sl", "lexicon", "window", "outside")

    def __init__(self, window: tuple[int, int], lexicon: ValencyLexicon | None = None) -> None:
        self.by_sl: dict[int, LengthStats] = {}
        self.lexicon = lexicon
        self.window = window
        self.outside: dict[int, int] = {}  # length outside the window -> sentence count

    def add(self, sentence: Sentence) -> None:
        """Fold one sentence of n >= 2 nodes in, from :func:`~depmetrics.metrics.dependency_terms`.

        A sentence whose length is outside the window is only checked, if it
        carries no depths, and counted.
        """
        n = len(sentence.head_vector)
        if not self.window[0] <= n <= self.window[1] and n >= 2:
            node_depths(sentence)
            self.outside[n] = self.outside.get(n, 0) + 1
            return
        dds, depths, root = dependency_terms(sentence)
        out_degree = sentence.head_vector.count(root)
        cell = self.by_sl.get(n)
        if cell is None:
            cell = self.by_sl[n] = LengthStats()
        cell.n += 1
        cell.dd.update(dds)
        cell.hd.update(depths)
        cell.pairs[sum(dds), sum(depths)] += 1
        if self.lexicon is None:
            valency = min(out_degree, MAX_VALENCY_CLASS)
        else:
            valency = self.lexicon.get(sentence.root_lemma)
        tally = cell.valency.get(valency)
        if tally is None:
            tally = cell.valency[valency] = [0, 0, 0]
        tally[0] += dds.count(1)
        tally[1] += out_degree  # the depth-1 nodes are the root's dependents
        tally[2] += 1

    def merge(self, other: CorpusStats) -> None:
        """Add the per-length totals and counts of a fold of the same window and lexicon, in any order."""
        entries = [getattr(fold.lexicon, "entries", None) for fold in (self, other)]
        if other.window != self.window or entries[0] != entries[1]:
            raise ValueError(f"cannot merge a fold of window {other.window} or other lexicon into {self.window}")
        for sl, cell in other.by_sl.items():
            self.by_sl.setdefault(sl, LengthStats()).merge(cell)
        for sl, count in other.outside.items():
            self.outside[sl] = self.outside.get(sl, 0) + count

    def sorted_cells(self) -> list[tuple[int, LengthStats]]:
        return sorted(self.by_sl.items())


def length_histogram(stats: CorpusStats) -> dict[int, int]:
    """Sentence count per length, in length order, over the whole fold: the window and the counts outside it."""
    counts = Counter(stats.outside)
    for sl, cell in stats.by_sl.items():
        counts[sl] += cell.n
    return dict(sorted(counts.items()))


def pooled_distribution(stats: CorpusStats, metric: str) -> Distribution:
    """Merge the value counts of every length in the fold's window."""
    if not stats.by_sl:
        raise EmptySelection("no sentences to pool: the fold is empty")
    merged: Counter[int] = Counter()
    for cell in stats.by_sl.values():
        merged.update(cell.value_counts(metric))
    return Distribution(counts=dict(merged))


def conditional_distributions(
    stats: CorpusStats, sl_list: Sequence[int]
) -> dict[str, dict[int, Distribution]]:
    """The DD and the HD distribution of each requested length, over sentences of exactly that length.

    Lengths with no sentences are omitted, with one warning each, rather than
    failing, since a narrow corpus legitimately misses some of the requested lengths.
    """
    for sl in sl_list:
        if sl < 2:
            raise ValueError(f"requested sentence lengths must be >= 2, got {sl}")
    result: dict[str, dict[int, Distribution]] = {"dd": {}, "hd": {}}
    for sl in sorted(set(sl_list)):
        cell = stats.by_sl.get(sl)
        if cell is None:
            log.warning("no sentences of length %d; omitting its dd and hd distributions", sl)
            continue
        for metric, by_sl in result.items():
            by_sl[sl] = Distribution(counts=dict(cell.value_counts(metric)))
    return result


def entropy_by_sl(stats: CorpusStats, metric: str, base: float = 2.0) -> list[SeriesPoint]:
    """Entropy of the length-conditioned distribution, for each length present."""
    return [
        SeriesPoint(sl=sl, value=entropy(Distribution(cell.value_counts(metric)), base=base), n=cell.n)
        for sl, cell in stats.sorted_cells()
    ]


def mean_metric_by_sl(stats: CorpusStats) -> tuple[list[SeriesPoint], list[SeriesPoint]]:
    """Per-length arithmetic means of per-sentence MDD and MHD.

    A mean over N sentences of length sl is sum / ((sl - 1) * N) of integer
    totals (:meth:`LengthStats.totals`), and int true division rounds correctly.
    """
    mdd_series = []
    mhd_series = []
    for sl, cell in stats.sorted_cells():
        deps = (sl - 1) * cell.n
        dd_total, hd_total = cell.totals()
        mdd_series.append(SeriesPoint(sl=sl, value=dd_total / deps, n=cell.n))
        mhd_series.append(SeriesPoint(sl=sl, value=hd_total / deps, n=cell.n))
    return mdd_series, mhd_series


def find_intersection(stats: CorpusStats) -> list[tuple[int, int]]:
    """Report where the mean-MDD and mean-MHD series cross.

    Returns (k, k') intervals for strict sign changes of mean_mdd - mean_mhd
    between consecutive lengths present, and degenerate (k, k) intervals
    where the means are exactly equal. Both means of one length share their
    denominator, so the sign is that of the integer DD sum minus the HD sum.
    """
    signs = []
    for sl, cell in stats.sorted_cells():
        dd_total, hd_total = cell.totals()
        signs.append((sl, (dd_total > hd_total) - (dd_total < hd_total)))
    crossings = [(sl, sl) for sl, sign in signs if sign == 0]
    for (sl_a, sign_a), (sl_b, sign_b) in zip(signs, signs[1:]):
        if sign_a * sign_b < 0:
            crossings.append((sl_a, sl_b))
    crossings.sort()
    return crossings


def spearman_by_sl(stats: CorpusStats) -> list[CorrelationPoint]:
    """Per-length Spearman correlation between per-sentence MDD and MHD.

    Length 2 is always excluded (MDD and MHD are both identically 1 there);
    buckets with fewer than 3 sentences or a constant vector are skipped
    with a warning. The two vectors are the sentences' DD and HD sums,
    expanded in sorted order: Spearman reads only their ranks, which are
    those of the means, since one length shares n - 1, and not their order.
    """
    points = []
    for sl, cell in stats.sorted_cells():
        if sl == 2:
            log.info("length 2 excluded from correlation (no variance)")
            continue
        if cell.n < 3:
            log.warning("length %d has only %d sentences; correlation skipped", sl, cell.n)
            continue
        dd_totals, hd_totals = zip(*sorted(cell.pairs.elements()))
        try:
            result = spearman(dd_totals, hd_totals)
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


def valency_conditioned_counts(stats: CorpusStats) -> tuple[list[ValencyCell], int]:
    """Average counts of DD=1 and HD=1 nodes per (valency class, length).

    The classes are those of the fold (see :class:`CorpusStats`). Sentences
    whose root lemma misses the lexicon are left out, and the returned second
    element is their count; without a lexicon it is always 0.
    """
    if stats.lexicon is not None and len(stats.lexicon) == 0:
        raise EmptyLexicon("lexicon mode requires a non-empty valency lexicon")
    cells = []
    misses = 0
    for sl, cell in stats.by_sl.items():
        for valency, (dd1, hd1, n) in cell.valency.items():
            if valency is None:
                misses += n
            else:
                cells.append(ValencyCell(valency, sl, avg_dd1=dd1 / n, avg_hd1=hd1 / n, n=n))
    cells.sort(key=lambda c: (c.valency, c.sl))
    return cells, misses


def fit_valency_models(
    cells: Sequence[ValencyCell], log_base: float = math.e
) -> list[ValencyFit]:
    """Per valency class: linear fit of avg DD=1 counts on length, and
    log-linear fit of avg HD=1 counts on log length.

    Classes with fewer than 3 length points are omitted, with one warning
    each for both fits.
    """
    buckets: dict[int, list[ValencyCell]] = defaultdict(list)
    for cell in sorted(cells, key=lambda c: (c.valency, c.sl)):
        buckets[cell.valency].append(cell)
    for valency, bucket in list(buckets.items()):
        if len(bucket) < 3:
            log.warning("valency class %d has only %d length points; dd1 and hd1 fits omitted",
                        valency, len(bucket))
            del buckets[valency]
    fits: list[ValencyFit] = []
    for metric, model_form in (("dd1", "linear"), ("hd1", "log-linear")):
        for valency, bucket in buckets.items():
            xs = [float(c.sl) for c in bucket]
            ys = [getattr(c, f"avg_{metric}") for c in bucket]
            result = ols_fit(xs, ys, model_form=model_form, log_base=log_base)
            fits.append(ValencyFit(metric, valency, result))
    return fits
