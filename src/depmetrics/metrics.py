"""Per-dependency distances and per-sentence summary metrics.

Dependency distance (DD) of a non-root node is the absolute difference
between its position and its head's position, so adjacent links score 1.
Hierarchical distance (HD) is the number of head links from a node up to
the root; direct dependents of the root score 1, the root itself 0.

Per-sentence means divide the respective sums by n - 1, the number of
dependencies. Sums and counts are integers throughout; a mean is one
division at the output boundary.
"""

from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii
from operator import mul, sub
from typing import Mapping, NamedTuple

from .errors import TooShort
from .treebank import _DECIMAL_TABLE, Sentence, tree_depths


def node_depths(sentence: Sentence) -> tuple[int, ...]:
    """HD of every node, indexed by position - 1. Root depth is 0.

    The depths that :func:`validate_tree` attached; an unvalidated sentence
    costs one :func:`tree_depths` walk, so a malformed one raises ``InvalidTree``.
    """
    if sentence.depths is None:
        return tree_depths(sentence.head_vector, sentence.id, sentence.source)
    return sentence.depths


def dependency_terms(sentence: Sentence) -> tuple[list[int], tuple[int, ...], int]:
    """The per-sentence terms of every measure: (DDs, depths, root position); requires n >= 2.

    The DDs are those of the n - 1 dependencies in position order, the root
    left out; the depths are those of :func:`node_depths`, the root's 0 included.
    """
    heads = sentence.head_vector
    n = len(heads)
    if n < 2:
        raise TooShort(f"{sentence.id}: need >= 2 nodes, got {n}")
    depths = node_depths(sentence)
    root = heads.index(0) + 1
    dds = list(map(abs, map(sub, heads, range(1, n + 1))))
    del dds[root - 1]  # the root has no DD; its entry is abs(0 - root)
    return dds, depths, root


class MetricRecord(NamedTuple):
    """Per-sentence metric summary: length, DD/HD histograms, root out-degree.

    Both histograms total n - 1. Means are derived from the histograms, so
    the stored state stays integral.
    """

    sentence_id: str
    sl: int
    dd_hist: Mapping[int, int]
    hd_hist: Mapping[int, int]
    root_out_degree: int

    @property
    def dd_total(self) -> int:
        return sum(map(mul, self.dd_hist, self.dd_hist.values()))

    @property
    def hd_total(self) -> int:
        return sum(map(mul, self.hd_hist, self.hd_hist.values()))

    @property
    def mdd(self) -> float:
        return self.dd_total / (self.sl - 1)

    @property
    def mhd(self) -> float:
        return self.hd_total / (self.sl - 1)

    def json_line(self) -> str:
        """The record as one ``metrics`` line, without its LF.

        The text is that of ``json.dumps`` with ``sort_keys=True`` on the
        record's plain-data form: keys in sorted order, histogram keys as
        JSON strings in text order (``"1"``, ``"10"``, ``"2"``), the id with
        ASCII escapes, ``mdd``/``mhd`` rounded to 4 places.
        """
        return (
            f'{{"dd_hist": {_hist_json(self.dd_hist)}, "hd_hist": {_hist_json(self.hd_hist)}, '
            f'"id": {encode_basestring_ascii(self.sentence_id)}, "mdd": {round(self.mdd, 4)!r}, '
            f'"mhd": {round(self.mhd, 4)!r}, "root_out_degree": {self.root_out_degree}, "sl": {self.sl}}}'
        )


_KEY_TEXT = [f'"{key}": ' for key in range(_DECIMAL_TABLE)]  # histogram keys' JSON text and text order
_KEY_RANK = {key: rank for rank, key in enumerate(sorted(range(_DECIMAL_TABLE), key=str))}


def _hist_json(hist: Mapping[int, int]) -> str:
    """A histogram as a JSON object with string keys, its members in key-text order."""
    try:
        keys = sorted(hist, key=_KEY_RANK.__getitem__)
    except KeyError:  # a key outside the table
        return "{" + ", ".join([f'"{key}": {hist[key]}' for key in sorted(hist, key=str)]) + "}"
    return "{" + ", ".join([_KEY_TEXT[key] + str(hist[key]) for key in keys]) + "}"


def metric_record(sentence: Sentence) -> MetricRecord:
    """Compute the full metric summary for one sentence (n >= 2) from :func:`dependency_terms`."""
    dds, depths, root = dependency_terms(sentence)
    hd_hist = Counter(depths)
    del hd_hist[0]  # the root is the only node at depth 0
    return MetricRecord(
        sentence_id=sentence.id,
        sl=len(depths),
        dd_hist=dict(Counter(dds)),
        hd_hist=dict(hd_hist),
        root_out_degree=sentence.head_vector.count(root),
    )
