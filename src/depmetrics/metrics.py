"""Per-dependency distances and per-sentence summary metrics.

Dependency distance (DD) of a non-root node is the absolute difference
between its position and its head's position, so adjacent links score 1.
Hierarchical distance (HD) is the number of head links from a node up to
the root; direct dependents of the root score 1, the root itself 0.

Per-sentence means divide the respective sums by n - 1, the number of
dependencies. Sums and counts are integers throughout, so the means are
exact rationals until converted to float at the output boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Mapping

from .errors import RootHasNoDD, TooShort
from .treebank import Sentence, tree_depths


def dd(sentence: Sentence, index: int) -> int:
    """Dependency distance of the node at 1-based ``index``."""
    node = sentence.node(index)
    if node.head == 0:
        raise RootHasNoDD(f"{sentence.id}: node {index} is the root")
    return abs(node.head - node.index)


def hd(sentence: Sentence, index: int) -> int:
    """Hierarchical distance (head links to the root) of the node at ``index``."""
    return node_depths(sentence)[index - 1]


def node_depths(sentence: Sentence) -> list[int]:
    """HD of every node, as a list indexed by position - 1. Root depth is 0.

    Uses the depths that :func:`validate_tree` attached; an unvalidated
    sentence is validated here, so a malformed one raises ``InvalidTree``.
    """
    if sentence.depths is None:
        return list(tree_depths(sentence.head_vector, sentence.id, sentence.source))
    return list(sentence.depths)


def mdd(sentence: Sentence) -> float:
    """Mean dependency distance; requires n >= 2."""
    n = len(sentence)
    if n < 2:
        raise TooShort(f"{sentence.id}: need >= 2 nodes, got {n}")
    total = sum(abs(head - i) for i, head in enumerate(sentence.head_vector, 1) if head)
    return total / (n - 1)


def mhd(sentence: Sentence) -> float:
    """Mean hierarchical distance; requires n >= 2."""
    n = len(sentence)
    if n < 2:
        raise TooShort(f"{sentence.id}: need >= 2 nodes, got {n}")
    return sum(node_depths(sentence)) / (n - 1)


@dataclass(frozen=True)
class MetricRecord:
    """Per-sentence metric summary: length, DD/HD histograms, root out-degree.

    Both histograms total n - 1. Means are derived from the histograms, so
    the stored state stays integral; ``mdd_exact``/``mhd_exact`` expose the
    rational values when exact aggregation is needed.
    """

    sentence_id: str
    sl: int
    dd_hist: Mapping[int, int]
    hd_hist: Mapping[int, int]
    root_out_degree: int

    @property
    def dd_total(self) -> int:
        return sum(value * count for value, count in self.dd_hist.items())

    @property
    def hd_total(self) -> int:
        return sum(value * count for value, count in self.hd_hist.items())

    @property
    def mdd_exact(self) -> Fraction:
        return Fraction(self.dd_total, self.sl - 1)

    @property
    def mhd_exact(self) -> Fraction:
        return Fraction(self.hd_total, self.sl - 1)

    @property
    def mdd(self) -> float:
        return self.dd_total / (self.sl - 1)

    @property
    def mhd(self) -> float:
        return self.hd_total / (self.sl - 1)

    def to_json_dict(self) -> dict[str, object]:
        """Plain-data view used by the per-sentence JSONL dump."""
        return {
            "id": self.sentence_id,
            "sl": self.sl,
            "mdd": round(self.mdd, 4),
            "mhd": round(self.mhd, 4),
            "dd_hist": {str(k): self.dd_hist[k] for k in sorted(self.dd_hist)},
            "hd_hist": {str(k): self.hd_hist[k] for k in sorted(self.hd_hist)},
            "root_out_degree": self.root_out_degree,
        }


def metric_record(sentence: Sentence) -> MetricRecord:
    """Compute the full metric summary for one sentence (n >= 2).

    Reads the depths that validation attached; only an unvalidated sentence
    costs a :func:`node_depths` walk.
    """
    n = len(sentence)
    if n < 2:
        raise TooShort(f"{sentence.id}: need >= 2 nodes, got {n}")
    heads = sentence.head_vector
    root = sentence.root_index
    dds = list(map(abs, map(sub, heads, range(1, n + 1))))
    del dds[root - 1]  # the root has no DD; its entry is abs(0 - root)
    hd_hist = Counter(sentence.depths if sentence.depths is not None else node_depths(sentence))
    del hd_hist[0]  # the root is the only node at depth 0
    return MetricRecord(
        sentence_id=sentence.id,
        sl=n,
        dd_hist=dict(Counter(dds)),
        hd_hist=dict(hd_hist),
        root_out_degree=heads.count(root),
    )
