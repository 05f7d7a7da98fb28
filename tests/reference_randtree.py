"""Exhaustive enumeration of rooted trees, and the reference random-tree decoding.

``enumerate_trees`` yields every rooted labeled tree on up to
``MAX_ENUMERATION_N`` nodes through ``randtree``'s linear Prüfer walk; the
tests use it as a brute-force oracle. The rest is the heap decoder and the
DFS orientation the linear walk replaced: ``prufer_edges`` decodes a Prüfer
sequence with a heap of leaves into an edge list; ``orient`` points those
edges at a root through adjacency lists and a depth-first search;
``enumerate_trees_by_heap`` decodes every sequence once and orients it at
each root. ``random_heads`` draws the sequence and the root with
``random.randint`` and decodes them so. The property tests require
``randtree`` to give the same head vectors, ids and order as these.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Iterator, Sequence

from depmetrics.errors import DepMetricsError
from depmetrics.randtree import _prufer_heads
from depmetrics.treebank import Sentence

MAX_ENUMERATION_N = 7


class NTooLarge(DepMetricsError):
    """Exhaustive enumeration was requested beyond the supported size."""


def enumerate_trees(n: int) -> Iterator[Sentence]:
    """Yield every rooted labeled tree on positions 1..n exactly once.

    There are n^(n-1) of them, which is why n is capped at 7.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_ENUMERATION_N:
        raise NTooLarge(f"enumeration is limited to n <= {MAX_ENUMERATION_N}, got {n}")
    counter = 0
    if n == 1:
        yield Sentence("enum1-0", (0,))
        return
    seq = [1] * (n - 2)
    while True:
        for root in range(1, n + 1):
            yield Sentence(f"enum{n}-{counter}", _prufer_heads(seq, n, root))
            counter += 1
        # odometer increment over labels 1..n
        pos = len(seq) - 1
        while pos >= 0 and seq[pos] == n:
            seq[pos] = 1
            pos -= 1
        if pos < 0:
            return
        seq[pos] += 1


def prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence over labels 1..n into the tree's edge list."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for v in seq:
        leaf = heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heappush(leaves, v)
    last = heappop(leaves)
    edges.append((last, heappop(leaves)))
    return edges


def orient(edges: Sequence[tuple[int, int]], n: int, root: int) -> tuple[int, ...]:
    """Turn an undirected tree into a head vector by pointing edges at ``root``."""
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    heads = [0] * (n + 1)
    stack = [root]
    seen = [False] * (n + 1)
    seen[root] = True
    while stack:
        parent = stack.pop()
        for child in adjacency[parent]:
            if not seen[child]:
                seen[child] = True
                heads[child] = parent
                stack.append(child)
    return tuple(heads[1:])


def enumerate_trees_by_heap(n: int) -> Iterator[Sentence]:
    """Every rooted labeled tree on 1..n, in (sequence odometer, root) order."""
    if n == 1:
        yield Sentence.from_heads((0,), id="enum1-0")
        return
    counter = 0
    seq = [1] * (n - 2)
    while True:
        edges = prufer_edges(seq, n)
        for root in range(1, n + 1):
            yield Sentence.from_heads(orient(edges, n, root), id=f"enum{n}-{counter}")
            counter += 1
        pos = len(seq) - 1
        while pos >= 0 and seq[pos] == n:
            seq[pos] = 1
            pos -= 1
        if pos < 0:
            return
        seq[pos] += 1


def random_heads(seed: str, n: int, cap: int | None = None) -> tuple[int, ...]:
    """The head vector ``randtree.random_tree`` draws from ``random.Random(seed)`` for n >= 2."""
    rng = random.Random(seed)
    while True:
        seq = [rng.randint(1, n) for _ in range(n - 2)]
        root = rng.randint(1, n)
        heads = orient(prufer_edges(seq, n), n, root)
        if cap is None or heads.count(root) <= cap:
            return heads
