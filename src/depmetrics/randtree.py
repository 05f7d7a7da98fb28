"""Uniform-random generation of rooted dependency trees.

Rooted labeled trees on n positions are in bijection with (Prüfer sequence,
root) pairs, giving n^(n-1) trees. Sampling draws both uniformly, so every
rooted tree is equally likely. Generated sentences feed the same pipeline as
parsed corpora (via the canonical JSONL format).

Sampling is deterministic per (seed, sample index): each sample uses its own
Mersenne Twister stream, ``random.Random("<seed>:<index>")`` (CPython hashes
a string seed platform-independently). A sample draws n - 2 Prüfer labels and
then the root, each in 1..n by rejection on ``getrandbits(n.bit_length())``:
the algorithm of ``random.randint(1, n)`` on CPython 3.10-3.13, so generated
files match those of earlier versions byte for byte. The root out-degree cap
redraws from the same stream until a tree meets it.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from .errors import ConstraintUnsatisfiable
from .treebank import Sentence

RNG_NAME = "mersenne-twister/str-seed"
CONSTRAINTS = ("chain", "star", "max_root_out_degree")
_MAX_REJECTION_ATTEMPTS = 1_000_000


class GeneratorConfig:
    """Settings for tree generation.

    ``constraint`` is one of None, "chain", "star" or "max_root_out_degree";
    the last requires ``max_root_out_degree`` between 1 and n - 1 and is
    enforced by rejection sampling.
    """

    __slots__ = ("n", "seed", "count", "constraint", "max_root_out_degree")

    def __init__(
        self,
        n: int,
        seed: int = 0,
        count: int = 1,
        constraint: str | None = None,
        max_root_out_degree: int | None = None,
    ) -> None:
        self.n = n
        self.seed = seed
        self.count = count
        self.constraint = constraint
        self.max_root_out_degree = max_root_out_degree
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.constraint is not None and self.constraint not in CONSTRAINTS:
            raise ValueError(f"unknown constraint {self.constraint!r}; expected one of {CONSTRAINTS}")
        if self.constraint == "max_root_out_degree":
            cap = self.max_root_out_degree
            if cap is None:
                raise ConstraintUnsatisfiable("max_root_out_degree constraint needs a cap value")
            if not 1 <= cap <= self.n - 1:
                raise ConstraintUnsatisfiable(
                    f"root out-degree cap must satisfy 1 <= cap <= n-1, got cap={cap} with n={self.n}"
                )
        elif self.max_root_out_degree is not None:
            raise ValueError("max_root_out_degree is only meaningful with its constraint")


def chain_heads(n: int) -> tuple[int, ...]:
    """Each node heads to the next; the last node is the root. MDD 1, MHD n/2."""
    return tuple(range(2, n + 1)) + (0,)


def star_heads(n: int) -> tuple[int, ...]:
    """Every node heads to the final node (the root). MDD n/2, MHD 1."""
    return tuple([n] * (n - 1)) + (0,)


def _prufer_heads(seq: Sequence[int], n: int, root: int) -> tuple[int, ...]:
    """Decode a Prüfer sequence over labels 1..n into its tree's head vector, rooted at ``root``.

    One linear walk: a pointer climbs the labels to the next leaf, and a label
    the sequence has just turned into a leaf is taken at once when it lies
    below the pointer, so every step removes the smallest leaf, as the heap
    decoder does. Each removed edge (leaf, v) sets ``head[leaf] = v``, which
    roots the tree at n (never the smallest leaf); reversing the path from
    ``root`` up to n then moves the root.
    """
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    head = [0] * (n + 1)
    pointer = leaf = degree.index(1, 1)
    for v in seq:
        head[leaf] = v
        degree[v] -= 1
        if v < pointer and degree[v] == 1:
            leaf = v
        else:
            pointer = leaf = degree.index(1, pointer + 1)
    head[leaf] = n
    child, node = 0, root
    while node:
        parent = head[node]
        head[node] = child
        child, node = node, parent
    return tuple(head[1:])


def random_tree(config: GeneratorConfig, index: int = 0) -> Sentence:
    """Draw the ``index``-th tree of the configured stream.

    Unconstrained draws are uniform over rooted labeled trees on n nodes.
    The chain/star constraints are deterministic shapes; the root out-degree
    cap rejection-samples the uniform distribution.
    """
    n = config.n
    sent_id = f"rand-n{n}-s{config.seed}-{index}"
    if config.constraint == "chain":
        return Sentence(sent_id, chain_heads(n))
    if config.constraint == "star":
        return Sentence(sent_id, star_heads(n))
    if n == 1:
        return Sentence(sent_id, (0,))
    getrandbits = random.Random(f"{config.seed}:{index}").getrandbits
    bits = n.bit_length()
    cap = config.max_root_out_degree if config.constraint == "max_root_out_degree" else None
    for _ in range(_MAX_REJECTION_ATTEMPTS):
        # n - 2 sequence labels, then the root: each is rng.randint(1, n) drawn inline
        draws = []
        for _ in range(n - 1):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            draws.append(r + 1)
        root = draws.pop()
        heads = _prufer_heads(draws, n, root)
        if cap is None or heads.count(root) <= cap:
            return Sentence(sent_id, heads)
    raise ConstraintUnsatisfiable(
        f"gave up after {_MAX_REJECTION_ATTEMPTS} draws with cap {cap} at n={n}"
    )


def generate(config: GeneratorConfig) -> Iterator[Sentence]:
    """Yield ``config.count`` trees, at sample indices 0..count-1."""
    for index in range(config.count):
        yield random_tree(config, index)
