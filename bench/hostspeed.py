"""How fast the host runs pure Python right now, from a fixed reference loop.

On a shared machine the same CLI run takes up to a third longer for minutes
at a time, and its CPU time moves with its wall time, so the slowdown is the
host's, not the program's. The reference loop does the kind of work the CLI
does (split tab-separated lines, parse integers, count into a dict, dump
JSON) on a fixed text, so it slows down by the same factor. ``slowdown()``
is its time divided by ``NOMINAL_S``, its time on the host the benchmark was
written on (a 2-core sandbox, Python 3.11.7). ``bracketed`` runs a piece of
work between two reference passes; its time divided by their mean slowdown
reads as seconds on that host. The loop and ``NOMINAL_S`` must stay fixed,
or figures from before and after a change stop being comparable.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Callable, TypeVar

T = TypeVar("T")

NOMINAL_S = 0.035


def _reference_text() -> str:
    lines = []
    for s in range(1200):
        n = 5 + s % 30
        for i in range(1, n + 1):
            head = 0 if i == 1 else (i * 7 + s) % n + 1
            lines.append(f"{i}\tw{i}\tw\tNOUN\t_\t_\t{head}\tdep\t_\t_")
        lines.append("")
    return "\n".join(lines)


_TEXT = _reference_text()


def reference_s() -> float:
    """Time one pass of the reference loop, with the collector held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for block in _TEXT.split("\n\n"):
            counts: dict[int, int] = {}
            for i, line in enumerate(block.splitlines(), 1):
                distance = abs(int(line.split("\t")[6]) - i)
                counts[distance] = counts.get(distance, 0) + 1
            json.dumps(counts, sort_keys=True)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def slowdown() -> float:
    """Reference time over ``NOMINAL_S``: above 1 when the host is slower than nominal."""
    return reference_s() / NOMINAL_S


def bracketed(work: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``work`` between two reference passes: its result, wall time and mean slowdown."""
    before = slowdown()
    start = time.perf_counter()
    result = work()
    wall = time.perf_counter() - start
    return result, wall, (before + slowdown()) / 2
