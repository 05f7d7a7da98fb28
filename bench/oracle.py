"""Independent check of the CLI's outputs against the benchmark's own head vectors.

Nothing here calls into ``depmetrics``: depths come from a breadth-first walk
down child lists, and every expected count is derived from the trees the
benchmark wrote. Each ``check`` returns a list of problems; an empty list
means the run's outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import Corpus, Tree

REPORT_FILES = (
    "corr.csv", "corr_gated.csv", "dist.csv", "entropy.csv", "entropy_gated.csv",
    "meta.json", "report.json", "trend.csv", "valency.csv", "valency_fit.csv",
)
MAX_VALENCY_CLASS = 4


@dataclass(frozen=True)
class TreeStats:
    dd_hist: Counter
    hd_hist: Counter
    root_out_degree: int

    @property
    def dd_total(self) -> int:
        return sum(v * c for v, c in self.dd_hist.items())

    @property
    def hd_total(self) -> int:
        return sum(v * c for v, c in self.hd_hist.items())


def tree_stats(heads: tuple[int, ...]) -> TreeStats:
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for i, head in enumerate(heads, 1):
        children[head].append(i)
    (root,) = children[0]
    depth = [0] * (n + 1)
    order = [root]
    for v in order:  # breadth-first; the list grows while it is walked
        for child in children[v]:
            depth[child] = depth[v] + 1
            order.append(child)
    return TreeStats(
        dd_hist=Counter(abs(h - i) for i, h in enumerate(heads, 1) if h),
        hd_hist=Counter(depth[v] for v in range(1, n + 1) if v != root),
        root_out_degree=len(children[root]),
    )


def expected_meta(corpus: Corpus) -> dict[str, object]:
    inputs = []
    for name, (fmt, trees) in corpus.files.items():
        accepted = sum(tree.valid for tree in trees)
        inputs.append({
            "path": name,
            "format": fmt,
            "sha256": hashlib.sha256((corpus.directory / name).read_bytes()).hexdigest(),
            "accepted": accepted,
            "rejected": len(trees) - accepted,
        })
    accepted = sum(entry["accepted"] for entry in inputs)
    return {
        "inputs": inputs,
        "sentence_counts": {
            "accepted": accepted,
            "rejected": len(corpus.trees) - accepted,
            "single_node": 0,
        },
    }


def _meta_problems(meta: object, expected: dict[str, object], where: str) -> list[str]:
    if not isinstance(meta, dict):
        return [f"{where}: meta is not an object"]
    problems = []
    for key, want in expected.items():
        if meta.get(key) != want:
            problems.append(f"{where}: {key} is {meta.get(key)!r}, expected {want!r}")
    return problems


def _valency(tree: Tree, stats: TreeStats, lexicon: dict[str, int] | None) -> int | None:
    if lexicon is None:
        return min(stats.root_out_degree, MAX_VALENCY_CLASS)
    assert tree.lemmas is not None
    return lexicon.get(tree.lemmas[tree.heads.index(0)])


def expected_report(corpus: Corpus) -> dict[str, object]:
    """The parts of ``report.json`` that follow from counting alone."""
    assert corpus.sl_window is not None
    sl_min, sl_max = corpus.sl_window
    lengths: Counter = Counter()
    pooled = {"dd": Counter(), "hd": Counter()}
    totals: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])  # dd, hd, n
    cells: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0, 0])  # dd1, hd1, n
    misses = 0
    for tree in corpus.trees:
        if not tree.valid:
            continue
        sl = tree.nodes
        lengths[sl] += 1
        if not sl_min <= sl <= sl_max:
            continue
        stats = tree_stats(tree.heads)
        pooled["dd"].update(stats.dd_hist)
        pooled["hd"].update(stats.hd_hist)
        total = totals[sl]
        total[0] += stats.dd_total
        total[1] += stats.hd_total
        total[2] += 1
        valency = _valency(tree, stats, corpus.lexicon)
        if valency is None:
            misses += 1
            continue
        cell = cells[(valency, sl)]
        cell[0] += stats.dd_hist[1]
        cell[1] += stats.hd_hist[1]
        cell[2] += 1
    return {
        "length_histogram": {str(sl): lengths[sl] for sl in sorted(lengths)},
        "pooled": {
            m: {"total": sum(c.values()), "counts": {str(v): c[v] for v in sorted(c)}}
            for m, c in pooled.items()
        },
        "trend": [
            {
                "sl": sl,
                "mean_mdd": round(float(Fraction(dd, (sl - 1) * n)), 4),
                "mean_mhd": round(float(Fraction(hd, (sl - 1) * n)), 4),
                "n": n,
            }
            for sl, (dd, hd, n) in sorted(totals.items())
        ],
        "valency_cells": [
            {
                "valency": valency,
                "sl": sl,
                "avg_dd1": round(float(Fraction(dd1, n)), 4),
                "avg_hd1": round(float(Fraction(hd1, n)), 4),
                "n": n,
            }
            for (valency, sl), (dd1, hd1, n) in sorted(cells.items())
        ],
        "lexicon_misses": misses,
    }


def expected_records(corpus: Corpus) -> list[dict[str, object]]:
    """One ``metrics`` JSONL record per accepted sentence, in file order."""
    records = []
    for tree in corpus.trees:
        if not tree.valid:
            continue
        stats = tree_stats(tree.heads)
        records.append({
            "id": tree.id,
            "sl": tree.nodes,
            "mdd": round(stats.dd_total / (tree.nodes - 1), 4),
            "mhd": round(stats.hd_total / (tree.nodes - 1), 4),
            "dd_hist": {str(k): stats.dd_hist[k] for k in sorted(stats.dd_hist)},
            "hd_hist": {str(k): stats.hd_hist[k] for k in sorted(stats.hd_hist)},
            "root_out_degree": stats.root_out_degree,
        })
    return records


class Oracle:
    """Holds what one corpus must produce, and the digest of the first run's outputs."""

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.meta = expected_meta(corpus)
        if corpus.sl_window is None:
            self.records = expected_records(corpus)
        else:
            self.report = expected_report(corpus)
        self.digest: str | None = None

    def output_paths(self) -> list[Path]:
        out = self.corpus.directory / self.corpus.output
        if self.corpus.sl_window is None:
            return [out]
        return [out / name for name in REPORT_FILES]

    def check(self) -> list[str]:
        """Check the outputs now on disk; the first run's bytes fix the rest of the set."""
        paths = self.output_paths()
        missing = [str(p.name) for p in paths if not p.is_file()]
        if missing:
            return [f"missing outputs: {missing}"]
        try:
            if self.corpus.sl_window is None:
                problems = self._check_metrics(paths[0])
            else:
                problems = self._check_report(paths[0].parent)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:  # malformed output
            problems = [f"unreadable output: {exc!r}"]
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            problems.append("outputs differ from the first run's bytes")
        return problems

    def _check_metrics(self, path: Path) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("# "):
            return ["metrics output has no '# ' header line"]
        problems = _meta_problems(json.loads(lines[0][2:]), self.meta, "metrics header")
        records = [json.loads(line) for line in lines[1:]]
        if len(records) != len(self.records):
            problems.append(f"{len(records)} records, expected {len(self.records)}")
        for got, want in zip(records, self.records):
            if got != want:
                problems.append(f"record {want['id']}: got {got!r}, expected {want!r}")
                break
        return problems

    def _check_report(self, directory: Path) -> list[str]:
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
        problems = _meta_problems(meta, self.meta, "meta.json")
        problems += _meta_problems(report["meta"], self.meta, "report.json meta")
        want = self.report
        got = {
            "length_histogram": report["length_histogram"],
            "pooled": {
                m: {"total": d["total"], "counts": d["counts"]}
                for m, d in report["pooled_distribution"].items()
            },
            "trend": report["trend"],
            "valency_cells": report["valency"]["cells"],
            "lexicon_misses": report["valency"]["lexicon_misses"],
        }
        for key in want:
            if got[key] != want[key]:
                problems.append(f"report.json {key}: got {got[key]!r}, expected {want[key]!r}")
        if report["rejections"]:
            problems.append(f"report.json lists {len(report['rejections'])} rejections, expected none")
        return problems
