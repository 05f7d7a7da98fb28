"""Acceptance suite: one test per release criterion, at its stated tolerance.

A summary line per criterion is printed at the end of the pytest run (see
conftest). Criterion 9's corpus-scale reproduction needs licensed data that
cannot ship with the repo; its directional check runs only when
DEPMETRICS_TREEBANK points at a real treebank of >= 10,000 sentences.
"""

import math
import os
import random
import statistics
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from depmetrics.analysis import (
    conditional_distributions,
    length_histogram,
    mean_metric_by_sl,
    pooled_distribution,
    valency_conditioned_counts,
)
from depmetrics.cli import main
from depmetrics.metrics import metric_record
from depmetrics.randtree import GeneratorConfig, chain_heads, random_tree, star_heads
from depmetrics.stats import Distribution, entropy, ols_fit, spearman
from depmetrics.treebank import Sentence, iter_parse, validate_tree

from .conftest import DATA_DIR, DEMO7_HEADS, exact_means, fold
from .reference_analysis import midranks
from .reference_randtree import enumerate_trees

README = Path(__file__).resolve().parent.parent / "README.md"


def brute_hd(heads, index):
    steps = 0
    v = index
    while heads[v - 1] != 0:
        v = heads[v - 1]
        steps += 1
    return steps


def test_criterion_01_worked_example_golden():
    started = time.monotonic()
    text = "\n".join(
        f"{i}\tw{i}\t_\t_\t_\t_\t{h}\t_\t_\t_" for i, h in enumerate(DEMO7_HEADS, 1)
    )
    sentence = list(iter_parse(text, "conllu"))[0]
    record = metric_record(sentence)
    elapsed = time.monotonic() - started
    assert record.sl == 7
    assert abs(record.mdd - 1.8333) < 5e-5
    assert abs(record.mhd - 1.6667) < 5e-5
    assert elapsed < 1.0


def test_criterion_02_sl2_identity():
    pairs = [s for s in enumerate_trees(2)]
    pairs += [s for s in iter_parse((DATA_DIR / "sample_200.jsonl").read_bytes(), "canonical") if len(s) == 2]
    ud = (DATA_DIR / "sample_ud.conllu").read_bytes()
    pairs += [s for s in iter_parse(ud, "conllu", errors="skip", rejections=[]) if len(s) == 2]
    assert len(pairs) >= 12
    for sentence in pairs:
        record = metric_record(sentence)
        assert record.mdd == 1.0
        assert record.mhd == 1.0
        assert exact_means(record) == (1, 1)


def test_criterion_03_oracle_equivalence_on_enumerated_trees():
    started = time.monotonic()
    checked = 0
    for n in range(2, 7):
        for sentence in enumerate_trees(n):
            heads = sentence.heads()
            record = metric_record(sentence)
            brute_dds = [abs(h - i) for i, h in enumerate(heads, 1) if h != 0]
            root = heads.index(0) + 1
            brute_hds = [brute_hd(heads, i) for i in range(1, n + 1) if i != root]
            assert record.dd_hist == dict(Counter(brute_dds))
            assert record.hd_hist == dict(Counter(brute_hds))
            assert record.mdd == sum(brute_dds) / (n - 1)
            assert record.mhd == sum(brute_hds) / (n - 1)
            # depth sum identity: every node contributes 1 to each proper ancestor
            subtree_minus_one = sum(
                sum(1 for other in range(1, n + 1) if other != v and _passes_through(heads, other, v))
                for v in range(1, n + 1)
            )
            assert sum(brute_hd(heads, i) for i in range(1, n + 1)) == subtree_minus_one
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == sum(n ** (n - 1) for n in range(2, 7))  # 8476 trees
    assert elapsed < 30.0


def _passes_through(heads, start, target):
    v = start
    while heads[v - 1] != 0:
        v = heads[v - 1]
        if v == target:
            return True
    return False


def test_criterion_04_extremal_structures_exact():
    for n in range(2, 21):
        chain = metric_record(validate_tree(Sentence.from_heads(chain_heads(n))))
        star = metric_record(validate_tree(Sentence.from_heads(star_heads(n))))
        assert exact_means(chain) == (Fraction(1), Fraction(n, 2))
        assert exact_means(star) == (Fraction(n, 2), Fraction(1))


def test_criterion_05_hd1_equals_root_out_degree():
    for n in range(2, 7):
        for sentence in enumerate_trees(n):
            record = metric_record(sentence)
            assert record.hd_hist.get(1, 0) == record.root_out_degree
    for sentence in iter_parse((DATA_DIR / "sample_200.jsonl").read_bytes(), "canonical"):
        record = metric_record(sentence)
        assert record.hd_hist.get(1, 0) == record.root_out_degree

    # synthetic fixed-out-degree corpora: class v must average exactly v
    for target_degree in (1, 2, 3, 4):
        sentences = [
            s
            for n in (5, 6)
            for s in enumerate_trees(n)
            if metric_record(s).root_out_degree == target_degree
        ][:80]
        assert sentences
        cells, misses = valency_conditioned_counts(fold(sentences, (5, 6)))
        assert misses == 0
        for cell in cells:
            assert cell.valency == target_degree
            assert cell.avg_hd1 == float(target_degree)


def test_criterion_06_statistics_kernels():
    # entropy of uniform-k within 1e-12 of log2 k
    for k in range(1, 1025):
        uniform = Distribution({value: 1 for value in range(k)})
        assert abs(entropy(uniform) - math.log2(k)) <= 1e-12, k

    # Spearman on strictly monotone data: rho = +-1 with p reported as 0
    up = spearman((1, 2, 3, 4, 5), (2, 4, 8, 16, 32))
    assert up.rho == 1.0 and up.p_value == 0.0
    down = spearman((1, 2, 3, 4, 5), (10, 8, 6, 4, 2))
    assert down.rho == -1.0 and down.p_value == 0.0

    # tie-free Spearman equals the 1 - 6*sum(d^2)/(n(n^2-1)) formula within 1e-12
    rng = random.Random(2025)
    for _ in range(100):
        n = rng.randint(4, 50)
        xs = rng.sample(range(10_000), n)
        ys = rng.sample(range(10_000), n)
        rho = spearman(xs, ys).rho
        d2 = sum((a - b) ** 2 for a, b in zip(midranks(xs), midranks(ys)))
        assert abs(rho - (1 - 6 * d2 / (n * (n * n - 1)))) <= 1e-12

    # OLS: exact-fit recovery with adjusted R^2 = 1 within 1e-9
    xs = list(range(2, 21))
    exact = ols_fit(xs, [0.544 * x - 0.3183 for x in xs])
    assert abs(exact.slope - 0.544) <= 1e-9
    assert abs(exact.intercept + 0.3183) <= 1e-9
    assert abs(exact.adj_r2 - 1.0) <= 1e-9

    # planted coefficients with seeded noise, n = 19, within 3 standard errors
    rng = random.Random(4711)
    noisy = ols_fit(xs, [2.0 * x + 1.0 + rng.gauss(0.0, 0.1) for x in xs])
    assert noisy.n == 19
    assert abs(noisy.slope - 2.0) <= 3.0 * noisy.se_slope
    assert abs(noisy.intercept - 1.0) <= 3.0 * noisy.se_intercept


def test_criterion_07_conditional_merge_equals_pooled():
    for corpus_index in range(50):
        rng = random.Random(1000 + corpus_index)
        stats = fold(
            (random_tree(GeneratorConfig(n=rng.randint(2, 12), seed=corpus_index), i) for i in range(1000)),
            (2, 12),
        )
        lengths = sorted(stats.by_sl)
        for metric in ("dd", "hd"):
            pooled = pooled_distribution(stats, metric)
            merged: Counter = Counter()
            for dist in conditional_distributions(stats, lengths)[metric].values():
                merged.update(dist.counts)
            assert dict(merged) == dict(pooled.counts)


def test_criterion_08_report_byte_determinism(tmp_path, capsys):
    corpus = str(DATA_DIR / "sample_200.jsonl")
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in dirs:
        assert main(["report", corpus, "--output-dir", str(out_dir), "--min-bucket", "3"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_criterion_09a_license_holder_invocation_documented():
    readme = README.read_text(encoding="utf-8")
    assert "depmetrics report" in readme
    assert "--sl-max 30" in readme
    assert "--valency-mode lexicon" in readme


def test_criterion_09b_directional_check_on_real_treebank():
    treebank = os.environ.get("DEPMETRICS_TREEBANK")
    if not treebank:
        pytest.skip(
            "directional check needs a >= 10,000-sentence treebank; "
            "set DEPMETRICS_TREEBANK=/path/to/corpus.conllu to run it"
        )
    suffix = Path(treebank).suffix.lower()
    fmt = {"conllu": "conllu", ".conllu": "conllu", ".cabocha": "cabocha", ".jsonl": "canonical"}.get(
        suffix, "conllu"
    )
    sentences = iter_parse(Path(treebank).read_bytes(), fmt, errors="skip", rejections=[])
    stats = fold((sentence for sentence in sentences if len(sentence) >= 2), (2, 20))
    assert sum(length_histogram(stats).values()) >= 10_000
    p_dd1 = pooled_distribution(stats, "dd").probabilities().get(1, 0.0)
    p_hd1 = pooled_distribution(stats, "hd").probabilities().get(1, 0.0)
    assert p_dd1 > p_hd1
    mdd_series, mhd_series = mean_metric_by_sl(stats)
    for series in (mdd_series, mhd_series):
        trend = spearman([p.sl for p in series], [p.value for p in series])
        assert trend.rho > 0  # increasing in length, direction only


def test_criterion_10_random_baseline_stability():
    n = 10
    mdd_means = []
    mhd_means = []
    for seed in (101, 102, 103, 104, 105):
        records = [
            metric_record(sentence)
            for sentence in (
                random_tree(GeneratorConfig(n=n, seed=seed), i) for i in range(10_000)
            )
        ]
        mdd_means.append(statistics.fmean(r.mdd for r in records))
        mhd_means.append(statistics.fmean(r.mhd for r in records))
    for means in (mdd_means, mhd_means):
        cv = statistics.pstdev(means) / statistics.fmean(means)
        assert cv < 0.02
    # measurably different from the structural extremes (chain: MDD 1 / MHD 5;
    # star: MDD 5 / MHD 1)
    for mean in mdd_means:
        assert abs(mean - 1.0) > 0.5 and abs(mean - 5.0) > 0.5
    for mean in mhd_means:
        assert abs(mean - 5.0) > 0.5 and abs(mean - 1.0) > 0.5
