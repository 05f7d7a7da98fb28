import json
import math
import pickle
import random
from collections import Counter

import pytest

from depmetrics.analysis import (
    CorpusStats,
    ValencyCell,
    conditional_distributions,
    entropy_by_sl,
    find_intersection,
    fit_valency_models,
    length_histogram,
    mean_metric_by_sl,
    pooled_distribution,
    spearman_by_sl,
    split_gated,
    valency_conditioned_counts,
)
from depmetrics.analysis import SeriesPoint
from depmetrics.errors import EmptyLexicon, EmptySelection, TooShort
from depmetrics.metrics import metric_record
from depmetrics.randtree import GeneratorConfig, chain_heads, random_tree, star_heads
from depmetrics.treebank import Sentence, ValencyLexicon, iter_canonical, iter_conllu

from .conftest import fields, fold, make_sentence
from .reference_randtree import enumerate_trees

WINDOW = (2, 20)  # the report's default length window


def rec(heads, id="s", root_lemma=None):
    return make_sentence(heads, id=id, root_lemma=root_lemma)


@pytest.fixture
def star5_record():
    return rec(star_heads(5), id="star5")


@pytest.fixture
def chain5_record():
    return rec(chain_heads(5), id="chain5")


# --- the fold itself -----------------------------------------------------------


def test_fold_totals_of_the_demo_sentence(demo7):
    cell = fold([demo7], WINDOW).by_sl[7]
    assert cell.n == 1
    assert cell.dd == {1: 4, 5: 1, 2: 1}
    assert cell.value_counts("hd") == {2: 2, 1: 3, 3: 1}
    assert cell.totals() == (11, 10)
    assert cell.pairs == {(11, 10): 1}
    assert cell.valency == {3: [4, 3, 1]}


def test_fold_of_an_unvalidated_sentence_walks_its_depths(demo7):
    bare = Sentence.from_heads(demo7.heads(), id="demo7")
    assert bare.depths is None
    assert fields(fold([bare], WINDOW)) == fields(fold([demo7], WINDOW))


def test_fold_needs_two_nodes():
    with pytest.raises(TooShort):
        CorpusStats(WINDOW).add(make_sentence((0,)))


def test_a_fold_keeps_totals_for_the_lengths_of_its_window_and_counts_the_rest():
    sentences = [rec((2, 0)), rec(chain_heads(3)), rec(chain_heads(5))]
    stats = fold(sentences, (3, 4))
    assert sorted(stats.by_sl) == [3]
    assert stats.outside == {2: 1, 5: 1}
    stats = fold(sentences, (6, 9))
    assert stats.by_sl == {}
    assert stats.outside == {2: 1, 3: 1, 5: 1}


def test_a_fold_merges_only_a_fold_of_its_window_and_lexicon_entries():
    sentences = [rec(chain_heads(12), root_lemma="go"), rec(star_heads(5), root_lemma="go")]
    lexicon = ValencyLexicon({"go": 1})
    for window, other_lexicon in (((2, 20), lexicon), ((2, 10), None), ((2, 10), ValencyLexicon({"go": 2}))):
        with pytest.raises(ValueError, match=rf"^cannot merge a fold of window \({window[0]}, {window[1]}\) "
                                             r"or other lexicon into \(2, 10\)$"):
            CorpusStats((2, 10), lexicon).merge(fold(sentences, window, other_lexicon))
    merged = CorpusStats((2, 10), ValencyLexicon({"go": 1}))
    merged.merge(pickle.loads(pickle.dumps(fold(sentences, (2, 10), lexicon))))  # as a shard fold comes back
    assert fields(merged) == fields(fold(sentences, (2, 10), lexicon))
    assert sorted(merged.by_sl) == [5] and merged.outside == {12: 1}


# --- length histogram -------------------------------------------------------


def test_length_histogram_counts():
    records = fold([rec((2, 0)), rec((2, 0)), rec((2, 3, 0))], (3, 20))  # length 2 only counted
    assert list(length_histogram(records).items()) == [(2, 2), (3, 1)]


def test_length_histogram_empty():
    assert length_histogram(CorpusStats(WINDOW)) == {}


def test_length_histogram_matches_line_count_oracle(data_dir):
    raw = (data_dir / "sample_200.jsonl").read_text(encoding="utf-8")
    oracle = Counter(
        len(json.loads(line)["nodes"])
        for line in raw.splitlines()
        if line.strip() and not line.startswith("#")
    )
    sentences = list(iter_canonical(raw))
    assert length_histogram(fold(sentences, WINDOW)) == dict(oracle)


# --- pooled / conditional distributions ---------------------------------------


def test_pooled_distribution_star(star5_record):
    dd_dist = pooled_distribution(fold([star5_record], WINDOW), "dd")
    assert dd_dist.probabilities() == {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}
    hd_dist = pooled_distribution(fold([star5_record], WINDOW), "hd")
    assert hd_dist.probabilities() == {1: 1.0}


def test_pooled_distribution_pair():
    record = fold([rec((2, 0))], WINDOW)
    for metric in ("dd", "hd"):
        assert pooled_distribution(record, metric).probabilities() == {1: 1.0}


def test_pooled_distribution_window_and_errors(star5_record):
    with pytest.raises(EmptySelection):
        pooled_distribution(fold([star5_record], (6, 20)), "dd")
    with pytest.raises(ValueError):
        pooled_distribution(fold([star5_record], WINDOW), "xx")


def test_pooled_total_matches_per_length_dependency_count():
    rng = random.Random(8)
    sentences = [random_tree(GeneratorConfig(n=rng.randint(2, 9), seed=3), i) for i in range(120)]
    dist = pooled_distribution(fold(sentences, (2, 6)), "dd")
    by_sl = Counter(len(s) for s in sentences if 2 <= len(s) <= 6)
    assert dist.total == sum((sl - 1) * count for sl, count in by_sl.items())


def test_conditional_distributions_skip_missing_lengths(caplog):
    records = fold([rec(star_heads(5), id=f"s{i}") for i in range(3)], WINDOW)
    with caplog.at_level("WARNING"):
        result = conditional_distributions(records, [5, 10])
    assert list(result["dd"]) == list(result["hd"]) == [5]
    assert result["hd"][5].probabilities() == {1: 1.0}
    assert caplog.messages == ["no sentences of length 10; omitting its dd and hd distributions"]
    with pytest.raises(ValueError):
        conditional_distributions(records, [1, 5])


# --- entropy by length ----------------------------------------------------------


def test_entropy_by_sl_single_length_two():
    points = entropy_by_sl(fold([rec((2, 0)), rec((2, 0))], WINDOW), "dd")
    assert points == [SeriesPoint(sl=2, value=0.0, n=2)]


def test_entropy_by_sl_chains():
    records = fold([rec(chain_heads(5), id=f"c{i}") for i in range(4)], WINDOW)
    dd_points = entropy_by_sl(records, "dd")
    hd_points = entropy_by_sl(records, "hd")
    assert dd_points[0].value == 0.0  # every link adjacent
    assert hd_points[0].value == pytest.approx(2.0, abs=1e-12)  # uniform over depths 1..4
    assert hd_points[0].n == 4


def test_entropy_by_sl_empty():
    assert entropy_by_sl(CorpusStats(WINDOW), "dd") == []


# --- trend and crossings ----------------------------------------------------------


def test_mean_metric_by_sl_length_two_is_exactly_one():
    mdd_series, mhd_series = mean_metric_by_sl(fold([rec((2, 0)), rec((2, 0)), rec((2, 0))], WINDOW))
    assert mdd_series == [SeriesPoint(sl=2, value=1.0, n=3)]
    assert mhd_series == [SeriesPoint(sl=2, value=1.0, n=3)]


def test_mean_metric_by_sl_mixed_shapes(star5_record, chain5_record):
    mdd_series, mhd_series = mean_metric_by_sl(fold([star5_record, chain5_record], WINDOW))
    assert mdd_series == [SeriesPoint(sl=5, value=1.75, n=2)]
    assert mhd_series == [SeriesPoint(sl=5, value=1.75, n=2)]


def test_mean_metric_by_sl_orders_lengths():
    records = fold([rec(chain_heads(4)), rec((2, 0)), rec(chain_heads(3))], WINDOW)
    mdd_series, _ = mean_metric_by_sl(records)
    assert [p.sl for p in mdd_series] == [2, 3, 4]


# A star has mean MDD above mean MHD (n/2 against 1), a chain below, from length 3 on.


def test_find_intersection_sign_change():
    stats = fold([rec(star_heads(4)), rec(star_heads(5)), rec(chain_heads(6))], WINDOW)
    assert find_intersection(stats) == [(5, 6)]


def test_find_intersection_none_when_dominating():
    stats = fold([rec(star_heads(3)), rec(star_heads(4))], WINDOW)
    assert find_intersection(stats) == []


def test_find_intersection_exact_tie_is_degenerate_interval():
    # length 4: star (DD sum 6, HD sum 3) and chain (3, 6) tie exactly
    stats = fold([rec(star_heads(3)), rec(star_heads(4)), rec(chain_heads(4)), rec(chain_heads(5))], WINDOW)
    assert find_intersection(stats) == [(4, 4)]


# --- correlation by length ----------------------------------------------------------


def _record_with_totals(sl, dd_total, hd_total, id="r"):
    """The first enumerated tree of ``sl`` nodes with the chosen DD and HD sums."""
    for sentence in enumerate_trees(sl):
        record = metric_record(sentence)
        if (record.dd_total, record.hd_total) == (dd_total, hd_total):
            return make_sentence(sentence.heads(), id=id)
    raise ValueError(f"no tree of {sl} nodes has DD sum {dd_total} and HD sum {hd_total}")


def test_spearman_by_sl_perfect_negative():
    records = [
        _record_with_totals(6, 6, 10, id="a"),
        _record_with_totals(6, 7, 9, id="b"),
        _record_with_totals(6, 8, 8, id="c"),
    ]
    points = spearman_by_sl(fold(records, WINDOW))
    assert len(points) == 1
    assert points[0].sl == 6
    assert points[0].rho == -1.0
    assert points[0].p_value == 0.0
    assert points[0].n == 3


def test_spearman_by_sl_skips_length_two_and_small_buckets(caplog):
    records = [rec((2, 0), id="p1"), rec((2, 0), id="p2"), rec((2, 0), id="p3")]
    records += [_record_with_totals(5, 5, 6, id="x"), _record_with_totals(5, 6, 5, id="y")]
    with caplog.at_level("WARNING"):
        assert spearman_by_sl(fold(records, WINDOW)) == []
    assert "only 2 sentences" in caplog.text


def test_spearman_by_sl_skips_constant_bucket(caplog):
    records = [_record_with_totals(4, 4, k + 3, id=str(k)) for k in range(4)]
    with caplog.at_level("WARNING"):
        assert spearman_by_sl(fold(records, WINDOW)) == []
    assert "skipped" in caplog.text


def test_split_gated_partitions_by_sample_count():
    points = [SeriesPoint(2, 1.0, 12), SeriesPoint(3, 1.1, 4), SeriesPoint(4, 1.2, 10)]
    kept, gated = split_gated(points, 10)
    assert [p.sl for p in kept] == [2, 4]
    assert [p.sl for p in gated] == [3]


# --- valency ---------------------------------------------------------------------------


def test_valency_counts_root_out_degree_mode(star5_record, chain5_record):
    cells, misses = valency_conditioned_counts(fold([star5_record, chain5_record], WINDOW))
    assert misses == 0
    assert cells == [
        ValencyCell(valency=1, sl=5, avg_dd1=4.0, avg_hd1=1.0, n=1),
        ValencyCell(valency=4, sl=5, avg_dd1=1.0, avg_hd1=4.0, n=1),
    ]


def test_valency_counts_cap_at_four():
    sent = make_sentence(star_heads(7))
    cells, _ = valency_conditioned_counts(fold([sent], WINDOW))
    assert cells[0].valency == 4  # out-degree 6, capped
    assert cells[0].avg_hd1 == 6.0


def test_valency_counts_lexicon_mode(data_dir):
    lexicon = ValencyLexicon.from_tsv((data_dir / "lexicon.tsv").read_bytes())
    known = make_sentence((2, 0), id="known", root_lemma="trade")
    unknown = make_sentence((2, 0), id="unknown", root_lemma="zzz")
    cells, misses = valency_conditioned_counts(fold([known, unknown], WINDOW, lexicon))
    assert misses == 1
    assert cells == [ValencyCell(valency=4, sl=2, avg_dd1=1.0, avg_hd1=1.0, n=1)]


def test_valency_counts_lexicon_mode_requires_lexicon(star5_record):
    with pytest.raises(EmptyLexicon):
        valency_conditioned_counts(fold([star5_record], WINDOW, ValencyLexicon(entries={})))


def test_the_valency_tally_holds_a_class_not_a_lemma():
    sentences = []
    for i in range(200):  # 200 distinct root lemmas, about 40 sentences of each length
        heads = random_tree(GeneratorConfig(n=2 + i % 5, seed=11), i).heads()
        sentences.append(rec(heads, id=f"s{i}", root_lemma=f"w{i}"))
    lexicon = ValencyLexicon({f"w{i}": 1 + i % 4 for i in range(0, 200, 2)})  # every other lemma
    # 4 classes, plus misses with the lexicon
    for stats, most in ((fold(sentences, WINDOW), 4), (fold(sentences, WINDOW, lexicon), 5)):
        for cell in stats.by_sl.values():
            assert len(cell.valency) <= most
            assert sum(n for _, _, n in cell.valency.values()) == cell.n
    _, misses = valency_conditioned_counts(fold(sentences, WINDOW, lexicon))
    assert misses == 100


def test_valency_cell_bounds_on_random_corpus():
    rng = random.Random(5)
    sentences = [random_tree(GeneratorConfig(n=rng.randint(2, 12), seed=6), i) for i in range(150)]
    cells, _ = valency_conditioned_counts(fold(sentences, WINDOW))
    for cell in cells:
        assert 1 <= cell.valency <= 4
        assert 0 <= cell.avg_dd1 <= cell.sl - 1
        assert 0 <= cell.avg_hd1 <= cell.sl - 1


def test_fit_valency_models_recovers_planted_rows():
    cells = []
    for sl in range(2, 21):
        cells.append(
            ValencyCell(
                valency=1,
                sl=sl,
                avg_dd1=0.6479 * sl - 0.8269,
                avg_hd1=0.9714 * math.log(sl) + 0.5578,
                n=10,
            )
        )
    fits = fit_valency_models(cells)
    assert [f.metric for f in fits] == ["dd1", "hd1"]
    linear = fits[0].result
    assert linear.model_form == "linear"
    assert linear.slope == pytest.approx(0.6479, abs=1e-9)
    assert linear.intercept == pytest.approx(-0.8269, abs=1e-9)
    assert linear.adj_r2 == pytest.approx(1.0, abs=1e-9)
    logfit = fits[1].result
    assert logfit.model_form == "log-linear"
    assert logfit.slope == pytest.approx(0.9714, abs=1e-9)
    assert logfit.intercept == pytest.approx(0.5578, abs=1e-9)
    assert logfit.adj_r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_valency_models_omits_small_classes(caplog):
    cells = [
        ValencyCell(valency=2, sl=3, avg_dd1=1.0, avg_hd1=1.0, n=5),
        ValencyCell(valency=2, sl=4, avg_dd1=1.5, avg_hd1=1.2, n=5),
    ]
    with caplog.at_level("WARNING"):
        assert fit_valency_models(cells) == []
    assert caplog.messages == ["valency class 2 has only 2 length points; dd1 and hd1 fits omitted"]


# --- cross-module identities -----------------------------------------------------------


def test_merging_conditionals_reproduces_pooled_distribution():
    rng = random.Random(77)
    records = fold(
        (random_tree(GeneratorConfig(n=rng.randint(2, 10), seed=21), i) for i in range(400)), (2, 10)
    )
    for metric in ("dd", "hd"):
        pooled = pooled_distribution(records, metric)
        lengths = sorted(records.by_sl)
        conditionals = conditional_distributions(records, lengths)[metric]
        merged: Counter = Counter()
        for dist in conditionals.values():
            merged.update(dist.counts)
        assert dict(merged) == dict(pooled.counts)


def test_hd1_count_equals_root_out_degree_corpus_wide(data_dir):
    sentences = list(iter_conllu((data_dir / "sample_ud.conllu").read_bytes(), errors="skip", rejections=[]))
    sentences += list(iter_canonical((data_dir / "sample_200.jsonl").read_bytes()))
    for sent in sentences:
        if len(sent) >= 2:
            record = metric_record(sent)
            assert record.hd_hist.get(1, 0) == record.root_out_degree
