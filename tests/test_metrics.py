import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from depmetrics.errors import TooShort
from depmetrics.metrics import dependency_terms, metric_record, node_depths
from depmetrics.randtree import GeneratorConfig, chain_heads, random_tree, star_heads
from . import reference_metrics
from .conftest import exact_means, make_sentence
from .reference_randtree import enumerate_trees


def brute_hd(heads, index):
    steps = 0
    v = index
    while heads[v - 1] != 0:
        v = heads[v - 1]
        steps += 1
    return steps


@pytest.fixture
def star5():
    return make_sentence(star_heads(5), id="star5")


@pytest.fixture
def chain5():
    return make_sentence(chain_heads(5), id="chain5")


def test_dd_demo7(demo7):
    dds, _, root = dependency_terms(demo7)
    assert root == 7
    # positions 1-6: node 2 links to the final root at distance 5, node 3 to its neighbour;
    # the root has no DD
    assert dds == [1, 5, 1, 1, 2, 1]
    assert dependency_terms(make_sentence((2, 0)))[0] == [1]


def test_hd_values(demo7):
    assert node_depths(demo7)[2] == 3
    assert node_depths(demo7)[6] == 0  # the root
    assert node_depths(make_sentence(chain_heads(4)))[0] == 3


def test_mdd_values(demo7, star5):
    assert metric_record(demo7).mdd == pytest.approx(11 / 6)
    assert metric_record(make_sentence((2, 0))).mdd == 1.0
    assert metric_record(star5).mdd == 2.5  # (4+3+2+1)/4


def test_mhd_values(demo7, star5, chain5):
    assert metric_record(demo7).mhd == pytest.approx(10 / 6)
    assert metric_record(star5).mhd == 1.0
    assert metric_record(chain5).mhd == 2.5  # (1+2+3+4)/4


def test_too_short_for_single_node():
    single = make_sentence((0,))
    with pytest.raises(TooShort):
        dependency_terms(single)
    with pytest.raises(TooShort):
        metric_record(single)


def test_metric_record_demo7(demo7):
    record = metric_record(demo7)
    assert record.sl == 7
    assert record.mdd == pytest.approx(1.8333, abs=5e-5)
    assert record.mhd == pytest.approx(1.6667, abs=5e-5)
    assert record.root_out_degree == 3
    assert record.dd_hist == {1: 4, 2: 1, 5: 1}
    assert record.hd_hist == {1: 3, 2: 2, 3: 1}
    assert exact_means(record) == (Fraction(11, 6), Fraction(10, 6))


def test_metric_record_star_and_pair(star5):
    record = metric_record(star5)
    assert record.dd_hist == {1: 1, 2: 1, 3: 1, 4: 1}
    assert record.hd_hist == {1: 4}
    assert record.root_out_degree == 4

    pair = metric_record(make_sentence((2, 0)))
    assert pair.dd_hist == {1: 1}
    assert pair.hd_hist == {1: 1}
    assert pair.root_out_degree == 1


def test_histograms_total_n_minus_1(demo7, star5, chain5):
    for sent in (demo7, star5, chain5):
        record = metric_record(sent)
        assert sum(record.dd_hist.values()) == record.sl - 1
        assert sum(record.hd_hist.values()) == record.sl - 1
        assert record.mdd == sum(v * c for v, c in record.dd_hist.items()) / (record.sl - 1)


def test_hd_recurrence_on_random_trees():
    for index in range(50):
        sent = random_tree(GeneratorConfig(n=9, seed=5), index)
        depths = node_depths(sent)
        for node in sent.nodes:
            if node.head != 0:
                assert depths[node.index - 1] == depths[node.head - 1] + 1


def test_mdd_one_iff_all_adjacent_and_mhd_one_iff_star():
    for sent in enumerate_trees(5):
        record = metric_record(sent)
        mdd, mhd = exact_means(record)
        all_adjacent = all(abs(n.head - n.index) == 1 for n in sent.nodes if n.head != 0)
        assert (mdd == 1) == all_adjacent
        assert (mhd == 1) == (record.root_out_degree == 4)


def test_mhd_bounded_by_half_n_with_equality_only_for_paths():
    # A rooted tree attains the depth-sum maximum exactly when no node has
    # two children, i.e. it is a path rooted at one of its endpoints.
    for n in (3, 4, 5):
        for sent in enumerate_trees(n):
            _, mhd = exact_means(metric_record(sent))
            assert mhd <= Fraction(n, 2)
            child_counts = Counter(node.head for node in sent.nodes if node.head != 0)
            is_path = all(count == 1 for count in child_counts.values())
            assert (mhd == Fraction(n, 2)) == is_path


def test_range_invariants_on_random_trees():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 20)
        sent = random_tree(GeneratorConfig(n=n, seed=31), rng.randint(0, 10_000))
        record = metric_record(sent)
        assert 1 <= record.mdd <= n - 1
        assert Fraction(1) <= exact_means(record)[1] <= Fraction(n, 2)


def test_against_brute_force_on_1000_random_trees():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 20)
        sent = random_tree(GeneratorConfig(n=n, seed=17), rng.randint(0, 10**6))
        heads = sent.heads()
        record = metric_record(sent)
        brute_dds = [abs(h - i) for i, h in enumerate(heads, 1) if h != 0]
        root = heads.index(0) + 1
        brute_hds = [brute_hd(heads, i) for i in range(1, n + 1) if i != root]
        assert record.dd_hist == dict(Counter(brute_dds))
        assert record.hd_hist == dict(Counter(brute_hds))
        assert record.mdd == sum(brute_dds) / (n - 1)
        assert record.mhd == sum(brute_hds) / (n - 1)


def test_to_json_dict_rounds_and_sorts(demo7):
    record = metric_record(demo7)
    assert record.json_line() == reference_metrics.json_line(record)
    payload = json.loads(record.json_line())
    assert payload == reference_metrics.json_dict(record)
    assert payload["mdd"] == 1.8333
    assert payload["mhd"] == 1.6667
    assert list(payload["dd_hist"]) == ["1", "2", "5"]
    assert payload["root_out_degree"] == 3
