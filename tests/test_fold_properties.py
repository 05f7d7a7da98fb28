"""Property tests of the corpus fold against the per-record reference.

``reference_analysis`` keeps the analyses the fold replaced; every table
read from the fold, bounded to the length window and merged from shards
in any order, must equal its table, for random corpora and settings. The
CLI's report must also not depend on sentence order or on how the sentences
are split into files.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depmetrics.analysis import CorpusStats, length_histogram
from depmetrics.cli import main
from depmetrics.errors import DepMetricsError, TooShort
from depmetrics.metrics import metric_record
from depmetrics.randtree import GeneratorConfig, random_tree
from depmetrics.report import (
    ENTROPY_BASES,
    LOG_BASES,
    VALENCY_MODES,
    CorpusData,
    RunConfig,
    compute_analyses,
    load_lexicon,
)
from depmetrics.treebank import ValencyLexicon, serialize_canonical

from .conftest import fields, fold, make_sentence
from .reference_analysis import length_histogram as reference_length_histogram
from .reference_analysis import reference_analyses

ROOT_LEMMAS = ("give", "go", "put", "say", "see", None)


@st.composite
def corpora(draw, max_size=80):
    """Uniform random trees of 2-12 nodes whose roots carry a random lemma (or none)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    sentences = []
    for i in range(draw(st.integers(min_value=1, max_value=max_size))):
        heads = random_tree(GeneratorConfig(n=rng.randint(2, 12), seed=rng.getrandbits(32))).heads()
        sentences.append(make_sentence(heads, id=f"s{i}", root_lemma=rng.choice(ROOT_LEMMAS)))
    return sentences


@st.composite
def settings_and_lexicons(draw):
    sl_min = draw(st.integers(min_value=2, max_value=12))
    config = RunConfig(
        sl_min=sl_min,
        sl_max=draw(st.integers(min_value=sl_min, max_value=14)),
        dist_sls=tuple(draw(st.lists(st.integers(min_value=2, max_value=14), max_size=4))),
        min_bucket=draw(st.integers(min_value=3, max_value=8)),
        valency_mode=draw(st.sampled_from(VALENCY_MODES)),
        entropy_base=draw(st.sampled_from(sorted(ENTROPY_BASES))),
        log_base=draw(st.sampled_from(sorted(LOG_BASES))),
    )
    lexicon = draw(
        st.dictionaries(st.sampled_from(ROOT_LEMMAS[:-1]), st.integers(min_value=1, max_value=4), min_size=1)
    )
    return config, lexicon


def _outcome(compute):
    try:
        return fields(compute())
    except DepMetricsError as exc:
        return type(exc), str(exc)


def _merged_shards(sentences, window, lexicon, rng, parts) -> CorpusStats:
    """The fold of ``sentences`` cut into ``parts`` shards, each folded alone, merged in a random order."""
    cuts = sorted(rng.randint(0, len(sentences)) for _ in range(parts - 1))
    shards = [fold(sentences[a:b], window, lexicon) for a, b in zip([0, *cuts], [*cuts, len(sentences)])]
    rng.shuffle(shards)
    merged = CorpusStats(window, lexicon)
    for shard in shards:
        merged.merge(shard)
    return merged


@settings(max_examples=300, deadline=None)
@given(corpora(), settings_and_lexicons(), st.randoms(use_true_random=False), st.integers(1, 5))
def test_every_table_of_the_fold_equals_the_per_record_reference(sentences, setup, rng, parts):
    config, entries = setup
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_path = Path(tmp) / "lexicon.tsv"
        lexicon_path.write_text("".join(f"{k}\t{v}\n" for k, v in entries.items()), encoding="utf-8")
        if config.valency_mode == "lexicon":
            config.lexicon_path = str(lexicon_path)
        config.validate()
        stats = _merged_shards(sentences, (config.sl_min, config.sl_max), load_lexicon(config), rng, parts)
    got = _outcome(lambda: compute_analyses(config, CorpusData(inputs=[], fold=stats)))
    want = _outcome(lambda: reference_analyses(config, sentences, ValencyLexicon(entries)))
    assert got == want
    want_histogram = reference_length_histogram(metric_record(s) for s in sentences)
    assert list(length_histogram(stats).items()) == list(want_histogram.items())  # in length order too
    with pytest.raises(TooShort):
        stats.add(make_sentence((0,)))


def _report_bytes(corpus_files: list[list], workdir: Path, flags: list[str]) -> dict[str, bytes]:
    """Run ``report`` on the sentences written as canonical files; return the tables.

    ``meta`` names the files and their digests, so it is left out of report.json.
    """
    paths = []
    for i, sentences in enumerate(corpus_files):
        path = workdir / f"part{i}.jsonl"
        path.write_text("".join(serialize_canonical(s) + "\n" for s in sentences), encoding="utf-8")
        paths.append(str(path))
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", *paths, "--output-dir", str(out), *flags]) == 0
    tables = {p.name: p.read_bytes() for p in out.iterdir() if p.name not in ("meta.json", "report.json")}
    head, _, rest = (out / "report.json").read_text(encoding="utf-8").partition('\n  "meta": {')
    tables["report.json"] = (head + rest.partition("\n  },\n")[2]).encode()
    return tables


@settings(max_examples=40, deadline=None)
@given(corpora(max_size=40), st.randoms(use_true_random=False), st.integers(min_value=1, max_value=3))
def test_report_does_not_depend_on_sentence_order_or_file_split(sentences, rng, parts):
    shuffled = list(sentences)
    rng.shuffle(shuffled)
    cuts = sorted(rng.randint(0, len(shuffled)) for _ in range(parts - 1))
    split = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(shuffled)])]
    flags = ["--min-bucket", "3", "--sl-max", "12"]
    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as many:
        assert _report_bytes(split, Path(many), flags) == _report_bytes([sentences], Path(one), flags)


@settings(max_examples=200, deadline=None)
@given(corpora(), settings_and_lexicons(), st.randoms(use_true_random=False), st.integers(1, 5))
def test_merged_shard_folds_in_any_order_give_the_one_fold_tables(sentences, setup, rng, parts):
    config, entries = setup
    lexicon = ValencyLexicon(entries) if config.valency_mode == "lexicon" else None
    window = (config.sl_min, config.sl_max)
    merged = _merged_shards(sentences, window, lexicon, rng, parts)

    def tables(stats):
        return _outcome(lambda: compute_analyses(config, CorpusData(inputs=[], fold=stats)))

    assert tables(merged) == tables(fold(sentences, window, lexicon))
