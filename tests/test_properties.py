"""Property tests: the fused validate-and-depth walk, the two consumers of the per-sentence kernel,
the canonical and CoNLL-U round trips, the canonical and ``metrics`` line writers, the canonical
reader's two paths, and the streaming
parsers: on arbitrary text and bytes, in byte ranges, the one-pass CaboCha reader, the sentence
breaks that the text cut and the byte ranges find, and on documents that differ only in their
surface forms."""

from __future__ import annotations

import codecs
import io
import json
import random
import re
import sys
from collections import deque
from functools import partial
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depmetrics import treebank
from depmetrics.analysis import MAX_VALENCY_CLASS, CorpusStats
from depmetrics.cli import integer
from depmetrics.errors import (
    CycleDetected,
    DepMetricsError,
    InvalidEncoding,
    InvalidTree,
    MultipleRoots,
    NoRoot,
    SelfLoop,
)
from depmetrics.metrics import dependency_terms, metric_record
from depmetrics.randtree import GeneratorConfig, chain_heads, random_tree, star_heads
from depmetrics.treebank import (
    FORMATS,
    Rejection,
    Sentence,
    ValencyLexicon,
    iter_byte_range,
    iter_parse,
    serialize_canonical,
    validate_tree,
)

from . import reference_metrics, reference_treebank
from .conftest import fields, fold, rejecter


def ordered_checks_oracle(heads, id):
    """The tree checks one at a time, in the documented order; raises the first failure."""
    n = len(heads)
    if not n:
        raise InvalidTree(f"{id}: sentence has no nodes")
    roots = [i for i, h in enumerate(heads, 1) if h == 0]
    if not roots:
        raise NoRoot(f"{id}: no node has head 0")
    if len(roots) > 1:
        raise MultipleRoots(f"{id}: multiple roots at positions {roots}")
    for i, h in enumerate(heads, 1):
        if h == i:
            raise SelfLoop(f"{id}: node {i} heads itself")
        if h != 0 and not 1 <= h <= n:
            raise InvalidTree(f"{id}: node {i} head {h} out of range 1..{n}")
    # a cycle is the first node met twice on a head chain, starting from 1, 2, ...
    settled = set()
    for start in range(1, n + 1):
        chain = []
        v = start
        while v != 0 and v not in settled:
            if v in chain:
                raise CycleDetected(f"{id}: cycle through node {v}")
            chain.append(v)
            v = heads[v - 1]
        settled.update(chain)


def bfs_depths(heads):
    """Depths by breadth-first search down from the root."""
    children = {i: [] for i in range(len(heads) + 1)}
    for i, h in enumerate(heads, 1):
        children[h].append(i)
    depth = {}
    queue = deque((child, 0) for child in children[0])
    while queue:
        v, d = queue.popleft()
        depth[v] = d
        queue.extend((child, d + 1) for child in children[v])
    return tuple(depth[i] for i in range(1, len(heads) + 1))


@st.composite
def head_vectors(draw):
    """Head vectors of up to 12 nodes, mostly invalid: heads range over -1..n+1."""
    n = draw(st.integers(min_value=0, max_value=12))
    return tuple(draw(st.lists(st.integers(min_value=-1, max_value=n + 1), min_size=n, max_size=n)))


@st.composite
def valid_head_vectors(draw):
    """Uniform random trees of 1..12 nodes, which the walk must accept."""
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return random_tree(GeneratorConfig(n=n, seed=seed)).heads()


def tree_walk(heads, id=""):
    """The depths that ``validate_tree`` attaches to a bare head vector."""
    return validate_tree(Sentence(id, tuple(heads))).depths


def _outcome(check, heads):
    try:
        return "ok", check(heads, "s")
    except InvalidTree as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(head_vectors(), valid_head_vectors()))
def test_validate_tree_matches_ordered_checks_and_bfs(heads):
    expected_kind, expected = _outcome(ordered_checks_oracle, heads)
    kind, result = _outcome(tree_walk, heads)
    assert kind == expected_kind
    if kind == "ok":
        assert result == bfs_depths(heads)
    else:
        assert result == expected


@settings(max_examples=300, deadline=None)
@given(valid_head_vectors())
def test_validate_tree_attaches_the_walk_depths(heads):
    sentence = validate_tree(Sentence.from_heads(heads, id="s"))
    assert sentence.depths == bfs_depths(heads)
    assert fields(sentence) == fields(Sentence.from_heads(heads, id="s"))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32), st.booleans(), st.booleans())
def test_the_fold_and_the_metric_record_agree(n, seed, validated, with_lemmas):
    heads = random_tree(GeneratorConfig(n=n, seed=seed)).heads()
    lemmas = [f"w{i}" for i in range(1, n + 1)] if with_lemmas else None
    sentence = Sentence.from_heads(heads, id="s", root_lemma=lemmas and lemmas[heads.index(0)])
    if validated:
        sentence = validate_tree(sentence)
        assert dependency_terms(sentence)[1] is sentence.depths  # read, not copied or walked again
    record = metric_record(sentence)
    lexicon = ValencyLexicon({f"w{i}": 1 + i % 4 for i in range(1, n + 1, 2)}) if with_lemmas else None
    [(sl, cell)] = fold([sentence], (n, n), lexicon).by_sl.items()
    assert (sl, cell.n) == (record.sl, 1)
    assert dict(cell.value_counts("dd")) == record.dd_hist
    assert dict(cell.value_counts("hd")) == record.hd_hist
    assert cell.totals() == (record.dd_total, record.hd_total)
    if lexicon is None:
        valency = min(record.root_out_degree, MAX_VALENCY_CLASS)
    else:  # the root lemma's class, None for an even position
        valency = lexicon.get(lemmas[heads.index(0)])
    assert cell.valency == {valency: [record.dd_hist.get(1, 0), record.hd_hist.get(1, 0), 1]}


@settings(max_examples=500, deadline=None)
@given(head_vectors().filter(lambda heads: len(heads) >= 2))
def test_the_fold_and_the_metric_record_reject_a_bad_tree_alike(heads):
    sentence = Sentence.from_heads(heads, id="s")
    kind, reason = _outcome(tree_walk, heads)
    n = len(heads)  # one fold holds the tree's length in its window, the other only counts it
    for consume in (metric_record, CorpusStats((n, n)).add, CorpusStats((n + 1, n + 1)).add):
        if kind == "ok":
            consume(sentence)
            continue
        with pytest.raises(InvalidTree) as caught:
            consume(sentence)
        assert (type(caught.value), str(caught.value)) == (kind, reason)


@pytest.mark.parametrize(
    "heads, error", [((2, 1), NoRoot), ((0, 3, 2), CycleDetected), ((0, 0), MultipleRoots)]
)
def test_an_unvalidated_cyclic_or_rootless_tree_raises_the_same_error_from_both(heads, error):
    # the fold checks the tree whether its length is inside the window (2-20) or not (4-20)
    for consume in (metric_record, CorpusStats(window=(2, 20)).add, CorpusStats(window=(4, 20)).add):
        with pytest.raises(error):
            consume(Sentence.from_heads(heads, id="s"))


text_or_none = st.one_of(st.none(), st.text(max_size=4))


@settings(max_examples=300, deadline=None)
@given(valid_head_vectors(), text_or_none, st.data())
def test_canonical_round_trip_of_random_trees(heads, root_lemma, data):
    sentence = Sentence.from_heads(heads, id=data.draw(st.text(max_size=6)), root_lemma=root_lemma)
    again = list(iter_parse(serialize_canonical(sentence), "canonical"))[0]
    assert again.heads() == sentence.heads()
    assert again.nodes == sentence.nodes
    assert again.id == sentence.id
    assert again.root_lemma == root_lemma


def write_conllu(sentences):
    """CoNLL-U text: per sentence, given as (id, heads, lemmas), a sent_id comment and one 10-column row
    per node, then a blank line.

    A missing lemma is written as ``_``, which the reader takes for none; every FORM is ``_``.
    """
    blocks = []
    for sent_id, heads, lemmas in sentences:
        rows = [f"# sent_id = {sent_id}"]
        for index, (head, lemma) in enumerate(zip(heads, lemmas or (None,) * len(heads)), 1):
            columns = [str(index), "_", "_" if lemma is None else lemma]
            rows.append("\t".join([*columns, "X", "_", "_", str(head), "dep", "_", "_"]))
        blocks.append("\n".join(rows) + "\n")
    return "\n".join(blocks)


# A CoNLL-U field holds no tab or LF, and "_" stands for no value.
conllu_fields = st.text(
    st.characters(exclude_characters="\t\n", exclude_categories=("Cs",)), max_size=4
).filter(lambda field: field != "_")
conllu_ids = st.text(
    st.characters(exclude_characters="\n", exclude_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda sent_id: sent_id == sent_id.strip())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(valid_head_vectors(), conllu_ids), min_size=1, max_size=4), st.data())
def test_conllu_round_trip_of_random_trees(trees, data):
    sentences = []
    for heads, sent_id in trees:
        n = len(heads)
        columns = st.one_of(st.none(), st.lists(st.one_of(st.none(), conllu_fields), min_size=n, max_size=n))
        sentences.append((sent_id, heads, data.draw(columns)))
    again = list(iter_parse(write_conllu(sentences).encode("utf-8"), "conllu"))
    want = [(sent_id, heads, lemmas and lemmas[heads.index(0)]) for sent_id, heads, lemmas in sentences]
    assert [(s.id, s.heads(), s.root_lemma) for s in again] == want


# Characters json escapes or leaves raw, and the ones a line reader could split on.
json_chars = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029",
                     "\ud800", "\udfff", "\U0001f600", "é"]),
    st.characters(codec=None),
)
json_text = st.text(json_chars, max_size=8)


def _written(writer, sentence):
    try:
        return writer(sentence)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(-3, 10 ** 6), max_size=8), json_text, st.one_of(st.none(), json_text))
@example([1, 0, 0], "s", "x")  # the lemma goes on the first of two roots
@example([1, 2], "s", "x")  # no root to put a lemma on
@example(list(chain_heads(1024)), "s", None)  # indices up to 1,024, the first past the writer's pieces
@example(list(chain_heads(1025)), "s", "x")
@example([0] + [1] * 1024, "s", "x")  # indices past the pieces, every head inside them
@example([1023, 0], "s", None)  # the last head in the pieces
@example([1024, 0], "s", None)  # the first head past them
@example([-1, 0], "s", None)  # as a list index, -1 would take the last piece
@example([], "s", None)
def test_canonical_writer_matches_the_json_dumps_reference(heads, sent_id, root_lemma):
    sentence = Sentence.from_heads(heads, id=sent_id, root_lemma=root_lemma)
    want = _written(reference_treebank.serialize_canonical, sentence)
    assert _written(serialize_canonical, sentence) == want


# Ids and lemmas with the characters json escapes or leaves raw, but no lone surrogate, which
# the reader refuses since the reference reader was written.
canonical_texts = st.one_of(
    st.from_regex(r"[a-z0-9-]{0,8}", fullmatch=True),
    st.text(st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "é"]),
                      st.characters(exclude_categories=("Cs",))), max_size=8),
)
long_trees = st.tuples(st.integers(1024, 1100), st.integers(0, 2**32)).map(
    lambda drawn: random_tree(GeneratorConfig(n=drawn[0], seed=drawn[1])).heads())


@st.composite
def canonical_lines(draw):
    """Lines as serialize_canonical writes them: valid trees, cyclic, multi-root and out-of-range heads,
    trees of 1,024 nodes and more, with and without a root lemma."""
    heads = draw(st.one_of(
        valid_head_vectors(),
        head_vectors(),
        st.lists(st.integers(-3, 1100), max_size=8),
        long_trees,
        st.integers(1020, 1100).map(chain_heads),
    ))
    root_lemma = draw(st.one_of(st.none(), canonical_texts)) if 0 in heads else None
    return serialize_canonical(Sentence(draw(canonical_texts), tuple(heads), root_lemma))


@settings(max_examples=1000, deadline=None)
@given(canonical_lines(), st.one_of(st.none(), st.sampled_from(sorted(reference_treebank.CANONICAL_MUTATIONS))),
       st.integers(0, 10**6))
@example('{"id": "e", "nodes": []}', None, 0)
@example('{"id": "s", "nodes": [{"head": 1024, "index": 1}, {"head": 0, "index": 2}]}', None, 0)
@example('{"id": "s", "nodes": [{"head": 2, "index": 1}, {"head": 0, "index": 2}]}', "a minus sign", 1)
@example('{"id": "s", "nodes": [{"head": 2, "index": 1}, {"head": 0, "index": 2}]}', "a duplicate key", 1)
def test_a_line_reads_as_the_json_decoder_reads_it(line, mutation, k):
    if mutation is not None:
        line = reference_treebank.CANONICAL_MUTATIONS[mutation](line, k)
    want = reference_treebank.canonical_outcome(reference_treebank.canonical_sentence, line)
    assert reference_treebank.canonical_outcome(treebank._canonical_sentence, line) == want


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**32), st.text(json_chars))
def test_metric_json_line_matches_the_json_dumps_reference(n, seed, sent_id):
    heads = random_tree(GeneratorConfig(n=n, seed=seed)).heads()
    record = metric_record(validate_tree(Sentence.from_heads(heads, id=sent_id)))
    assert record.json_line() == reference_metrics.json_line(record)


@pytest.mark.parametrize(
    "heads",
    [
        chain_heads(1100),  # HD keys up to 1,099
        star_heads(1024),  # DD keys up to 1,023, the last one in the table
        star_heads(1100),  # DD keys up to 1,099
        random_tree(GeneratorConfig(n=1023, seed=7)).heads(),
        random_tree(GeneratorConfig(n=1100, seed=7)).heads(),
        random_tree(GeneratorConfig(n=3000, seed=7)).heads(),
    ],
    ids=["chain-1100", "star-1024", "star-1100", "random-1023", "random-1100", "random-3000"],
)
def test_metric_json_line_matches_the_reference_beyond_the_key_table(heads):
    record = metric_record(validate_tree(Sentence.from_heads(heads, id="long")))
    assert record.json_line() == reference_metrics.json_line(record)


# Lines that each format's parser branches on, mixed with arbitrary text below.
FRAGMENTS = [
    "1\tw\tw\tX\t_\t_\t0\t_\t_\t_",
    "2\tw\t_\tPUNCT\t_\t_\t1\t_\t_\t_",
    "3\tw\t_\tX\t_\t_\t2\t_\t_\t_",
    "1-2\tww\t_\t_\t_\t_\t_\t_\t_\t_",
    "1.1\tw\t_\t_\t_\t_\t_\t_\t_\t_",
    "# sent_id = a",
    "* 0 -1D 0/0 0.0",
    "* 0 1D",
    "* 1 -1D",
    "* 1 0D",
    "語\t名詞,一般,*,*,*,*,語",
    "EOS",
    '{"id": "a", "nodes": [{"index": 1, "head": 0}]}',
    '{"id": "b", "nodes": [{"index": 1, "head": 2}, {"index": 2, "head": 0, "lemma": "x"}]}',
    '{"id": "c", "nodes": [{"index": 1, "head": 1}]}',
    "",
    "#",
]
texts = st.one_of(
    st.text(),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=12)),
            st.sampled_from(["\n", "\r\n", "\r", "\u2028", "\t", ""]),
        ),
        max_size=25,
    ).map(lambda parts: "".join(line + end for line, end in parts)),
)
STREAMING = [
    ("conllu", {}),
    ("conllu", {"drop_punct": True}),
    ("cabocha", {}),
    ("canonical", {}),
]


@settings(max_examples=500, deadline=None)
@given(texts)
def test_streaming_parsers_yield_only_validated_trees_or_record_rejections(text):
    for fmt, options in STREAMING:
        rejections = []
        sentences = list(iter_parse(text, fmt, errors="skip", rejections=rejections, **options))
        for sentence in sentences:
            assert isinstance(sentence, Sentence)
            assert len(sentence.depths) == len(sentence.head_vector)
            assert sentence.depths == tree_walk(sentence.head_vector)
        assert all(isinstance(rejection, Rejection) for rejection in rejections)
        again = []
        again_sentences = list(iter_parse(text, fmt, errors="skip", rejections=again, **options))
        assert fields(again_sentences) == fields(sentences)
        assert again == rejections


def _with_depths(sentences):
    """Each sentence's fields with its depths."""
    return [(fields(sentence), sentence.depths) for sentence in sentences]


FORM = object()  # where a drawn document holds a surface form
# The surface text each format can hold there without changing what its line is: a CoNLL-U FORM
# holds no tab or LF; a CaboCha surface may be the whole line, so it is not blank and starts no
# chunk header or EOS; a canonical form is any string or null.
FORM_TEXT = {
    "conllu": st.text(st.characters(exclude_characters="\t\n", exclude_categories=("Cs",)), max_size=4),
    "cabocha": st.text(st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)), max_size=4)
    .filter(lambda surface: surface.strip() and not surface.startswith(("*", "EOS"))),
    "canonical": st.one_of(st.none(), st.text(st.characters(exclude_categories=("Cs",)), max_size=4)),
}
ENCODE_FORM = {"conllu": str, "cabocha": str, "canonical": lambda form: json.dumps(form, ensure_ascii=False)}


@st.composite
def form_documents(draw):
    """The same trees, good and bad, as a document in each format: its text as parts, FORM for each form."""
    documents = {fmt: [] for fmt in FORMATS}
    trees = draw(st.lists(st.one_of(head_vectors(), valid_head_vectors()), min_size=1, max_size=4))
    for number, heads in enumerate(trees):
        lemmas = draw(st.lists(st.sampled_from(["_", "a", "b"]), min_size=len(heads), max_size=len(heads)))
        upos = draw(st.lists(st.sampled_from(["X", "X", "PUNCT"]), min_size=len(heads), max_size=len(heads)))
        conllu = documents["conllu"]
        conllu += [f"# sent_id = s{number}\n"]
        if draw(st.booleans()):
            conllu += ["1-2\t", FORM, "\t_" * 8 + "\n"]  # a multiword-token range
        empty_node = draw(st.integers(min_value=0, max_value=len(heads)))  # after this token, if not 0
        for i, (head, lemma, tag) in enumerate(zip(heads, lemmas, upos), 1):
            conllu += [f"{i}\t", FORM, f"\t{lemma}\t{tag}\t_\t_\t{head}\tdep\t_\t_\n"]
            if i == empty_node:
                conllu += [f"{i}.1\t", FORM, f"\t_\t{tag}\t_\t_\t_\t_\t{i}:dep\t_\n"]
        conllu += [draw(st.sampled_from(["\n", "\n", " \n"]))]  # a blank line, or one that holds a space
        cabocha = documents["cabocha"]
        if not heads:
            cabocha += [FORM, "\tx\n"]  # a morpheme line before any chunk header
        for i, (head, lemma) in enumerate(zip(heads, lemmas)):
            # with the fields after the head, as CaboCha writes them, or without
            cabocha += [f"* {i} {head - 1 if head else -1}D{draw(st.sampled_from(['', ' 0/1 0.5']))}\n"]
            # fewer than seven features, no features, a base form, and base forms that give no lemma
            tails = ["\tx\n", "\n", f"\tx,*,*,*,*,*,{lemma}\n", "\tx,*,*,*,*,*,*\n", "\tx,*,*,*,*,*,\n"]
            for tail in draw(st.lists(st.sampled_from(tails), max_size=3)):
                cabocha += [FORM, tail]
        if number < len(trees) - 1 or draw(st.booleans()):  # the last sentence may miss its EOS
            cabocha += ["EOS\n"]
        nodes = []
        for i, (head, lemma) in enumerate(zip(heads, lemmas), 1):
            lemma_field = "" if lemma == "_" else f', "lemma": "{lemma}"'
            nodes += [", " * (i > 1), f'{{"index": {i}, "head": {head}{lemma_field}, "form": ', FORM, "}"]
        documents["canonical"] += [f'{{"id": "s{number}", "nodes": [', *nodes, "]}\n"]
    return documents


# CoNLL-U and CaboCha read in byte ranges: a read size that cuts sentences and one that holds each document whole
RANGE_READS = [(ranges, chunk) for ranges in (1, 3) for chunk in (64, 1 << 16)]


@settings(max_examples=300, deadline=None)
@given(form_documents(), st.data())
def test_surface_forms_change_no_sentence_and_no_rejection(documents, data):
    for fmt, parts in documents.items():
        count = sum(part is FORM for part in parts)
        texts = []
        for _ in range(2):
            forms = iter(data.draw(st.lists(FORM_TEXT[fmt], min_size=count, max_size=count)))
            texts.append("".join(ENCODE_FORM[fmt](next(forms)) if part is FORM else part for part in parts))
        for options in ({}, {"drop_punct": True}) if fmt == "conllu" else ({},):
            first, second = (_serial_outcome(text.encode("utf-8"), fmt, **options) for text in texts)
            assert first == second
            if fmt != "canonical":  # the block reader gives the reference's outcome whatever the surfaces
                for ranges, chunk in RANGE_READS:
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(treebank, "CHUNK_BYTES", chunk)
                        for text in texts:
                            assert _ranges_outcome(text.encode("utf-8"), fmt, ranges, **options) == first


@settings(max_examples=300, deadline=None)
@given(form_documents(), st.data())
def test_root_lemma_is_the_reference_lemma_of_the_position_whose_head_is_0(documents, data):
    for fmt, parts in documents.items():
        count = sum(part is FORM for part in parts)
        forms = iter(data.draw(st.lists(FORM_TEXT[fmt], min_size=count, max_size=count)))
        text = "".join(ENCODE_FORM[fmt](next(forms)) if part is FORM else part for part in parts)
        columns = reference_treebank.lemma_columns(text, fmt)
        for drop_punct in (False, True) if fmt == "conllu" else (False,):
            options = {"drop_punct": True} if drop_punct else {}
            encoded = text.encode("utf-8")
            readings = [_range_sentences(encoded, fmt, ranges, chunk, **options) for ranges, chunk in RANGE_READS]
            for sentence in chain.from_iterable(readings):
                heads, lemmas, upos = columns[sentence.id]
                kept = [not drop_punct or tag != "PUNCT" for tag in upos] if upos else [True] * len(heads)
                [root] = [i for i, head in enumerate(heads) if not head and kept[i]]
                assert sentence.root_lemma == lemmas[root]


def _range_sentences(data, fmt, parts, chunk, **options):
    """The sentences of ``data`` read as byte ranges 0..parts-1, ``chunk`` bytes at a time, in skip mode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treebank, "CHUNK_BYTES", chunk)
        handle = io.BytesIO(data)
        return [
            sentence
            for k in range(parts)
            for sentence in iter_byte_range(
                handle, fmt, k, parts, len(data), name="f", source="f", errors="skip", rejections=[], **options
            )
        ]


# Lines that are blank, EOS or a comment only once decoded, or that hold a BOM or a
# multibyte line break, for the byte-range reader's sentence breaks and counts.
RANGE_FRAGMENTS = ["\u3000", " \x85", "\x1c", "EOS\u2028", "EOS\u3000", "\ufeff", "\ufeff# c", "語\u2028"]
# Blocks of lines between sentence breaks, so that the ranges hold several sentences each.
range_documents = st.lists(
    st.tuples(
        st.lists(st.sampled_from(FRAGMENTS + RANGE_FRAGMENTS), min_size=1, max_size=4).map("\n".join),
        st.sampled_from(["\n", "\n\n", "\nEOS\n", "\nEOS\n\n", "\n \u3000\n", "\r\n\r\n", "\nEOS\r\n\x85\n"]),
    ),
    max_size=12,
).map(lambda parts: "".join(block + end for block, end in parts))
range_texts = st.one_of(
    texts,
    range_documents,
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(FRAGMENTS + RANGE_FRAGMENTS), st.text(max_size=6)),
            st.sampled_from(["\n", "\n", "\r\n", "\r"]),
        ),
        max_size=30,
    ).map(lambda parts: "".join(line + end for line, end in parts)),
)
# Encoded text, with or without a BOM, or bytes that need not be UTF-8.
range_bytes = st.one_of(
    st.tuples(st.sampled_from([b"", codecs.BOM_UTF8]), range_texts).map(
        lambda bom_text: bom_text[0] + bom_text[1].encode("utf-8")
    ),
    st.lists(st.one_of(st.sampled_from([b"\n", b"EOS\n", b"\xe3\x80\x80", b"\xff"]), st.binary(max_size=4)))
    .map(b"".join),
)
# chunk sizes that cut lines and characters, and one that holds every input whole
chunk_sizes = st.sampled_from([1, 2, 3, 5, 8, 1 << 20])


def _serial_outcome(data, fmt, **options):
    """The parse of the whole decoded text, split at each LF or CRLF, or the error the first byte that
    is not UTF-8 raises: by the reference readers of CoNLL-U and CaboCha, which drop the BOM themselves,
    and by the canonical line reader, which gets the lines, since a str would go through the BOM rule again."""
    skipped = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[skipped:].decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"f: byte {skipped + exc.start} is not UTF-8 ({exc.reason})"
    rejections = []
    if fmt in REFERENCES:
        sentences = list(REFERENCES[fmt](data, source="f", errors="skip", rejections=rejections, **options))
    else:
        lines = text.replace("\r\n", "\n").split("\n")
        if not lines[-1]:
            lines.pop()  # the text ended with a line break, or is empty
        sentences = list(treebank._canonical(lines, 1, source="f", reject=rejecter(rejections)))
    return _with_depths(sentences), rejections


REFERENCES = {"conllu": reference_treebank.iter_conllu, "cabocha": reference_treebank.iter_cabocha}


def _ranges_outcome(data, fmt, parts, **options):
    """Byte ranges 0..parts-1 parsed in order; the first error raised stands for them all."""
    handle = io.BytesIO(data)
    sentences = []
    rejections = []
    try:
        for k in range(parts):
            sentences += iter_byte_range(
                handle,
                fmt,
                k,
                parts,
                len(data),
                name="f",
                source="f",
                errors="skip",
                rejections=rejections,
                **options,
            )
    except InvalidEncoding as exc:
        return str(exc)
    return _with_depths(sentences), rejections


@settings(max_examples=300, deadline=None)
@given(range_bytes, chunk_sizes)
@example(codecs.BOM_UTF8 * 2 + b"\n", 1)  # a BOM after the file's BOM is text, not a second BOM
def test_shards_in_order_give_the_serial_parse(data, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treebank, "CHUNK_BYTES", chunk)
        for fmt in FORMATS:
            for options in ({}, {"drop_punct": True}) if fmt == "conllu" else ({},):
                serial = _serial_outcome(data, fmt, **options)
                for parts in range(1, 5):
                    assert _ranges_outcome(data, fmt, parts, **options) == serial


def test_blank_line_bytes_are_the_characters_str_isspace_accepts():
    space = re.compile(treebank._SPACE)
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        blank = char.isspace() and char != "\n"
        # the text cut's [^\S\n], after an LF or after EOS, ends at the character only if it is blank
        for before, pattern in (("\n", treebank._BREAK["conllu"]), ("\nEOS", treebank._BREAK["cabocha"])):
            match = pattern.match(before + char + "\n")
            assert (match is not None and match.end() == len(before) + 1) == blank, hex(code)
        if not 0xD800 <= code <= 0xDFFF:  # surrogates have no UTF-8 form
            assert bool(space.fullmatch(char.encode("utf-8"))) == blank, hex(code)


def _break_lines(text, lf, pattern, search_from):
    """The numbers of the lines that ``pattern`` finds as sentence breaks in ``text``, whose line 1
    follows its first LF, ``lf``; each search starts at ``search_from(match)``."""
    lines = []
    match = pattern.search(text)
    while match:
        lines.append(text.count(lf, 0, match.start() + 1))
        match = pattern.search(text, search_from(match))
    return lines


def _holds_a_sentence(block, fmt):
    """Whether a block of the text cut holds a sentence: a line that is not blank, and in CoNLL-U no comment."""
    rows = [row for row in block.split("\n") if row.strip()]
    return any(not row.startswith("#") for row in rows) if fmt == "conllu" else bool(rows)


@settings(max_examples=300, deadline=None)
@given(range_texts)
@example("EOS\nEOS\n* 0 -1D\n")  # two EOS lines in a row, and a break on the first line
@example(" \n\n1\t_\n\n")  # blank lines in a row, the first holding a space
def test_the_text_cut_and_the_byte_patterns_find_the_same_sentence_breaks(text):
    data = text.encode("utf-8", "surrogatepass")
    text = text.replace("\r\n", "\n")  # as it is decoded
    if not text.endswith("\n"):  # and as the last piece ends
        text, data = text + "\n", data + b"\n"
    for fmt in ("conllu", "cabocha"):
        breaks = treebank._BREAK[fmt]
        before, starts = treebank._SENTENCE_START[fmt]
        want = _break_lines("\n" + text, "\n", breaks, lambda match: match.end())
        found = _break_lines(b"\n" + data, b"\n", treebank._SENTENCE_BREAK[fmt], lambda match: match.end() - 1)
        assert found == want
        sentences = sum(_holds_a_sentence(block, fmt) for block in breaks.split("\n" + text))
        assert len(starts.findall(before + data)) == sentences


# Lines the CaboCha reader branches on, for the comparison with the two-walk reference.
CABOCHA_FRAGMENTS = [
    "* 0 -1D 0/0 0.0",
    "* 0 1D",
    "* 1 -1D",
    "* 1 0D",
    "* 2 1D 0/1",
    "* 1 2D",
    "* 0 x",
    "* x 0D",
    "* +0 -1D",
    "* 1 +0D",
    "* 1 -2D",
    "* \uff10 -1D",
    "* 0",
    "*  0  -1D",
    "*",
    "語\t名詞,一般,*,*,*,*,語",
    "が\t助詞,格助詞,*,*,*,*,が,が,が",
    "w\tx,*,*,*,*,*,*",
    "w\t",
    "w",
    "\tp,*,*,*,*,*,",
    "EOS",
    "EOS ",
    "EOSx",
    " ",
    "",
]


FULLWIDTH_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def _chunk_number(value):
    """A chunk number as CaboCha writes it or, more often, in a form int() reads but the reader refuses."""
    text = str(value)
    return st.sampled_from([text, text, f"+{text}", f"0_{text}", text.translate(FULLWIDTH_DIGITS)])


@st.composite
def malformed_number_documents(draw):
    """Sentences whose chunks each head the next, with one morpheme each and numbers of :func:`_chunk_number`.

    Only the spelling of a number can make such a sentence bad, so a reader
    that read ``* +0 -1D`` or ``* 0 0_1D`` as numbers would accept it.
    """
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        size = draw(st.integers(min_value=1, max_value=4))
        for index in range(size):
            head = draw(_chunk_number(index + 1)) if index + 1 < size else "-1"
            lines += [f"* {draw(_chunk_number(index))} {head}D", f"w{index}\tx,*,*,*,*,*,l{index}"]
        lines.append("EOS")
    return "".join(line + "\n" for line in lines)


cabocha_texts = st.one_of(
    texts,
    range_documents,
    malformed_number_documents(),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(CABOCHA_FRAGMENTS), st.text(max_size=6)),
            st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
        ),
        max_size=40,
    ).map(lambda parts: "".join(line + end for line, end in parts)),
)


def _raise_mode_outcome(generator, text):
    """The sentences yielded before the first error, and that error's class and message."""
    sentences = []
    try:
        for sentence in generator(text, source="c"):
            sentences.append(sentence)
    except DepMetricsError as exc:
        return _with_depths(sentences), type(exc), str(exc)
    return _with_depths(sentences), None, None


@settings(max_examples=1000, deadline=None)
@given(cabocha_texts, st.booleans(), chunk_sizes)
@example("\ufeff\n", True, 1)  # a BOM after the file's BOM is text, not a second BOM
def test_one_pass_cabocha_reader_matches_the_two_walk_reference(text, bom, chunk):
    data = (codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8")
    want_rejections = []
    want = list(
        reference_treebank.iter_cabocha(data, source="f", errors="skip", rejections=want_rejections)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treebank, "CHUNK_BYTES", chunk)
        for parts in range(1, 5):
            assert _ranges_outcome(data, "cabocha", parts) == (_with_depths(want), want_rejections)
    assert _raise_mode_outcome(partial(iter_parse, fmt="cabocha"), text) == _raise_mode_outcome(
        reference_treebank.iter_cabocha, text
    )


PLAIN, ODD = "plain", "odd"  # the surfaces of sentences the fast path reads, and of those it hands on


def _bench_shaped_sentence(rng, mark, heads=None):
    """The lines of a sentence as the benchmark writes it, 1-3 morphemes a chunk, each surface starting with ``mark``.

    The root chunk's first morpheme now and then has no base form, so that
    its lemma is the second one's or none.
    """
    if heads is None:
        heads = list(random_tree(GeneratorConfig(n=rng.randint(1, 16), seed=rng.randrange(2**32))).heads())
        if rng.random() < 0.15:  # a head vector that is no tree
            heads[rng.randrange(len(heads))] = rng.randrange(len(heads) + 1)
    lines = []
    for i, head in enumerate(heads):
        morphemes = rng.randint(1, 3)
        lines.append(f"* {i} {head - 1 if head else -1}D 0/{morphemes - 1} {rng.random() * 3:.6f}")
        first = rng.choice([f"l{i}", f"l{i}", "*", ""]) if not head else f"l{i}"
        lines.append(f"{mark}{i}\t名詞,一般,*,*,*,*,{first},{first},{first}")
        for _ in range(morphemes - 1):
            surface = f"{mark}{rng.choice('がをにはで')}"
            lines.append(f"{surface}\t助詞,格助詞,*,*,*,*,{surface},{surface},{surface}")
    return lines


def _edited_sentence(rng, mark, header, edit):
    """A sentence, with one of its chunk headers (or morpheme lines, if not ``header``) changed by ``edit``."""
    lines = _bench_shaped_sentence(rng, mark, [2, 0, 2])
    at = rng.choice([i for i, line in enumerate(lines) if line.startswith("* ") == header])
    lines[at] = edit(lines[at])
    return lines + ["EOS"]


def _two_field_headers(lines):
    """The lines with every chunk header cut to its index and head: ``* 0 -1D``."""
    return [" ".join(line.split(" ")[:3]) if line.startswith("* ") else line for line in lines]


def _planted_cabocha(seed):
    """Bench-shaped plain sentences, in their text, with every form the fast path reads past or hands on planted among them."""
    rng = random.Random(seed)
    header, morpheme = True, False
    plain = [  # sentences whose only odd feature the fast path reads itself
        lambda: _bench_shaped_sentence(rng, PLAIN) + ["EOS "] + _bench_shaped_sentence(rng, PLAIN) + ["EOS"],
        lambda: _bench_shaped_sentence(rng, PLAIN) + ["EOS\u3000"] + _bench_shaped_sentence(rng, PLAIN) + ["EOS"],
        lambda: ["EOS"] + _bench_shaped_sentence(rng, PLAIN) + ["EOS"],  # two EOS lines in a row
        lambda: _bench_shaped_sentence(rng, PLAIN) + ["EOS\t", "", "EOS"],  # an EOS with a tab, a blank line, an EOS
        # blank lines after an EOS, one of them holding whitespace
        lambda: [""] * rng.randint(0, 2) + [" \u3000"] + _bench_shaped_sentence(rng, PLAIN) + ["EOS"],
        lambda: [""] * rng.randint(1, 3) + _bench_shaped_sentence(rng, PLAIN) + ["EOS"],
        lambda: _edited_sentence(rng, PLAIN, morpheme, lambda line: "EOS" + line),  # a morpheme line, not EOS
        lambda: _edited_sentence(rng, PLAIN, morpheme, lambda line: "EOS\r" + line),
    ]
    odd = [
        lambda: _edited_sentence(rng, ODD, header, lambda line: re.sub(" (\\S+D) ", "\t\\1 ", line, count=1)),
        lambda: _edited_sentence(rng, ODD, header, lambda line: re.sub(" (\\S+D) ", "  \\1 ", line, count=1)),
        lambda: _two_field_headers(_bench_shaped_sentence(rng, ODD)) + ["EOS"],
        # one header of two fields among headers of four: * 0 -1D
        lambda: _edited_sentence(rng, ODD, header, lambda line: line.rsplit(" ", 2)[0]),
        lambda: _edited_sentence(rng, ODD, header, lambda line: re.sub("^\\* \\d+", "* 1024", line)),
        lambda: _edited_sentence(rng, ODD, header, lambda line: re.sub(" \\S+D ", " 1024D ", line, count=1)),
        lambda: [f"{ODD}\tx"] + _bench_shaped_sentence(rng, ODD) + ["EOS"],  # a morpheme line before any header
        # a tab, not a space, after the first header's *: a morpheme line before any header
        lambda: ["*\t" + line[2:] if not i else line for i, line in enumerate(_bench_shaped_sentence(rng, ODD))]
        + ["EOS"],
        # a blank line, then a first line that starts with a space: a morpheme line before any header
        lambda: ["", " " + _bench_shaped_sentence(rng, ODD)[0]] + _bench_shaped_sentence(rng, ODD)[1:] + ["EOS"],
    ]
    anomalies = plain + odd
    rng.shuffle(anomalies)
    lines = []
    for anomaly in anomalies:
        for _ in range(rng.randint(0, 4)):
            lines += _bench_shaped_sentence(rng, PLAIN) + ["EOS"]
        lines += anomaly()
    plain = _bench_shaped_sentence(rng, PLAIN, [0, 1, 1])
    plain[1] = "*" + plain[1]  # the root chunk's first morpheme line starts with *
    plain[-1] = plain[-1].replace(PLAIN, f"{PLAIN}\r", 1)  # a lone CR
    text = "\n".join(lines + plain + ["EOS"]) + "\n"
    text += "\r\n".join(_bench_shaped_sentence(rng, PLAIN) + ["EOS", ""])  # CRLF
    text += "\n".join(_bench_shaped_sentence(rng, PLAIN) + ["EOS"]) + "\n"
    return text + "\n".join(_bench_shaped_sentence(rng, ODD)) + "\n"  # with no EOS


def _ranges_raising(text, source, parts):
    """The sentences of byte ranges 0..parts-1 of ``text`` read as CaboCha in raise mode, in order."""
    data = text.encode("utf-8")
    handle = io.BytesIO(data)
    for k in range(parts):
        yield from iter_byte_range(handle, "cabocha", k, parts, len(data), name=source, source=source)


@pytest.mark.parametrize("seed", range(4))
def test_the_block_reader_gives_the_reference_outcome_and_walks_only_odd_sentences(seed, monkeypatch):
    text = _planted_cabocha(seed)
    data = text.encode("utf-8")
    want = _serial_outcome(data, "cabocha")
    want_raised = _raise_mode_outcome(reference_treebank.iter_cabocha, text)
    assert len(want[0]) > 20 and want[1]  # sentences taken, and sentences rejected
    walked = []  # the lines that the block reader's line branch walks
    line_branch = treebank._cabocha_lines

    def recorded(block, line, held):
        walked.extend(block.split("\n"))
        return line_branch(block, line, held)

    monkeypatch.setattr(treebank, "_cabocha_lines", recorded)
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(treebank, "CHUNK_BYTES", chunk)
        for parts in range(1, 5):
            walked.clear()
            assert _ranges_outcome(data, "cabocha", parts) == want
            if chunk == 1 << 16:
                assert any(ODD in line for line in walked)
                assert not any(PLAIN in line for line in walked)
            assert _raise_mode_outcome(partial(_ranges_raising, parts=parts), text) == want_raised


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# Numbers at the edges of the readers' decimal lookup table, which holds "0" to "1023".
TABLE_EDGES = [0, 1, 1023, 1024]


def _decimal_text(value):
    """A number as a treebank writes it, with leading zeros, or in a form int() reads but the readers refuse."""
    text = str(value)
    return st.sampled_from(
        [text] * 3 + ["0" + text, "00" + text]
        + [f"+{text}", text.translate(FULLWIDTH_DIGITS), text.translate(ARABIC_INDIC_DIGITS)]
    )


@st.composite
def decimal_field_documents(draw):
    """A CoNLL-U and a CaboCha text of chains whose numbers are drawn by :func:`_decimal_text`.

    Each ID, HEAD and chunk number is now and then a value at an edge of the
    table instead, and a chunk's head field now and then ends in 'd'.
    """
    conllu, cabocha = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        size = draw(st.integers(min_value=1, max_value=4))
        for index in range(1, size + 1):
            raw_id = draw(_decimal_text(draw(st.sampled_from([index] * 6 + TABLE_EDGES))))
            head = draw(st.sampled_from([index + 1 if index < size else 0] * 6 + TABLE_EDGES))
            conllu.append(f"{raw_id}\tw\tl{index}\tX\t_\t_\t{draw(_decimal_text(head))}\t_\t_\t_")
            chunk = draw(_decimal_text(draw(st.sampled_from([index - 1] * 6 + TABLE_EDGES))))
            chunk_head = draw(st.sampled_from([index if index < size else -1] * 6 + TABLE_EDGES))
            suffix = draw(st.sampled_from("DDDDd"))
            cabocha += [f"* {chunk} {draw(_decimal_text(chunk_head))}{suffix}", f"w\tx,*,*,*,*,*,l{index}"]
        conllu.append("")
        cabocha.append("EOS")
    return "".join(line + "\n" for line in conllu), "".join(line + "\n" for line in cabocha)


@settings(max_examples=500, deadline=None)
@given(decimal_field_documents())
@example(("01\tw\t_\t_\t_\t_\t0\t_\t_\t_\n\n", "* 00 -1D\nw\tx\nEOS\n"))
@example(("1\tw\t_\t_\t_\t_\t1024\t_\t_\t_\n\n", "* 0 -01D\nw\tx\nEOS\n* 0 -1d\nw\tx\nEOS\n"))
def test_decimal_fields_are_read_as_the_reference_reads_them(documents):
    conllu, cabocha = documents
    for text, reader, reference in (
        (conllu, partial(iter_parse, fmt="conllu"), reference_treebank.iter_conllu),
        (cabocha, partial(iter_parse, fmt="cabocha"), reference_treebank.iter_cabocha),
    ):
        got, want = [], []
        sentences = _with_depths(reader(text, source="f", errors="skip", rejections=got))
        assert sentences == _with_depths(reference(text, source="f", errors="skip", rejections=want))
        assert got == want
        assert _raise_mode_outcome(reader, text) == _raise_mode_outcome(reference, text)


def _read_or_refuse(read, text):
    """``read(text)``, or ValueError when it raises one."""
    try:
        return read(text)
    except ValueError:
        return ValueError


def _ascii_digits_by_regex(text):
    if re.fullmatch("[0-9]+", text) is None:
        raise ValueError(text)
    return int(text)  # past its digit limit also a ValueError


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(),
    st.text(st.sampled_from("0123456789\u0661\uff11+-_ \t")),
    st.integers(min_value=0).map(str),
    st.integers(min_value=4290, max_value=5000).map("9".__mul__),
))
@example("1" * 5000)
@example("\u0661")
@example("\uff11")
@example("-0")
@example("")
def test_every_number_the_tool_reads_is_a_run_of_ascii_digits(text):
    want = _read_or_refuse(_ascii_digits_by_regex, text)
    assert _read_or_refuse(treebank._ascii_int, text) == want
    assert _read_or_refuse(integer, "-" + text) == (want if want is ValueError else -want)
    if not text.startswith("-"):
        assert _read_or_refuse(integer, text) == want
