"""Property tests: the fused validate-and-depth walk, the canonical round trip and writer, and the
streaming parsers, their shards and the one-pass CaboCha reader on arbitrary text."""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from depmetrics.errors import (
    CycleDetected,
    DepMetricsError,
    InvalidTree,
    MultipleRoots,
    NoRoot,
    SelfLoop,
)
from depmetrics.randtree import GeneratorConfig, random_tree
from depmetrics.treebank import (
    FORMATS,
    Rejection,
    Sentence,
    iter_cabocha,
    iter_canonical,
    iter_conllu,
    iter_parse,
    parse_cabocha,
    parse_canonical,
    parse_conllu,
    serialize_canonical,
    tree_depths,
    validate_tree,
)

from . import reference_treebank


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


def _outcome(check, heads):
    try:
        return "ok", check(heads, "s")
    except InvalidTree as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(head_vectors(), valid_head_vectors()))
def test_tree_depths_matches_ordered_checks_and_bfs(heads):
    expected_kind, expected = _outcome(ordered_checks_oracle, heads)
    kind, result = _outcome(tree_depths, heads)
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
    assert sentence == Sentence.from_heads(heads, id="s")  # depths take no part in equality


text_or_none = st.one_of(st.none(), st.text(max_size=4))


@settings(max_examples=300, deadline=None)
@given(valid_head_vectors(), st.data())
def test_canonical_round_trip_of_random_trees(heads, data):
    n = len(heads)
    forms = data.draw(st.one_of(st.none(), st.lists(text_or_none, min_size=n, max_size=n)))
    lemmas = data.draw(st.one_of(st.none(), st.lists(text_or_none, min_size=n, max_size=n)))
    sentence = Sentence.from_heads(heads, id=data.draw(st.text(max_size=6)), forms=forms, lemmas=lemmas)
    again = parse_canonical(serialize_canonical(sentence))[0]
    assert again.heads() == sentence.heads()
    assert again.nodes == sentence.nodes
    assert again.id == sentence.id


# Characters json escapes or leaves raw, and the ones a line reader could split on.
json_text = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029",
                         "\ud800", "\udfff", "\U0001f600", "é"]),
        st.characters(codec=None),
    ),
    max_size=8,
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(-3, 10 ** 6), max_size=8), json_text, st.data())
def test_canonical_writer_matches_the_json_dumps_reference(heads, sent_id, data):
    n = len(heads)
    columns = st.one_of(st.none(), st.lists(st.one_of(st.none(), json_text), min_size=n, max_size=n))
    sentence = Sentence.from_heads(heads, id=sent_id, forms=data.draw(columns), lemmas=data.draw(columns))
    assert serialize_canonical(sentence) == reference_treebank.serialize_canonical(sentence)


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
    (iter_conllu, parse_conllu, {}),
    (iter_conllu, parse_conllu, {"drop_punct": True}),
    (iter_cabocha, parse_cabocha, {}),
    (iter_canonical, parse_canonical, {}),
]


@settings(max_examples=500, deadline=None)
@given(texts)
def test_streaming_parsers_yield_only_validated_trees_or_record_rejections(text):
    for generator, parse, options in STREAMING:
        rejections = []
        sentences = list(generator(text, errors="skip", rejections=rejections, **options))
        for sentence in sentences:
            assert isinstance(sentence, Sentence)
            assert len(sentence.depths) == len(sentence.head_vector)
            assert sentence.depths == tree_depths(sentence.head_vector)
        assert all(isinstance(rejection, Rejection) for rejection in rejections)
        again = []
        assert parse(text, errors="skip", rejections=again, **options) == sentences
        assert again == rejections


def _with_depths(sentences):
    """Each sentence with its depths, which take no part in equality."""
    return [(sentence, sentence.depths) for sentence in sentences]


@settings(max_examples=300, deadline=None)
@given(texts)
def test_shards_in_order_give_the_serial_parse(text):
    for fmt in FORMATS:
        for drop_punct in (False, True):
            options = {"errors": "skip", "drop_punct": drop_punct, "source": "f"}
            serial_rejections = []
            serial = list(iter_parse(text, fmt, rejections=serial_rejections, **options))
            for parts in range(1, 5):
                sentences = []
                rejections = []
                for k in range(parts):
                    sentences += iter_parse(text, fmt, rejections=rejections, shard=(k, parts), **options)
                assert _with_depths(sentences) == _with_depths(serial)
                assert rejections == serial_rejections


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
cabocha_texts = st.one_of(
    texts,
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
@given(cabocha_texts)
def test_one_pass_cabocha_reader_matches_the_two_walk_reference(text):
    want_rejections = []
    want = list(reference_treebank.iter_cabocha(text, errors="skip", rejections=want_rejections))
    for parts in range(1, 5):
        got = []
        rejections = []
        for k in range(parts):
            got += iter_cabocha(text, errors="skip", rejections=rejections, shard=(k, parts))
        assert _with_depths(got) == _with_depths(want)
        assert rejections == want_rejections
    assert _raise_mode_outcome(iter_cabocha, text) == _raise_mode_outcome(
        reference_treebank.iter_cabocha, text
    )
