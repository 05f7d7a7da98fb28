import codecs
import io
import itertools
import re

import pytest

from depmetrics.errors import (
    CycleDetected,
    InvalidEncoding,
    InvalidTree,
    MalformedChunkHeader,
    MalformedLine,
    MissingEOS,
    MultipleRoots,
    NoRoot,
    SelfLoop,
)
from depmetrics.metrics import metric_record
from depmetrics.treebank import (
    FORMATS,
    Node,
    Sentence,
    ValencyLexicon,
    iter_cabocha,
    iter_byte_range,
    iter_canonical,
    iter_conllu,
    iter_parse,
    parse,
    serialize_canonical,
    validate_tree,
)

from .conftest import DEMO7_HEADS, fields


def conllu_line(i, head, lemma="_", upos="X"):
    return f"{i}\tw\t{lemma}\t{upos}\t_\t_\t{head}\t_\t_\t_"


def conllu_block(heads, **kw):
    return "\n".join(conllu_line(i, h, **kw) for i, h in enumerate(heads, 1)) + "\n"


# --- CoNLL-U ---------------------------------------------------------------


def test_parse_conllu_minimal_two_tokens():
    text = conllu_line(1, 2, lemma="the") + "\n" + conllu_line(2, 0, lemma="cat") + "\n"
    sentences = list(iter_conllu(text))
    assert len(sentences) == 1
    sent = sentences[0]
    assert len(sent) == 2
    assert sent.heads() == (2, 0)
    assert sent.root_lemma == "cat"
    assert sent.heads().index(0) + 1 == 2


def test_parse_conllu_empty_input():
    assert list(iter_conllu("")) == []
    assert list(iter_conllu(b"\n\n")) == []


def test_parse_conllu_demo7_mdd():
    sentences = list(iter_conllu(conllu_block(DEMO7_HEADS)))
    assert len(sentences) == 1
    assert metric_record(sentences[0]).mdd == pytest.approx(1.8333, abs=5e-5)


def test_parse_conllu_uses_sent_id_comment():
    text = "# sent_id = xyz\n" + conllu_block((2, 0))
    assert list(iter_conllu(text))[0].id == "xyz"


def test_parse_conllu_matches_the_sent_id_key_exactly():
    block = conllu_block((2, 0))
    assert list(iter_conllu("# sent_id = real\n# sent_id_orig = other\n" + block))[0].id == "real"
    assert list(iter_conllu("# sent_idx = 7\n" + block, source="f"))[0].id == "f#1"
    assert list(iter_conllu("#sent_id=tight\n" + block))[0].id == "tight"
    assert list(iter_conllu("# sent_id =\n" + block, source="f"))[0].id == "f#1"  # no value


def test_parse_conllu_skips_ranges_and_empty_nodes(data_dir):
    sentences = list(iter_conllu((data_dir / "sample_ud.conllu").read_bytes(), source="sample_ud.conllu"))
    by_id = {s.id: s for s in sentences}
    ranged = by_id["ranges6"]
    assert len(ranged) == 6
    assert ranged.heads() == (3, 3, 6, 6, 6, 0)
    assert ranged.root_lemma == "eat"  # the 1-2 and 5.1 lines are not nodes


def test_parse_conllu_rejects_id_gap():
    text = conllu_line(1, 3) + "\n" + conllu_line(3, 0) + "\n"
    with pytest.raises(InvalidTree):
        list(iter_conllu(text))
    rejections = []
    assert list(iter_conllu(text, errors="skip", rejections=rejections)) == []
    assert len(rejections) == 1
    assert "consecutive" in rejections[0].reason


def test_parse_conllu_malformed_lines():
    with pytest.raises(MalformedLine):
        list(iter_conllu("1\tonly\tthree\n"))
    with pytest.raises(MalformedLine):
        list(iter_conllu(conllu_line("x", 0)))
    with pytest.raises(MalformedLine):
        list(iter_conllu(conllu_line(1, "zero")))


def test_parse_conllu_skip_mode_keeps_good_sentences(data_dir):
    rejections = []
    sentences = list(
        iter_conllu((data_dir / "mixed.conllu").read_bytes(), errors="skip", rejections=rejections)
    )
    assert [s.id for s in sentences] == ["good1", "good2"]
    assert len(rejections) == 2
    assert len(sentences) + len(rejections) == 4


def test_parse_conllu_underscore_fields_become_none():
    sent = list(iter_conllu(conllu_line(1, 0, lemma="_") + "\n"))[0]
    assert sent.root_lemma is None


# Integer fields that are not a run of ASCII digits, though int() reads all but the empty one,
# and a run of digits past int()'s digit limit.
BAD_NUMBERS = ["+1", " 1", "1 ", "\uff11", "\u0661", "1_0", "-1", "", "1" * 5000]


@pytest.mark.parametrize(
    "field,raw",
    # an ID with a hyphen is a multiword-token range, which is skipped
    [("ID", raw) for raw in BAD_NUMBERS if "-" not in raw] + [("HEAD", raw) for raw in BAD_NUMBERS],
    ids=lambda value: ascii(value)[:12],
)
def test_conllu_id_and_head_take_ascii_digits_only(field, raw):
    first = conllu_line(raw, 2) if field == "ID" else conllu_line(1, raw)
    text = first + "\n" + conllu_line(2, 0) + "\n"
    reason = f"line 1: non-integer {field} {raw!r}"
    with pytest.raises(MalformedLine, match=f"^{re.escape(reason)}$"):
        list(iter_conllu(text))
    rejections = []
    assert list(iter_conllu(text, errors="skip", rejections=rejections)) == []
    assert [rejection.reason for rejection in rejections] == [reason]


@pytest.mark.parametrize("raw", ["0", "01", "1023", "1024"])
def test_conllu_id_and_head_at_the_edges_of_the_decimal_table(raw):
    one_token = conllu_line(raw, 0) + "\n"
    two_tokens = conllu_line(1, 0) + "\n" + conllu_line(2, raw) + "\n"
    if raw == "01":  # a leading zero misses the table and is read as int() reads it
        assert [s.heads() for s in iter_conllu(one_token)] == [(0,)]
        assert [s.heads() for s in iter_conllu(two_tokens)] == [(0, 1)]
        return
    with pytest.raises(InvalidTree, match="^<conllu>#1: token IDs are not consecutive from 1$"):
        list(iter_conllu(one_token))
    if raw == "0":
        with pytest.raises(MultipleRoots):
            list(iter_conllu(two_tokens))
    else:
        with pytest.raises(InvalidTree, match=f"^<conllu>#1: node 2 head {raw} out of range 1\\.\\.2$"):
            list(iter_conllu(two_tokens))


def test_conllu_sentence_past_the_decimal_table():
    n = 1100
    heads = tuple(range(2, n + 1)) + (0,)
    raw_ids = [str(i) for i in range(1, n + 1)]
    raw_ids[1049] = "01050"  # a leading zero past the table too
    text = "".join(conllu_line(raw_id, head) + "\n" for raw_id, head in zip(raw_ids, heads))
    [sentence] = iter_conllu(text)
    assert sentence.heads() == heads
    assert sentence.depths == tuple(range(n - 1, -1, -1))
    with pytest.raises(InvalidTree, match="^<conllu>#1: node 1 head 1101 out of range 1\\.\\.1100$"):
        list(iter_conllu(text.replace("\t2\t", "\t1101\t", 1)))


def test_drop_punct_removes_leaf_and_renumbers(data_dir):
    text = (data_dir / "sample_ud.conllu").read_bytes()
    sentences = list(iter_conllu(text, drop_punct=True, errors="skip", rejections=[]))
    by_id = {s.id: s for s in sentences}
    trimmed = by_id["punct4"]
    assert len(trimmed) == 3
    assert trimmed.heads() == (2, 0, 2)
    assert trimmed.root_lemma == "run"


def test_drop_punct_rejects_punct_with_dependents(data_dir):
    rejections = []
    text = (data_dir / "sample_ud.conllu").read_bytes()
    sentences = list(iter_conllu(text, drop_punct=True, errors="skip", rejections=rejections))
    assert "punctdep5" not in {s.id for s in sentences}
    assert any("punctuation" in r.reason for r in rejections)


def test_conllu_root_lemma_is_the_lemma_of_the_kept_line_whose_head_is_0():
    dot_first = conllu_line(1, 0, lemma="dot", upos="PUNCT") + "\n" + conllu_line(2, 0, lemma="go") + "\n"
    go_first = conllu_line(1, 0, lemma="go") + "\n" + conllu_line(2, 0, lemma="dot", upos="PUNCT") + "\n"
    for text in (dot_first, go_first):
        with pytest.raises(MultipleRoots):
            list(iter_conllu(text))
        [sentence] = iter_conllu(text, drop_punct=True)
        assert (sentence.heads(), sentence.root_lemma) == ((0,), "go")
    text = conllu_line(1, 2, lemma="bird") + "\n" + conllu_line(2, 0, lemma="_") + "\n"
    assert [s.root_lemma for s in iter_conllu(text)] == [None]  # another line's lemma is not the root's


def test_drop_punct_keeps_out_of_range_head_for_validation():
    text = conllu_line(1, 3) + "\n" + conllu_line(2, 3, upos="PUNCT") + "\n"
    text += conllu_line(3, 0) + "\n" + conllu_line(4, 9) + "\n"
    with pytest.raises(InvalidTree, match=r"node 3 head 9 out of range 1\.\.3$"):
        list(iter_conllu(text, drop_punct=True))


# --- CaboCha ----------------------------------------------------------------


def test_parse_cabocha_single_chunk():
    text = "* 0 -1D 0/0 0.0\nhai\tint,*,*,*,*,*,hai,HAI,HAI\nEOS\n"
    sentences = list(iter_cabocha(text))
    assert len(sentences) == 1
    assert sentences[0].heads() == (0,)
    assert sentences[0].root_lemma == "hai"


def test_parse_cabocha_sample_file(data_dir):
    sentences = list(iter_cabocha((data_dir / "sample.cabocha").read_bytes(), source="sample.cabocha"))
    assert len(sentences) == 3
    first, single, last = sentences
    assert first.heads() == DEMO7_HEADS
    assert first.root_lemma == "hitoda"  # base form of the root chunk's first morpheme
    assert single.heads() == (0,)
    assert last.heads() == (3, 3, 0)
    assert [single.root_lemma, last.root_lemma] == ["hai", "tobu"]


def test_parse_cabocha_demo_structure_metrics(data_dir):
    first = list(iter_cabocha((data_dir / "sample.cabocha").read_bytes()))[0]
    assert metric_record(first).mdd == pytest.approx(1.8333, abs=5e-5)


def test_parse_cabocha_missing_eos():
    text = "* 0 -1D\nword\tnoun,*,*,*,*,*,word,W,W\n"
    with pytest.raises(MissingEOS):
        list(iter_cabocha(text))
    rejections = []
    assert list(iter_cabocha(text, errors="skip", rejections=rejections)) == []
    assert len(rejections) == 1


def test_parse_cabocha_malformed_header():
    with pytest.raises(MalformedChunkHeader):
        list(iter_cabocha("* 0 nohead\nw\tx\nEOS\n"))
    with pytest.raises(MalformedChunkHeader):
        list(iter_cabocha("* 5 -1D\nw\tx\nEOS\n"))  # index out of sequence


@pytest.mark.parametrize(
    "header",
    ["* +0 1D", "* 0 +1D", "* \uff10 1D", "* 0 \u0661D", "* 0_0 1D", "* 0 0_1D", "* 0 -2D", "* 0 -01D",
     "* -0 1D", "* 0 D"],
    ids=ascii,
)
def test_cabocha_chunk_index_and_head_take_ascii_digits_only(header):
    sentence = "{}\nw\tx\n* 1 -1D\nv\tx\nEOS\n"
    assert list(iter_cabocha(sentence.format("* 0 1D")))[0].heads() == (2, 0)
    text = sentence.format(header)
    reason = f"line 1: bad chunk header {header!r}"
    with pytest.raises(MalformedChunkHeader, match=f"^{re.escape(reason)}$"):
        list(iter_cabocha(text))
    rejections = []
    assert list(iter_cabocha(text, errors="skip", rejections=rejections)) == []
    assert [rejection.reason for rejection in rejections] == [reason]


def test_cabocha_header_numbers_with_leading_zeros_or_past_the_decimal_table():
    assert [s.heads() for s in iter_cabocha("* 00 -1D\nw\tx\nEOS\n")] == [(0,)]
    assert [s.heads() for s in iter_cabocha("* 0 01D\nw\tx\n* 1 -1D\nv\tx\nEOS\n")] == [(2, 0)]
    for header in ("* 0 -01D", "* 0 1d"):
        reason = f"line 1: bad chunk header {header!r}"
        with pytest.raises(MalformedChunkHeader, match=f"^{re.escape(reason)}$"):
            list(iter_cabocha(header + "\nw\tx\n* 1 -1D\nv\tx\nEOS\n"))
    n = 1100
    chunks = [f"* {index} {index + 1}D\nw\tx\n" for index in range(n - 1)] + [f"* {n - 1} -1D\nv\tx\n"]
    [sentence] = iter_cabocha("".join(chunks) + "EOS\n")
    assert sentence.heads() == tuple(range(2, n + 1)) + (0,)
    reason = f"line {2 * n - 1}: chunk index 1100 out of sequence (expected 1099)"
    with pytest.raises(MalformedChunkHeader, match=f"^{re.escape(reason)}$"):
        list(iter_cabocha("".join(chunks[:-1]) + f"* {n} -1D\nv\tx\nEOS\n"))


def test_parse_cabocha_skip_mode_rejects_only_bad_sentence():
    text = (
        "* 0 nohead\nw\tx\nEOS\n"  # malformed header
        "* 0 -1D\nok\tnoun,*,*,*,*,*,ok,O,O\nEOS\n"
    )
    rejections = []
    sentences = list(iter_cabocha(text, errors="skip", rejections=rejections))
    assert [s.root_lemma for s in sentences] == ["ok"]
    assert len(rejections) == 1
    assert "chunk header" in rejections[0].reason


def test_cabocha_root_lemma_is_the_first_base_form_of_the_root_chunk():
    root_without_lemma = "* 0 -1D\na\tx,*,*,*,*,*,*\nb\tx,*,*,*,*,*,\nEOS\n"
    assert [s.root_lemma for s in iter_cabocha(root_without_lemma)] == [None]
    short_features = "* 0 1D\nw\tn,x\n* 1 -1D\nv\tshort\nu\tv,*,*,*,*,*,go\nEOS\n"  # fewer than seven
    [sentence] = iter_cabocha(short_features)
    assert (sentence.heads(), sentence.root_lemma) == ((2, 0), "go")
    non_root_only = "* 0 1D\nw\tn,*,*,*,*,*,word\n* 1 -1D\nv\tv,*,*,*,*,*,*\nEOS\n"
    assert [s.root_lemma for s in iter_cabocha(non_root_only)] == [None]


def _counting_lines(text, split):
    """The lines of ``text`` as ``str`` objects that append themselves to ``split`` when partitioned."""

    class Line(str):
        def partition(self, sep):
            split.append(str(self))
            return super().partition(sep)

    return [Line(line) for line in text.split("\n")]


def test_cabocha_splits_only_the_root_chunks_morpheme_lines_up_to_its_lemma(data_dir):
    split = []
    text = (data_dir / "sample.cabocha").read_text(encoding="utf-8")
    sentences = list(iter_cabocha(_counting_lines(text, split)))
    assert [line.split("\t")[0] for line in split] == ["hitoda", "hai", "tobu"]
    assert [s.root_lemma for s in sentences] == ["hitoda", "hai", "tobu"]
    split = []
    text = "* 0 1D\nw\tn,*,*,*,*,*,w\n* 1 -1D\na\tx,*,*,*,*,*,*\nb\tx,*,*,*,*,*,\nc\tv,*,*,*,*,*,go\n"
    text += "d\tv,*,*,*,*,*,went\n* 2 1D\ne\tp,*,*,*,*,*,e\nEOS\n"
    [sentence] = iter_cabocha(_counting_lines(text, split))
    assert [line[0] for line in split] == ["a", "b", "c"]
    assert (sentence.heads(), sentence.root_lemma) == ((2, 0, 2), "go")


def test_parse_cabocha_morpheme_before_header():
    with pytest.raises(MalformedLine):
        list(iter_cabocha("stray\tnoun\nEOS\n"))


# --- canonical JSONL ---------------------------------------------------------


def test_parse_canonical_trivial():
    line = '{"id":"s1","nodes":[{"index":1,"head":2},{"index":2,"head":0}]}'
    sentences = list(iter_canonical(line))
    assert len(sentences) == 1
    assert sentences[0].id == "s1"
    assert sentences[0].heads() == (2, 0)


def test_parse_canonical_multiple_roots_rejected():
    line = '{"id":"bad","nodes":[{"index":1,"head":0},{"index":2,"head":0}]}'
    with pytest.raises(MultipleRoots):
        list(iter_canonical(line))


def test_parse_canonical_bad_json_reports_line_number():
    with pytest.raises(MalformedLine, match="line 2"):
        list(iter_canonical('{"id":"a","nodes":[{"index":1,"head":0}]}\n{broken\n'))


def test_parse_canonical_skips_comments_and_blanks():
    text = '# generated corpus\n\n{"id":"a","nodes":[{"index":1,"head":0}]}\n'
    assert len(list(iter_canonical(text))) == 1


@pytest.mark.parametrize(
    "node",
    [
        '{"index": 1, "head": 0.0}',
        '{"index": 1.9, "head": 0}',
        '{"index": 1, "head": true}',
        '{"index": true, "head": 0}',
        '{"index": 1, "head": 1e400}',
        '{"index": 1, "head": "0"}',
        '{"index": 1, "head": null}',
    ],
    ids=["float-head", "float-index", "bool-head", "bool-index", "inf-head", "text-head", "null-head"],
)
def test_parse_canonical_requires_json_integers(node):
    line = '{"id": "s", "nodes": [{"index": 2, "head": 0}, ' + node + "]}"
    with pytest.raises(MalformedLine, match="^line 1: node needs integer 'index' and 'head'$"):
        list(iter_canonical(line))
    rejections = []
    assert list(iter_canonical(line, errors="skip", rejections=rejections)) == []
    assert len(rejections) == 1


@pytest.mark.parametrize(
    "nodes",
    ["[" * 100_000 + "]" * 100_000, '[{"index": 1, "head": 1' + "0" * 5000 + "}]"],
    ids=["nested-too-deep", "5001-digit-head"],
)
def test_parse_canonical_rejects_json_python_cannot_load(nodes):
    line = '{"id": "s", "nodes": ' + nodes + "}"
    rejections = []
    assert list(iter_canonical(line, errors="skip", rejections=rejections)) == []
    assert rejections[0].reason.startswith("line 1: invalid JSON: ")


@pytest.mark.parametrize("field", ['"form": 3', '"lemma": [1]', '"lemma": {"a": 1}', '"form": false'])
def test_parse_canonical_requires_text_or_null(field):
    on_root = '{"id": "s", "nodes": [{"index": 1, "head": 0, ' + field + "}]}"
    on_dependent = '{"id": "s", "nodes": [{"index": 1, "head": 0}, {"index": 2, "head": 1, ' + field + "}]}"
    for line in (on_root, on_dependent):  # every node's, though only the root's lemma is kept
        with pytest.raises(MalformedLine, match="'form' and 'lemma' must be strings or null"):
            list(iter_canonical(line))


@pytest.mark.parametrize("sent_id", ["null", "5", "true", "[1]", '{"a": 1}'])
def test_parse_canonical_requires_a_string_id(sent_id):
    line = '{"id": ' + sent_id + ', "nodes": [{"index": 1, "head": 0}]}'
    with pytest.raises(MalformedLine, match="^line 1: 'id' must be a string$"):
        list(iter_canonical(line))
    rejections = []
    assert list(iter_canonical(line, errors="skip", rejections=rejections)) == []
    assert [(r.reason, r.sentence_id) for r in rejections] == [("line 1: 'id' must be a string", None)]


def test_parse_canonical_keeps_only_the_root_lemma():
    line = '{"id": "s", "nodes": [{"index": 1, "head": 2, "lemma": "x"}, {"index": 2, "head": 0}]}'
    assert [s.root_lemma for s in iter_canonical(line)] == [None]
    line = line.replace('"head": 0}', '"head": 0, "lemma": "y"}')
    assert [s.root_lemma for s in iter_canonical(line)] == ["y"]


def test_parse_canonical_accepts_null_text_fields():
    line = '{"id": "s", "nodes": [{"index": 1, "head": 0, "form": null, "lemma": "go"}]}'
    sent = list(iter_canonical(line))[0]
    assert sent.nodes[0] == Node(index=1, head=0)
    assert sent.root_lemma == "go"


def test_canonical_round_trip_over_bundled_samples(data_dir):
    originals = list(iter_conllu((data_dir / "sample_ud.conllu").read_bytes(), errors="skip", rejections=[]))
    originals += list(iter_cabocha((data_dir / "sample.cabocha").read_bytes()))
    originals += list(iter_canonical((data_dir / "sample_200.jsonl").read_bytes()))
    assert len(originals) == 12 + 3 + 200
    for sent in originals:
        again = list(iter_canonical(serialize_canonical(sent)))[0]
        assert again.id == sent.id
        assert again.nodes == sent.nodes


# --- validation ---------------------------------------------------------------


def test_validate_tree_examples():
    assert validate_tree(Sentence.from_heads((2, 0))).heads() == (2, 0)
    with pytest.raises(CycleDetected):
        validate_tree(Sentence.from_heads((2, 1, 0)))
    with pytest.raises(MultipleRoots):
        validate_tree(Sentence.from_heads((0, 0, 1)))
    with pytest.raises(NoRoot):
        validate_tree(Sentence.from_heads((2, 3, 2)))
    with pytest.raises(SelfLoop):
        validate_tree(Sentence.from_heads((1, 0)))
    with pytest.raises(InvalidTree):
        validate_tree(Sentence.from_heads((5, 0)))
    with pytest.raises(InvalidTree, match="^empty: sentence has no nodes$"):
        validate_tree(Sentence.from_heads((), id="empty"))
    with pytest.raises(InvalidTree, match="^<canonical>:1: sentence has no nodes$"):
        list(iter_canonical('{"id": "", "nodes": []}'))


@pytest.mark.parametrize("heads", [(), (2, 3, 1), (1, 2)], ids=["empty", "cycle", "self-loops"])
def test_serialize_canonical_refuses_a_root_lemma_without_a_root(heads):
    sentence = Sentence.from_heads(heads, id="s", root_lemma="a")
    with pytest.raises(ValueError, match="^'s': a root lemma, but no node has head 0$"):
        serialize_canonical(sentence)
    assert serialize_canonical(Sentence.from_heads(heads, id="s")).startswith('{"id": "s", "nodes": [')


@pytest.mark.parametrize("head", [True, 2.0, "1"], ids=["bool", "float", "str"])
def test_a_head_that_is_not_an_int_is_refused_by_from_heads_and_the_writer(head):
    message = f"^'s': the head at position 1 is {re.escape(repr(head))}, not an int$"
    with pytest.raises(TypeError, match=message):
        Sentence.from_heads((head, 0), id="s")
    if head is not True:  # a bool indexes the writer's pieces, so only from_heads checks it
        with pytest.raises(TypeError, match=message):
            serialize_canonical(Sentence("s", (head, 0)))


def test_from_heads_keeps_the_root_lemma():
    assert Sentence.from_heads((2, 0), root_lemma="a").root_lemma == "a"
    assert Sentence.from_heads((2, 0)).root_lemma is None
    a, b = (Sentence.from_heads((2, 0), root_lemma=lemma) for lemma in "ab")
    assert fields(a) != fields(b)
    assert serialize_canonical(Sentence.from_heads((2, 0, 2), id="s", root_lemma="a")) == (
        '{"id": "s", "nodes": [{"head": 2, "index": 1}, {"head": 0, "index": 2, "lemma": "a"},'
        ' {"head": 2, "index": 3}]}'
    )


def test_validate_tree_rejects_nonconsecutive_indices():
    # a head vector has no indices to skip, so the check lives in the parser
    line = '{"id": "gap", "nodes": [{"index": 1, "head": 3}, {"index": 3, "head": 0}]}'
    with pytest.raises(InvalidTree, match=r"^gap: node indices are not consecutive from 1 \(got \[1, 3\]\)$"):
        list(iter_canonical(line))


def _is_rooted_tree_oracle(heads):
    """Independent tree check: one root, sane heads, connected with n-1 edges."""
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return False
    for i, h in enumerate(heads, 1):
        if h == i or (h != 0 and not 1 <= h <= n):
            return False
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, h in enumerate(heads, 1):
        if h != 0:
            parent[find(i)] = find(h)
    return len({find(i) for i in range(1, n + 1)}) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_validator_accept_set_matches_oracle(n):
    accepted = 0
    for heads in itertools.product(range(0, n + 1), repeat=n):
        sentence = Sentence.from_heads(heads, id=str(heads))
        expected = _is_rooted_tree_oracle(heads)
        try:
            validate_tree(sentence)
            ok = True
        except InvalidTree:
            ok = False
        assert ok == expected, heads
        accepted += ok
    assert accepted == n ** (n - 1)


def test_accepted_sentences_have_n_minus_1_dependencies(data_dir):
    for sent in iter_canonical((data_dir / "sample_200.jsonl").read_bytes()):
        assert sum(1 for node in sent.nodes if node.head != 0) == len(sent) - 1


# --- valency lexicon -----------------------------------------------------------


def test_valency_lexicon_from_tsv(data_dir):
    lexicon = ValencyLexicon.from_tsv((data_dir / "lexicon.tsv").read_bytes())
    assert len(lexicon) == 4
    assert lexicon.get("run") == 1
    assert lexicon.get("trade") == 4
    assert lexicon.get("missing") is None
    assert lexicon.get(None) is None


def test_valency_lexicon_rejects_bad_rows():
    with pytest.raises(MalformedLine):
        ValencyLexicon.from_tsv("word\tfive\n")
    with pytest.raises(MalformedLine):
        ValencyLexicon.from_tsv("word\t7\n")
    with pytest.raises(MalformedLine):
        ValencyLexicon.from_tsv("word only\n")
    with pytest.raises(ValueError):
        ValencyLexicon(entries={"w": 9})


@pytest.mark.parametrize("cls", [True, 2.0, "2"], ids=ascii)
def test_valency_lexicon_refuses_a_class_that_is_not_an_int(cls):
    with pytest.raises(TypeError, match=f"^valency class for 'see' must be an int, got {type(cls).__name__}$"):
        ValencyLexicon({"go": 1, "see": cls})


def test_valency_lexicon_keeps_its_own_copy_of_the_entries():
    entries = {"go": 1}
    lexicon = ValencyLexicon(entries)
    entries["go"] = True
    assert lexicon.entries == {"go": 1} and type(lexicon.entries["go"]) is int


@pytest.mark.parametrize("raw", ["+3", " 3", "\uff13", "\u0663", "0_3", "-3", "3.0"], ids=ascii)
def test_valency_lexicon_class_takes_ascii_digits_only(raw):
    with pytest.raises(MalformedLine, match=f"^x\\.tsv:2: non-integer valency {re.escape(repr(raw))}$"):
        ValencyLexicon.from_tsv(f"go\t1\nrun\t{raw}\n", source="x.tsv")


def test_valency_lexicon_class_of_ascii_digits_outside_1_to_4_is_out_of_range():
    with pytest.raises(MalformedLine, match=r"^x\.tsv:1: valency must be 1\.\.4, got 7$"):
        ValencyLexicon.from_tsv("run\t07\n", source="x.tsv")


def test_valency_lexicon_rejects_a_lemma_given_two_classes():
    with pytest.raises(
        MalformedLine, match=r"^x\.tsv:3: lemma 'go' has valency 3 here but 1 at line 1$"
    ):
        ValencyLexicon.from_tsv("go\t1\nrun\t2\ngo\t3\n", source="x.tsv")
    repeated = ValencyLexicon.from_tsv("go\t1\n# again\ngo\t1\n")  # the same class twice is fine
    assert repeated.entries == {"go": 1}


# --- dispatch -------------------------------------------------------------------


def test_parse_dispatch_rejects_unknown_format():
    with pytest.raises(ValueError):
        parse("", "xml")


def test_iter_parse_rejects_unknown_format_before_reading():
    with pytest.raises(ValueError):
        iter_parse("", "xml")


def test_parse_option_the_format_parser_does_not_take_is_a_type_error():
    cabocha = "* 0 -1D 0/0 0.0\n行く\t動詞,自立,*,*,*,*,行く\nEOS\n"
    with pytest.raises(TypeError):
        iter_parse(cabocha, "cabocha", drop_punct=True)  # raised before any line is read
    with pytest.raises(TypeError):
        parse('{"id": "a", "nodes": [{"index": 1, "head": 0}]}', "canonical", ordinal=1)


class _Untouchable:
    """An input that fails on any use: nothing may be read from it, or asked of it."""

    def __getattr__(self, name):
        raise AssertionError(f"the input was used ({name})")

    def __iter__(self):
        raise AssertionError("the input was iterated")


@pytest.mark.parametrize("fmt", FORMATS)
def test_skip_mode_without_a_rejections_list_is_refused_before_any_line_is_read(fmt):
    parser = {"conllu": iter_conllu, "cabocha": iter_cabocha, "canonical": iter_canonical}[fmt]
    with pytest.raises(ValueError, match="needs a rejections list"):
        next(parser(_Untouchable(), errors="skip"))
    with pytest.raises(ValueError, match="needs a rejections list"):
        next(iter_parse(_Untouchable(), fmt, errors="skip"))
    for k in (0, 1):
        with pytest.raises(ValueError, match="needs a rejections list"):
            iter_byte_range(_Untouchable(), fmt, k, 2, 100, name="f", errors="skip")
    assert list(parser("", errors="skip", rejections=[])) == []  # skip mode with a list
    assert list(parser("")) == []  # raise mode needs none



# --- line breaks ------------------------------------------------------------------

# Characters that str.splitlines treats as line breaks but the formats do not.
NON_LF_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NON_LF_BREAKS)
def test_conllu_lemma_may_hold_a_non_lf_line_break(char):
    sentence = list(iter_conllu(conllu_block((0,), lemma=f"a{char}b")))[0]
    assert sentence.root_lemma == f"a{char}b"


def test_cabocha_surface_may_hold_a_next_line_character():
    text = "* 0 -1D 0/0 0.0\nx\x85y\tnoun,*,*,*,*,*,x\x85y\nEOS\n"
    [sentence] = iter_cabocha(text)
    assert sentence.root_lemma == "x\x85y"
    assert sentence.source == "<cabocha>:1-3"


def test_canonical_line_with_raw_line_separator_in_a_string_is_one_sentence():
    line = '{"id": "a\u2028b", "nodes": [{"index": 1, "head": 0, "lemma": "x\u2028y"}]}\n'
    rejections = []
    sentences = list(iter_canonical(line, errors="skip", rejections=rejections))
    assert rejections == []
    assert [(s.id, s.root_lemma) for s in sentences] == [("a\u2028b", "x\u2028y")]


@pytest.mark.parametrize(
    "fmt,text",
    [
        ("conllu", "# sent_id = s1\n" + conllu_block((2, 0)) + "\n" + conllu_block((0,))),
        ("cabocha", "* 0 1D\nw\tn,*,*,*,*,*,w\n* 1 -1D\nv\tv,*,*,*,*,*,v\nEOS\n"),
        ("canonical", '# run\n{"id": "a", "nodes": [{"index": 1, "head": 0}]}\n\n'),
    ],
)
def test_crlf_line_ends_read_like_lf(fmt, text):
    expected = parse(text, fmt)
    assert expected
    crlf = parse(text.replace("\n", "\r\n"), fmt)
    assert fields(crlf) == fields(expected)
    assert [s.source for s in crlf] == [s.source for s in expected]


# One document per format: a sentence to accept, with a lone CR inside a line, and one to reject.
DOCUMENTS = {
    "conllu": "# sent_id = s1\n" + conllu_block((2, 0), lemma="a\rb") + "\n" + conllu_block((2, 1)),
    "cabocha": "* 0 -1D\nx\ry\tn,*,*,*,*,*,x\ry\nEOS\n* 0 0D\nw\tn,*,*,*,*,*,w\nEOS\n",
    "canonical": '# run\n{"id": "a",\r"nodes": [{"index": 1, "head": 0}]}\n{"id": "b", "nodes": []}\n',
}
# The lines of the accepted sentence: a lone CR breaks no line.
ACCEPTED_SPANS = {"conllu": "<conllu>:1-3", "cabocha": "<cabocha>:1-3", "canonical": "<canonical>:2"}


@pytest.mark.parametrize("fmt", FORMATS)
def test_str_bytes_and_binary_file_read_alike_through_bom_crlf_and_lone_cr(fmt):
    lf = DOCUMENTS[fmt]
    text = "\ufeff" + lf.replace("\n", "\r\n")
    outcomes = []
    for stream in (lf.encode(), text, text.encode(), io.BytesIO(text.encode())):
        rejections = []
        sentences = parse(stream, fmt, errors="skip", rejections=rejections)
        outcomes.append((fields(sentences), [s.source for s in sentences], rejections))
    assert outcomes[0][1] == [ACCEPTED_SPANS[fmt]] and len(outcomes[0][2]) == 1
    assert outcomes[1:] == [outcomes[0]] * 3


@pytest.mark.parametrize("fmt", FORMATS)
def test_text_mode_file_is_refused_before_any_line_is_read(fmt, tmp_path):
    path = tmp_path / "corpus"
    path.write_bytes(DOCUMENTS[fmt].encode())
    with io.StringIO(DOCUMENTS[fmt]) as memory, open(path, encoding="utf-8") as file:
        for handle in (memory, file):
            with pytest.raises(TypeError, match="binary mode"):
                parse(handle, fmt)
            assert handle.tell() == 0
    with pytest.raises(TypeError, match="binary mode"):
        ValencyLexicon.from_tsv(io.StringIO("行く\t2\n"))


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_reader_that_gives_str_is_refused_before_any_line_is_parsed(fmt):
    reader = codecs.getreader("utf-8")(io.BytesIO(DOCUMENTS[fmt].encode()))
    rejections = []
    message = f"^<{fmt}>: a parser reads a file opened in binary mode \\('rb'\\), not in text mode$"
    with pytest.raises(TypeError, match=message):
        parse(reader, fmt, errors="skip", rejections=rejections)
    assert rejections == []
    with pytest.raises(TypeError, match="^<lexicon>: a parser reads a file opened in binary mode"):
        ValencyLexicon.from_tsv(codecs.getreader("utf-8")(io.BytesIO("行く\t2\n".encode())))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_reader_that_gives_str_is_refused_in_a_byte_range_before_any_line_is_parsed(fmt, k):
    data = (DOCUMENTS[fmt] * 50).encode()
    reader = codecs.getreader("utf-8")(io.BytesIO(data))
    rejections = []
    message = "^f: a parser reads a file opened in binary mode \\('rb'\\), not in text mode$"
    with pytest.raises(TypeError, match=message):
        list(iter_byte_range(reader, fmt, k, 2, len(data), name="f", errors="skip", rejections=rejections))
    assert rejections == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_str_with_a_lone_surrogate_is_invalid_encoding(fmt):
    with pytest.raises(InvalidEncoding, match="byte 2 is not UTF-8"):
        parse("ab\ud800\n", fmt, errors="skip", rejections=[])
