import itertools
import re

import pytest

from depmetrics.errors import (
    CycleDetected,
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
    Node,
    Sentence,
    ValencyLexicon,
    iter_parse,
    parse,
    parse_cabocha,
    parse_canonical,
    parse_conllu,
    serialize_canonical,
    validate_tree,
)

from .conftest import DEMO7_HEADS


def conllu_line(i, head, form="w", lemma="_", upos="X"):
    return f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t_\t_\t_"


def conllu_block(heads, **kw):
    return "\n".join(conllu_line(i, h, **kw) for i, h in enumerate(heads, 1)) + "\n"


# --- CoNLL-U ---------------------------------------------------------------


def test_parse_conllu_minimal_two_tokens():
    text = conllu_line(1, 2, form="the") + "\n" + conllu_line(2, 0, form="cat") + "\n"
    sentences = parse_conllu(text)
    assert len(sentences) == 1
    sent = sentences[0]
    assert len(sent) == 2
    assert sent.heads() == (2, 0)
    assert sent.forms[0] == "the"
    assert sent.heads().index(0) + 1 == 2


def test_parse_conllu_empty_input():
    assert parse_conllu("") == []
    assert parse_conllu(b"\n\n") == []


def test_parse_conllu_demo7_mdd():
    sentences = parse_conllu(conllu_block(DEMO7_HEADS))
    assert len(sentences) == 1
    assert metric_record(sentences[0]).mdd == pytest.approx(1.8333, abs=5e-5)


def test_parse_conllu_uses_sent_id_comment():
    text = "# sent_id = xyz\n" + conllu_block((2, 0))
    assert parse_conllu(text)[0].id == "xyz"


def test_parse_conllu_matches_the_sent_id_key_exactly():
    block = conllu_block((2, 0))
    assert parse_conllu("# sent_id = real\n# sent_id_orig = other\n" + block)[0].id == "real"
    assert parse_conllu("# sent_idx = 7\n" + block, source="f")[0].id == "f#1"
    assert parse_conllu("#sent_id=tight\n" + block)[0].id == "tight"
    assert parse_conllu("# sent_id =\n" + block, source="f")[0].id == "f#1"  # no value


def test_parse_conllu_skips_ranges_and_empty_nodes(data_dir):
    sentences = parse_conllu((data_dir / "sample_ud.conllu").read_bytes(), source="sample_ud.conllu")
    by_id = {s.id: s for s in sentences}
    ranged = by_id["ranges6"]
    assert len(ranged) == 6
    assert ranged.heads() == (3, 3, 6, 6, 6, 0)
    assert ranged.nodes[0].form == "it"  # the 1-2 range line is not a node


def test_parse_conllu_rejects_id_gap():
    text = conllu_line(1, 3) + "\n" + conllu_line(3, 0) + "\n"
    with pytest.raises(InvalidTree):
        parse_conllu(text)
    rejections = []
    assert parse_conllu(text, errors="skip", rejections=rejections) == []
    assert len(rejections) == 1
    assert "consecutive" in rejections[0].reason


def test_parse_conllu_malformed_lines():
    with pytest.raises(MalformedLine):
        parse_conllu("1\tonly\tthree\n")
    with pytest.raises(MalformedLine):
        parse_conllu(conllu_line("x", 0))
    with pytest.raises(MalformedLine):
        parse_conllu(conllu_line(1, "zero"))


def test_parse_conllu_skip_mode_keeps_good_sentences(data_dir):
    rejections = []
    sentences = parse_conllu(
        (data_dir / "mixed.conllu").read_bytes(), errors="skip", rejections=rejections
    )
    assert [s.id for s in sentences] == ["good1", "good2"]
    assert len(rejections) == 2
    assert len(sentences) + len(rejections) == 4


def test_parse_conllu_underscore_fields_become_none():
    sent = parse_conllu(conllu_line(1, 0, form="_", lemma="_") + "\n")[0]
    assert sent.nodes[0].form is None
    assert sent.nodes[0].lemma is None


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
        parse_conllu(text)
    rejections = []
    assert parse_conllu(text, errors="skip", rejections=rejections) == []
    assert [rejection.reason for rejection in rejections] == [reason]


def test_drop_punct_removes_leaf_and_renumbers(data_dir):
    sentences = parse_conllu((data_dir / "sample_ud.conllu").read_bytes(), drop_punct=True, errors="skip")
    by_id = {s.id: s for s in sentences}
    trimmed = by_id["punct4"]
    assert len(trimmed) == 3
    assert trimmed.heads() == (2, 0, 2)
    assert [n.form for n in trimmed.nodes] == ["birds", "sing", "loudly"]


def test_drop_punct_rejects_punct_with_dependents(data_dir):
    rejections = []
    sentences = parse_conllu(
        (data_dir / "sample_ud.conllu").read_bytes(), drop_punct=True, errors="skip", rejections=rejections
    )
    assert "punctdep5" not in {s.id for s in sentences}
    assert any("punctuation" in r.reason for r in rejections)


def test_drop_punct_keeps_out_of_range_head_for_validation():
    text = conllu_line(1, 3) + "\n" + conllu_line(2, 3, upos="PUNCT") + "\n"
    text += conllu_line(3, 0) + "\n" + conllu_line(4, 9) + "\n"
    with pytest.raises(InvalidTree, match=r"node 3 head 9 out of range 1\.\.3$"):
        parse_conllu(text, drop_punct=True)


# --- CaboCha ----------------------------------------------------------------


def test_parse_cabocha_single_chunk():
    text = "* 0 -1D 0/0 0.0\nhai\tint,*,*,*,*,*,hai,HAI,HAI\nEOS\n"
    sentences = parse_cabocha(text)
    assert len(sentences) == 1
    assert sentences[0].heads() == (0,)
    assert sentences[0].nodes[0].form == "hai"


def test_parse_cabocha_sample_file(data_dir):
    sentences = parse_cabocha((data_dir / "sample.cabocha").read_bytes(), source="sample.cabocha")
    assert len(sentences) == 3
    first, single, last = sentences
    assert first.heads() == DEMO7_HEADS
    assert first.nodes[1].form == "hitowa"  # concatenated morpheme surfaces
    assert first.nodes[1].lemma == "hito"  # base form of the first morpheme
    assert single.heads() == (0,)
    assert last.heads() == (3, 3, 0)


def test_parse_cabocha_demo_structure_metrics(data_dir):
    first = parse_cabocha((data_dir / "sample.cabocha").read_bytes())[0]
    assert metric_record(first).mdd == pytest.approx(1.8333, abs=5e-5)


def test_parse_cabocha_missing_eos():
    text = "* 0 -1D\nword\tnoun,*,*,*,*,*,word,W,W\n"
    with pytest.raises(MissingEOS):
        parse_cabocha(text)
    rejections = []
    assert parse_cabocha(text, errors="skip", rejections=rejections) == []
    assert len(rejections) == 1


def test_parse_cabocha_malformed_header():
    with pytest.raises(MalformedChunkHeader):
        parse_cabocha("* 0 nohead\nw\tx\nEOS\n")
    with pytest.raises(MalformedChunkHeader):
        parse_cabocha("* 5 -1D\nw\tx\nEOS\n")  # index out of sequence


@pytest.mark.parametrize(
    "header",
    ["* +0 1D", "* 0 +1D", "* \uff10 1D", "* 0 \u0661D", "* 0_0 1D", "* 0 0_1D", "* 0 -2D", "* 0 -01D",
     "* -0 1D", "* 0 D"],
    ids=ascii,
)
def test_cabocha_chunk_index_and_head_take_ascii_digits_only(header):
    sentence = "{}\nw\tx\n* 1 -1D\nv\tx\nEOS\n"
    assert parse_cabocha(sentence.format("* 0 1D"))[0].heads() == (2, 0)
    text = sentence.format(header)
    reason = f"line 1: bad chunk header {header!r}"
    with pytest.raises(MalformedChunkHeader, match=f"^{re.escape(reason)}$"):
        parse_cabocha(text)
    rejections = []
    assert parse_cabocha(text, errors="skip", rejections=rejections) == []
    assert [rejection.reason for rejection in rejections] == [reason]


def test_parse_cabocha_skip_mode_rejects_only_bad_sentence():
    text = (
        "* 0 nohead\nw\tx\nEOS\n"  # malformed header
        "* 0 -1D\nok\tnoun,*,*,*,*,*,ok,O,O\nEOS\n"
    )
    rejections = []
    sentences = parse_cabocha(text, errors="skip", rejections=rejections)
    assert [s.nodes[0].form for s in sentences] == ["ok"]
    assert len(rejections) == 1
    assert "chunk header" in rejections[0].reason


def test_parse_cabocha_morpheme_before_header():
    with pytest.raises(MalformedLine):
        parse_cabocha("stray\tnoun\nEOS\n")


# --- canonical JSONL ---------------------------------------------------------


def test_parse_canonical_trivial():
    line = '{"id":"s1","nodes":[{"index":1,"head":2},{"index":2,"head":0}]}'
    sentences = parse_canonical(line)
    assert len(sentences) == 1
    assert sentences[0].id == "s1"
    assert sentences[0].heads() == (2, 0)


def test_parse_canonical_multiple_roots_rejected():
    line = '{"id":"bad","nodes":[{"index":1,"head":0},{"index":2,"head":0}]}'
    with pytest.raises(MultipleRoots):
        parse_canonical(line)


def test_parse_canonical_bad_json_reports_line_number():
    with pytest.raises(MalformedLine, match="line 2"):
        parse_canonical('{"id":"a","nodes":[{"index":1,"head":0}]}\n{broken\n')


def test_parse_canonical_skips_comments_and_blanks():
    text = '# generated corpus\n\n{"id":"a","nodes":[{"index":1,"head":0}]}\n'
    assert len(parse_canonical(text)) == 1


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
        parse_canonical(line)
    rejections = []
    assert parse_canonical(line, errors="skip", rejections=rejections) == []
    assert len(rejections) == 1


@pytest.mark.parametrize(
    "nodes",
    ["[" * 100_000 + "]" * 100_000, '[{"index": 1, "head": 1' + "0" * 5000 + "}]"],
    ids=["nested-too-deep", "5001-digit-head"],
)
def test_parse_canonical_rejects_json_python_cannot_load(nodes):
    line = '{"id": "s", "nodes": ' + nodes + "}"
    rejections = []
    assert parse_canonical(line, errors="skip", rejections=rejections) == []
    assert rejections[0].reason.startswith("line 1: invalid JSON: ")


@pytest.mark.parametrize("field", ['"form": 3', '"lemma": [1]', '"lemma": {"a": 1}', '"form": false'])
def test_parse_canonical_requires_text_or_null(field):
    line = '{"id": "s", "nodes": [{"index": 1, "head": 0, ' + field + "}]}"
    with pytest.raises(MalformedLine, match="'form' and 'lemma' must be strings or null"):
        parse_canonical(line)


@pytest.mark.parametrize("sent_id", ["null", "5", "true", "[1]", '{"a": 1}'])
def test_parse_canonical_requires_a_string_id(sent_id):
    line = '{"id": ' + sent_id + ', "nodes": [{"index": 1, "head": 0}]}'
    with pytest.raises(MalformedLine, match="^line 1: 'id' must be a string$"):
        parse_canonical(line)
    rejections = []
    assert parse_canonical(line, errors="skip", rejections=rejections) == []
    assert [(r.reason, r.sentence_id) for r in rejections] == [("line 1: 'id' must be a string", None)]


def test_parse_canonical_accepts_null_text_fields():
    line = '{"id": "s", "nodes": [{"index": 1, "head": 0, "form": null, "lemma": "go"}]}'
    sent = parse_canonical(line)[0]
    assert sent.nodes[0] == Node(index=1, head=0, form=None, lemma="go")


def test_canonical_round_trip_over_bundled_samples(data_dir):
    originals = parse_conllu((data_dir / "sample_ud.conllu").read_bytes(), errors="skip")
    originals += parse_cabocha((data_dir / "sample.cabocha").read_bytes())
    originals += parse_canonical((data_dir / "sample_200.jsonl").read_bytes())
    assert len(originals) == 12 + 3 + 200
    for sent in originals:
        again = parse_canonical(serialize_canonical(sent))[0]
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
        parse_canonical('{"id": "", "nodes": []}')


def test_validate_tree_rejects_nonconsecutive_indices():
    # a head vector has no indices to skip, so the check lives in the parser
    line = '{"id": "gap", "nodes": [{"index": 1, "head": 3}, {"index": 3, "head": 0}]}'
    with pytest.raises(InvalidTree, match=r"^gap: node indices are not consecutive from 1 \(got \[1, 3\]\)$"):
        parse_canonical(line)


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
    for sent in parse_canonical((data_dir / "sample_200.jsonl").read_bytes()):
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


# --- line breaks ------------------------------------------------------------------

# Characters that str.splitlines treats as line breaks but the formats do not.
NON_LF_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NON_LF_BREAKS)
def test_conllu_form_may_hold_a_non_lf_line_break(char):
    sentence = parse_conllu(conllu_block((0,), form=f"a{char}b"))[0]
    assert sentence.forms == (f"a{char}b",)


def test_cabocha_surface_may_hold_a_next_line_character():
    text = "* 0 -1D 0/0 0.0\nx\x85y\tnoun,*,*,*,*,*,x\nEOS\n"
    sentence = parse_cabocha(text)[0]
    assert sentence.forms == ("x\x85y",)
    assert sentence.source == "<cabocha>:1-3"


def test_canonical_line_with_raw_line_separator_in_a_string_is_one_sentence():
    line = '{"id": "a\u2028b", "nodes": [{"index": 1, "head": 0, "form": "x\u2028y"}]}\n'
    rejections = []
    sentences = parse_canonical(line, errors="skip", rejections=rejections)
    assert rejections == []
    assert [(s.id, s.forms) for s in sentences] == [("a\u2028b", ("x\u2028y",))]


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
    assert crlf == expected
    assert [s.source for s in crlf] == [s.source for s in expected]
