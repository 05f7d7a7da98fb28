import codecs
import io
import itertools
import os
import random
import re
from functools import partial

import pytest

from depmetrics import treebank
from depmetrics.errors import (
    CycleDetected,
    DepMetricsError,
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
from depmetrics.randtree import GeneratorConfig, random_tree
from depmetrics.treebank import (
    FORMATS,
    Node,
    Sentence,
    ValencyLexicon,
    iter_byte_range,
    iter_parse,
    parse,
    serialize_canonical,
    validate_tree,
)

from . import reference_treebank
from .conftest import DEMO7_HEADS, fields


def conllu_line(i, head, lemma="_", upos="X"):
    return f"{i}\tw\t{lemma}\t{upos}\t_\t_\t{head}\t_\t_\t_"


def conllu_block(heads, **kw):
    return "\n".join(conllu_line(i, h, **kw) for i, h in enumerate(heads, 1)) + "\n"


# --- CoNLL-U ---------------------------------------------------------------


def test_parse_conllu_minimal_two_tokens():
    text = conllu_line(1, 2, lemma="the") + "\n" + conllu_line(2, 0, lemma="cat") + "\n"
    sentences = list(iter_parse(text, "conllu"))
    assert len(sentences) == 1
    sent = sentences[0]
    assert len(sent) == 2
    assert sent.heads() == (2, 0)
    assert sent.root_lemma == "cat"
    assert sent.heads().index(0) + 1 == 2


def test_parse_conllu_empty_input():
    assert list(iter_parse("", "conllu")) == []
    assert list(iter_parse(b"\n\n", "conllu")) == []


def test_parse_conllu_demo7_mdd():
    sentences = list(iter_parse(conllu_block(DEMO7_HEADS), "conllu"))
    assert len(sentences) == 1
    assert metric_record(sentences[0]).mdd == pytest.approx(1.8333, abs=5e-5)


def test_parse_conllu_uses_sent_id_comment():
    text = "# sent_id = xyz\n" + conllu_block((2, 0))
    assert list(iter_parse(text, "conllu"))[0].id == "xyz"


def test_parse_conllu_matches_the_sent_id_key_exactly():
    block = conllu_block((2, 0))
    assert list(iter_parse("# sent_id = real\n# sent_id_orig = other\n" + block, "conllu"))[0].id == "real"
    assert list(iter_parse("# sent_idx = 7\n" + block, "conllu", source="f"))[0].id == "f#1"
    assert list(iter_parse("#sent_id=tight\n" + block, "conllu"))[0].id == "tight"
    assert list(iter_parse("# sent_id =\n" + block, "conllu", source="f"))[0].id == "f#1"  # no value


def test_parse_conllu_skips_ranges_and_empty_nodes(data_dir):
    sentences = list(iter_parse((data_dir / "sample_ud.conllu").read_bytes(), "conllu", source="sample_ud.conllu"))
    by_id = {s.id: s for s in sentences}
    ranged = by_id["ranges6"]
    assert len(ranged) == 6
    assert ranged.heads() == (3, 3, 6, 6, 6, 0)
    assert ranged.root_lemma == "eat"  # the 1-2 and 5.1 lines are not nodes


def test_parse_conllu_rejects_id_gap():
    text = conllu_line(1, 3) + "\n" + conllu_line(3, 0) + "\n"
    with pytest.raises(InvalidTree):
        list(iter_parse(text, "conllu"))
    rejections = []
    assert list(iter_parse(text, "conllu", errors="skip", rejections=rejections)) == []
    assert len(rejections) == 1
    assert "consecutive" in rejections[0].reason


def test_parse_conllu_malformed_lines():
    with pytest.raises(MalformedLine):
        list(iter_parse("1\tonly\tthree\n", "conllu"))
    with pytest.raises(MalformedLine):
        list(iter_parse(conllu_line("x", 0), "conllu"))
    with pytest.raises(MalformedLine):
        list(iter_parse(conllu_line(1, "zero"), "conllu"))


def test_parse_conllu_skip_mode_keeps_good_sentences(data_dir):
    rejections = []
    sentences = list(
        iter_parse((data_dir / "mixed.conllu").read_bytes(), "conllu", errors="skip", rejections=rejections)
    )
    assert [s.id for s in sentences] == ["good1", "good2"]
    assert len(rejections) == 2
    assert len(sentences) + len(rejections) == 4


def test_parse_conllu_underscore_fields_become_none():
    sent = list(iter_parse(conllu_line(1, 0, lemma="_") + "\n", "conllu"))[0]
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
        list(iter_parse(text, "conllu"))
    rejections = []
    assert list(iter_parse(text, "conllu", errors="skip", rejections=rejections)) == []
    assert [rejection.reason for rejection in rejections] == [reason]


@pytest.mark.parametrize("raw", ["0", "01", "1023", "1024"])
def test_conllu_id_and_head_at_the_edges_of_the_decimal_table(raw):
    one_token = conllu_line(raw, 0) + "\n"
    two_tokens = conllu_line(1, 0) + "\n" + conllu_line(2, raw) + "\n"
    if raw == "01":  # a leading zero misses the table and is read as int() reads it
        assert [s.heads() for s in iter_parse(one_token, "conllu")] == [(0,)]
        assert [s.heads() for s in iter_parse(two_tokens, "conllu")] == [(0, 1)]
        return
    with pytest.raises(InvalidTree, match="^<conllu>#1: token IDs are not consecutive from 1$"):
        list(iter_parse(one_token, "conllu"))
    if raw == "0":
        with pytest.raises(MultipleRoots):
            list(iter_parse(two_tokens, "conllu"))
    else:
        with pytest.raises(InvalidTree, match=f"^<conllu>#1: node 2 head {raw} out of range 1\\.\\.2$"):
            list(iter_parse(two_tokens, "conllu"))


def test_conllu_sentence_past_the_decimal_table():
    n = 1100
    heads = tuple(range(2, n + 1)) + (0,)
    raw_ids = [str(i) for i in range(1, n + 1)]
    raw_ids[1049] = "01050"  # a leading zero past the table too
    text = "".join(conllu_line(raw_id, head) + "\n" for raw_id, head in zip(raw_ids, heads))
    [sentence] = iter_parse(text, "conllu")
    assert sentence.heads() == heads
    assert sentence.depths == tuple(range(n - 1, -1, -1))
    with pytest.raises(InvalidTree, match="^<conllu>#1: node 1 head 1101 out of range 1\\.\\.1100$"):
        list(iter_parse(text.replace("\t2\t", "\t1101\t", 1), "conllu"))


def test_drop_punct_removes_leaf_and_renumbers(data_dir):
    text = (data_dir / "sample_ud.conllu").read_bytes()
    sentences = list(iter_parse(text, "conllu", drop_punct=True, errors="skip", rejections=[]))
    by_id = {s.id: s for s in sentences}
    trimmed = by_id["punct4"]
    assert len(trimmed) == 3
    assert trimmed.heads() == (2, 0, 2)
    assert trimmed.root_lemma == "run"


def test_drop_punct_rejects_punct_with_dependents(data_dir):
    rejections = []
    text = (data_dir / "sample_ud.conllu").read_bytes()
    sentences = list(iter_parse(text, "conllu", drop_punct=True, errors="skip", rejections=rejections))
    assert "punctdep5" not in {s.id for s in sentences}
    assert any("punctuation" in r.reason for r in rejections)


def test_conllu_root_lemma_is_the_lemma_of_the_kept_line_whose_head_is_0():
    dot_first = conllu_line(1, 0, lemma="dot", upos="PUNCT") + "\n" + conllu_line(2, 0, lemma="go") + "\n"
    go_first = conllu_line(1, 0, lemma="go") + "\n" + conllu_line(2, 0, lemma="dot", upos="PUNCT") + "\n"
    for text in (dot_first, go_first):
        with pytest.raises(MultipleRoots):
            list(iter_parse(text, "conllu"))
        [sentence] = iter_parse(text, "conllu", drop_punct=True)
        assert (sentence.heads(), sentence.root_lemma) == ((0,), "go")
    text = conllu_line(1, 2, lemma="bird") + "\n" + conllu_line(2, 0, lemma="_") + "\n"
    assert [s.root_lemma for s in iter_parse(text, "conllu")] == [None]  # another line's lemma is not the root's


def test_drop_punct_keeps_out_of_range_head_for_validation():
    text = conllu_line(1, 3) + "\n" + conllu_line(2, 3, upos="PUNCT") + "\n"
    text += conllu_line(3, 0) + "\n" + conllu_line(4, 9) + "\n"
    with pytest.raises(InvalidTree, match=r"node 3 head 9 out of range 1\.\.3$"):
        list(iter_parse(text, "conllu", drop_punct=True))


PLAIN, ODD = "plain", "odd"  # marks in the sentences the fast path reads, and in those it hands to the line branch
UPOS = ["NOUN", "VERB", "ADJ", "ADP", "PUNCT"]


def _bench_conllu(rng, mark, heads=None):
    """The lines of a sentence as the benchmark writes it, every comment and FORM holding ``mark``.

    Its id comes from a ``sent_id`` comment, spaced in one of two ways, or
    from its ordinal; now and then a fifth of its tokens are PUNCT.
    """
    if heads is None:
        heads = list(random_tree(GeneratorConfig(n=rng.randint(1, 16), seed=rng.randrange(2**32))).head_vector)
        if rng.random() < 0.15:  # a head vector that is no tree
            heads[rng.randrange(len(heads))] = rng.randrange(len(heads) + 1)
    punct = rng.choice([0, 0, 0.2])
    number = rng.randrange(10**6)
    lines = rng.choice([[f"# sent_id = {mark}-{number}"], [f"#sent_id={mark}-{number}"], []])
    lines.append(f"# text = {mark}")
    for i, head in enumerate(heads, 1):
        tag = "PUNCT" if rng.random() < punct else rng.choice(UPOS[:4])
        lemma = rng.choice([f"l{i}", "_"])
        lines.append(f"{i}\t{mark}{i}\t{lemma}\t{tag}\t_\t_\t{head}\t{'dep' if head else 'root'}\t_\t_")
    return lines


def _token_rows(lines):
    """The positions of a sentence's token lines."""
    return [i for i, line in enumerate(lines) if not line.startswith("#")]


def _with_multiword_range(rng, lines):
    """The lines with a multiword-token range before one of the tokens."""
    rows = _token_rows(lines)
    at = rng.randrange(len(rows))
    token = at + 1
    lines.insert(rows[at], f"{token}-{token + 1}\t{lines[0][2:]}mw" + "\t_" * 8)
    return lines


def _with_empty_node(rng, lines):
    """The lines with an empty node after one of the tokens."""
    rows = _token_rows(lines)
    at = rng.randrange(len(rows))
    lines.insert(rows[at] + 1, f"{at + 1}.1\t{lines[-1].split(chr(9))[1]}e\t_\t_\t_\t_\t_\t_\t{at + 1}:dep\t_")
    return lines


def _edited(rng, edit, heads=(2, 0, 2)):
    """An odd sentence, one of whose token lines ``edit`` changes (or inserts lines before)."""
    lines = _bench_conllu(rng, ODD, list(heads))
    at = rng.choice(_token_rows(lines)[1:])
    lines[at : at + 1] = edit(lines[at]).split("\n")
    return lines


def _out_of_order(rng):
    """An odd sentence whose last two token lines are swapped: IDs 1, 3, 2."""
    lines = _bench_conllu(rng, ODD, [2, 0, 2])
    lines[-2], lines[-1] = lines[-1], lines[-2]
    return lines


def _shifted(rng):
    """An odd sentence with a second line of eleven fields, the last holding '-', a third of nine and IDs 1, 2, 3, 3.

    Every tenth field is an ID or that '-' field, and there are ten fields a
    line, but the tenth fields do not start each line.
    """
    lines = _bench_conllu(rng, ODD, [0, 1, 1, 1])
    rows = _token_rows(lines)
    lines[rows[1]] += "\t3-4"
    lines[rows[2]] = lines[rows[2]].rsplit("\t", 1)[0]
    lines[rows[3]] = _field(lines[rows[3]], 0, "3")
    return lines


def _field(line, index, value):
    fields = line.split("\t")
    fields[index] = value
    return "\t".join(fields)


def _planted_conllu(seed):
    """Bench-shaped CoNLL-U, with a BOM, that plants every form the fast path reads past or hands on."""
    rng = random.Random(seed)
    comment_row = "# sent_id = odd-tabs" + "\t_" * 9  # nine tabs and a '-' in its first field: still a comment
    plain = [  # sentences whose only odd feature the fast path reads itself
        lambda: _with_multiword_range(rng, _bench_conllu(rng, PLAIN)),
        lambda: _with_empty_node(rng, _bench_conllu(rng, PLAIN)),
        lambda: _with_empty_node(rng, _with_multiword_range(rng, _bench_conllu(rng, PLAIN))),
        lambda: _bench_conllu(rng, PLAIN, [0, 1, 1]),
        lambda: [_field(line, 3, "PUNCT") if line.endswith("root\t_\t_") else line
                 for line in _bench_conllu(rng, PLAIN, [0, 1, 2])],  # a PUNCT root
        lambda: [_field(line, 3, "PUNCT") if line.startswith("1\t") else line
                 for line in _bench_conllu(rng, PLAIN, [0, 1, 1])],  # a PUNCT token with dependents
        lambda: [""] + _bench_conllu(rng, PLAIN),  # two blank lines in a row before it
        lambda: [" \t"] + _bench_conllu(rng, PLAIN),  # and a blank line that holds whitespace
        lambda: _bench_conllu(rng, PLAIN) + ["\u3000"] + _bench_conllu(rng, PLAIN),  # ended by a line of whitespace
        # eight fields a line, and twelve: the line branch reads any eight or more alike
        lambda: [line if line.startswith("#") else line.rsplit("\t", 2)[0] for line in _bench_conllu(rng, PLAIN)],
        lambda: [line if line.startswith("#") else line + "\t_\t_" for line in _bench_conllu(rng, PLAIN)],
        lambda: ["", ""] + _bench_conllu(rng, PLAIN),  # three
    ]
    odd = [
        lambda: _edited(rng, lambda line: f"# {ODD} comment\n{line}"),
        lambda: _edited(rng, lambda line: f"{comment_row}\n{line}"),
        lambda: _edited(rng, lambda line: f"\t\u3000\n{line}"),  # a line of whitespace: IDs from 2 after it
        lambda: _edited(rng, lambda line: line.rsplit("\t", 1)[0]),  # nine fields
        lambda: _edited(rng, lambda line: line + "\t_"),  # eleven fields
        lambda: [line if line.startswith("#") else line.rsplit("\t", 3)[0] for line in _bench_conllu(rng, ODD)],  # 7
        lambda: _edited(rng, lambda line: _field(line, 6, "1024")),
        lambda: _edited(rng, lambda line: _field(line, 6, "0" + line.split("\t")[6])),  # HEAD 00 or 02
        lambda: _edited(rng, lambda line: _field(line, 0, "0" + line.split("\t")[0])),  # ID 02 or 03
        lambda: _edited(rng, lambda line: _field(line, 0, "01")),  # IDs 1, 1, 3 or 1, 2, 1
        lambda: _out_of_order(rng),
        lambda: _shifted(rng),
        lambda: _bench_conllu(rng, ODD, [2, 0])[:-1] + ["2\todd2\t_\tX\t_\t_\t0"],  # a last line of seven fields
        lambda: _with_multiword_range(rng, _edited(rng, lambda line: line.rsplit("\t", 1)[0])),
        lambda: _with_empty_node(rng, _edited(rng, lambda line: _field(line, 6, "1024"))),
        lambda: _with_multiword_range(rng, _edited(rng, lambda line: f"# {ODD} comment\n{line}")),
        lambda: [f"# {ODD}: comments only", f"# sent_id = {ODD}-c"],
    ]
    sentences = []
    for anomaly in rng.sample(plain + odd, len(plain + odd)):
        sentences += [_bench_conllu(rng, PLAIN) for _ in range(rng.randint(0, 3))]
        sentences.append(anomaly())
    text = "\ufeff" + "".join("\n".join(lines) + "\n\n" for lines in sentences)
    text += "\r\n".join(_bench_conllu(rng, PLAIN) + ["", ""])  # CRLF line ends
    return text + "\n".join(_bench_conllu(rng, ODD))  # no final blank line, and no final LF


def _conllu_outcome(read):
    """``read(rejections)``'s sentences, with their depths, and rejections, and the error it raises, if any."""
    sentences, rejections = [], []
    try:
        for sentence in read(rejections):
            sentences.append((fields(sentence), sentence.depths))
    except DepMetricsError as exc:
        return sentences, rejections, type(exc), str(exc)
    return sentences, rejections, None, None


def _conllu_ranges(data, parts, errors, rejections, **options):
    handle = io.BytesIO(data)
    for k in range(parts):
        yield from iter_byte_range(
            handle, "conllu", k, parts, len(data), name="f", source="f", errors=errors, rejections=rejections, **options
        )


@pytest.mark.parametrize("seed", range(4))
def test_the_conllu_block_reader_gives_the_reference_outcome_and_walks_only_odd_sentences(seed, monkeypatch):
    text = _planted_conllu(seed)
    data = text.encode("utf-8")
    line_branch = treebank._conllu_columns
    walked = []  # the lines that the block reader's line branch reads

    def recorded(lines, *args):
        walked.extend(lines)
        return line_branch(lines, *args)

    monkeypatch.setattr(treebank, "_conllu_columns", recorded)
    for options in ({}, {"drop_punct": True}):
        reference = partial(reference_treebank.iter_conllu, data, source="f", **options)
        want = _conllu_outcome(lambda found: reference(errors="skip", rejections=found))
        want_raised = _conllu_outcome(lambda found: reference())
        assert len(want[0]) > 20 and want[1]  # sentences taken, and sentences rejected
        assert want_raised[2] is not None
        for chunk in (1, 7, 1 << 16):
            monkeypatch.setattr(treebank, "CHUNK_BYTES", chunk)
            for parts in range(1, 5):
                walked.clear()
                assert _conllu_outcome(lambda found: _conllu_ranges(data, parts, "skip", found, **options)) == want
                if chunk == 1 << 16:
                    assert any(ODD in line for line in walked)
                    assert not any(PLAIN in line for line in walked)
                raised = _conllu_outcome(lambda found: _conllu_ranges(data, parts, "raise", None, **options))
                assert raised == want_raised


def _conllu_outcomes(data, options):
    """The outcome of reading ``data`` as two byte ranges in skip mode, and in raise mode."""
    skipped = _conllu_outcome(lambda found: _conllu_ranges(data, 2, "skip", found, **options))
    return skipped, _conllu_outcome(lambda found: _conllu_ranges(data, 2, "raise", None, **options))


@pytest.mark.parametrize("seed", range(4))
def test_the_conllu_line_branch_finishes_every_sentence_as_the_fast_path_does(seed, monkeypatch):
    data = _planted_conllu(seed).encode("utf-8")
    for options in ({}, {"drop_punct": True}):
        want = _conllu_outcomes(data, options)
        assert want[0][1] and want[1][2] is not None  # sentences rejected, and an error raised
        with monkeypatch.context() as patched:
            patched.setattr(treebank, "_TOKEN_IDS", [])  # no block passes the fast path's ID check
            assert _conllu_outcomes(data, options) == want


def test_a_long_open_conllu_block_is_searched_once_for_its_end(monkeypatch):
    monkeypatch.setattr(treebank, "CHUNK_BYTES", 64)
    breaks = treebank._BREAK["conllu"]
    scanned = []  # the characters that each search for a sentence break reads

    class Counted:
        def search(self, text, pos=0):
            scanned.append(len(text) - pos)
            return breaks.search(text, pos)

        def split(self, text):
            scanned.append(len(text))
            return breaks.split(text)

    monkeypatch.setitem(treebank._BREAK, "conllu", Counted())
    rows = "".join(f"{i}\tw\tl\tX\t_\t_\t{i - 1}\t_\t_\t_\n" for i in range(1, 1001))  # ~30 KB, ~470 reads
    sentences = list(iter_parse(rows + "\n" + rows, "conllu"))
    assert [sentence.heads() for sentence in sentences] == [tuple(range(1000))] * 2
    assert sum(scanned) < 4 * len(rows)  # not once more for each piece read


# --- CaboCha ----------------------------------------------------------------


def test_parse_cabocha_single_chunk():
    text = "* 0 -1D 0/0 0.0\nhai\tint,*,*,*,*,*,hai,HAI,HAI\nEOS\n"
    sentences = list(iter_parse(text, "cabocha"))
    assert len(sentences) == 1
    assert sentences[0].heads() == (0,)
    assert sentences[0].root_lemma == "hai"


def test_parse_cabocha_sample_file(data_dir):
    sentences = list(iter_parse((data_dir / "sample.cabocha").read_bytes(), "cabocha", source="sample.cabocha"))
    assert len(sentences) == 3
    first, single, last = sentences
    assert first.heads() == DEMO7_HEADS
    assert first.root_lemma == "hitoda"  # base form of the root chunk's first morpheme
    assert single.heads() == (0,)
    assert last.heads() == (3, 3, 0)
    assert [single.root_lemma, last.root_lemma] == ["hai", "tobu"]


def test_parse_cabocha_demo_structure_metrics(data_dir):
    first = list(iter_parse((data_dir / "sample.cabocha").read_bytes(), "cabocha"))[0]
    assert metric_record(first).mdd == pytest.approx(1.8333, abs=5e-5)


def test_parse_cabocha_missing_eos():
    text = "* 0 -1D\nword\tnoun,*,*,*,*,*,word,W,W\n"
    with pytest.raises(MissingEOS):
        list(iter_parse(text, "cabocha"))
    rejections = []
    assert list(iter_parse(text, "cabocha", errors="skip", rejections=rejections)) == []
    assert len(rejections) == 1


def test_parse_cabocha_malformed_header():
    with pytest.raises(MalformedChunkHeader):
        list(iter_parse("* 0 nohead\nw\tx\nEOS\n", "cabocha"))
    with pytest.raises(MalformedChunkHeader):
        list(iter_parse("* 5 -1D\nw\tx\nEOS\n", "cabocha"))  # index out of sequence


@pytest.mark.parametrize(
    "header",
    ["* +0 1D", "* 0 +1D", "* \uff10 1D", "* 0 \u0661D", "* 0_0 1D", "* 0 0_1D", "* 0 -2D", "* 0 -01D",
     "* -0 1D", "* 0 D"],
    ids=ascii,
)
def test_cabocha_chunk_index_and_head_take_ascii_digits_only(header):
    sentence = "{}\nw\tx\n* 1 -1D\nv\tx\nEOS\n"
    assert list(iter_parse(sentence.format("* 0 1D"), "cabocha"))[0].heads() == (2, 0)
    text = sentence.format(header)
    reason = f"line 1: bad chunk header {header!r}"
    with pytest.raises(MalformedChunkHeader, match=f"^{re.escape(reason)}$"):
        list(iter_parse(text, "cabocha"))
    rejections = []
    assert list(iter_parse(text, "cabocha", errors="skip", rejections=rejections)) == []
    assert [rejection.reason for rejection in rejections] == [reason]


def test_cabocha_header_numbers_with_leading_zeros_or_past_the_decimal_table():
    assert [s.heads() for s in iter_parse("* 00 -1D\nw\tx\nEOS\n", "cabocha")] == [(0,)]
    assert [s.heads() for s in iter_parse("* 0 01D\nw\tx\n* 1 -1D\nv\tx\nEOS\n", "cabocha")] == [(2, 0)]
    for header in ("* 0 -01D", "* 0 1d"):
        reason = f"line 1: bad chunk header {header!r}"
        with pytest.raises(MalformedChunkHeader, match=f"^{re.escape(reason)}$"):
            list(iter_parse(header + "\nw\tx\n* 1 -1D\nv\tx\nEOS\n", "cabocha"))
    n = 1100
    chunks = [f"* {index} {index + 1}D\nw\tx\n" for index in range(n - 1)] + [f"* {n - 1} -1D\nv\tx\n"]
    [sentence] = iter_parse("".join(chunks) + "EOS\n", "cabocha")
    assert sentence.heads() == tuple(range(2, n + 1)) + (0,)
    reason = f"line {2 * n - 1}: chunk index 1100 out of sequence (expected 1099)"
    with pytest.raises(MalformedChunkHeader, match=f"^{re.escape(reason)}$"):
        list(iter_parse("".join(chunks[:-1]) + f"* {n} -1D\nv\tx\nEOS\n", "cabocha"))


def test_parse_cabocha_skip_mode_rejects_only_bad_sentence():
    text = (
        "* 0 nohead\nw\tx\nEOS\n"  # malformed header
        "* 0 -1D\nok\tnoun,*,*,*,*,*,ok,O,O\nEOS\n"
    )
    rejections = []
    sentences = list(iter_parse(text, "cabocha", errors="skip", rejections=rejections))
    assert [s.root_lemma for s in sentences] == ["ok"]
    assert len(rejections) == 1
    assert "chunk header" in rejections[0].reason


def test_cabocha_root_lemma_is_the_first_base_form_of_the_root_chunk():
    root_without_lemma = "* 0 -1D\na\tx,*,*,*,*,*,*\nb\tx,*,*,*,*,*,\nEOS\n"
    assert [s.root_lemma for s in iter_parse(root_without_lemma, "cabocha")] == [None]
    short_features = "* 0 1D\nw\tn,x\n* 1 -1D\nv\tshort\nu\tv,*,*,*,*,*,go\nEOS\n"  # fewer than seven
    [sentence] = iter_parse(short_features, "cabocha")
    assert (sentence.heads(), sentence.root_lemma) == ((2, 0), "go")
    non_root_only = "* 0 1D\nw\tn,*,*,*,*,*,word\n* 1 -1D\nv\tv,*,*,*,*,*,*\nEOS\n"
    assert [s.root_lemma for s in iter_parse(non_root_only, "cabocha")] == [None]


@pytest.mark.parametrize("line_branch", [False, True])
def test_cabocha_splits_only_the_root_chunks_morpheme_lines_up_to_its_lemma(line_branch, data_dir, monkeypatch):
    split = []  # the morpheme lines whose features are split
    base_form = treebank._base_form
    walk = treebank._cabocha_lines
    walked = []  # the blocks read a line at a time

    def recorded_base_form(line):
        split.append(line)
        return base_form(line)

    def recorded_walk(block, line, held):
        walked.append(block)
        return walk(block, line, held)

    monkeypatch.setattr(treebank, "_base_form", recorded_base_form)
    monkeypatch.setattr(treebank, "_cabocha_lines", recorded_walk)
    if line_branch:  # with no head in the table, the fast path reads no block, and the line branch reads them all
        monkeypatch.setattr(treebank, "_CHUNK_HEAD", {})
    text = (data_dir / "sample.cabocha").read_text(encoding="utf-8")
    sentences = list(iter_parse(text, "cabocha"))
    assert [line.split("\t")[0] for line in split] == ["hitoda", "hai", "tobu"]
    assert [s.root_lemma for s in sentences] == ["hitoda", "hai", "tobu"]
    split.clear()
    text = "* 0 1D 0/0 0.0\nw\tn,*,*,*,*,*,w\n* 1 -1D 0/3 0.0\na\tx,*,*,*,*,*,*\nb\tx,*,*,*,*,*,\n"
    text += "c\tv,*,*,*,*,*,go\nd\tv,*,*,*,*,*,went\n* 2 1D 0/0 0.0\ne\tp,*,*,*,*,*,e\nEOS\n"
    [sentence] = iter_parse(text, "cabocha")
    assert [line[0] for line in split] == ["a", "b", "c"]
    assert (sentence.heads(), sentence.root_lemma) == ((2, 0, 2), "go")
    assert any(walked) == line_branch  # the empty text after each range's last EOS is walked either way


def test_parse_cabocha_morpheme_before_header():
    with pytest.raises(MalformedLine):
        list(iter_parse("stray\tnoun\nEOS\n", "cabocha"))


# --- canonical JSONL ---------------------------------------------------------


def test_parse_canonical_trivial():
    line = '{"id":"s1","nodes":[{"index":1,"head":2},{"index":2,"head":0}]}'
    sentences = list(iter_parse(line, "canonical"))
    assert len(sentences) == 1
    assert sentences[0].id == "s1"
    assert sentences[0].heads() == (2, 0)


def test_parse_canonical_multiple_roots_rejected():
    line = '{"id":"bad","nodes":[{"index":1,"head":0},{"index":2,"head":0}]}'
    with pytest.raises(MultipleRoots):
        list(iter_parse(line, "canonical"))


def test_parse_canonical_bad_json_reports_line_number():
    with pytest.raises(MalformedLine, match="line 2"):
        list(iter_parse('{"id":"a","nodes":[{"index":1,"head":0}]}\n{broken\n', "canonical"))


def test_parse_canonical_skips_comments_and_blanks():
    text = '# generated corpus\n\n{"id":"a","nodes":[{"index":1,"head":0}]}\n'
    assert len(list(iter_parse(text, "canonical"))) == 1


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
        list(iter_parse(line, "canonical"))
    rejections = []
    assert list(iter_parse(line, "canonical", errors="skip", rejections=rejections)) == []
    assert len(rejections) == 1


@pytest.mark.parametrize(
    "nodes",
    ["[" * 100_000 + "]" * 100_000, '[{"index": 1, "head": 1' + "0" * 5000 + "}]"],
    ids=["nested-too-deep", "5001-digit-head"],
)
def test_parse_canonical_rejects_json_python_cannot_load(nodes):
    line = '{"id": "s", "nodes": ' + nodes + "}"
    rejections = []
    assert list(iter_parse(line, "canonical", errors="skip", rejections=rejections)) == []
    assert rejections[0].reason.startswith("line 1: invalid JSON: ")


@pytest.mark.parametrize("field", ['"form": 3', '"lemma": [1]', '"lemma": {"a": 1}', '"form": false'])
def test_parse_canonical_requires_text_or_null(field):
    on_root = '{"id": "s", "nodes": [{"index": 1, "head": 0, ' + field + "}]}"
    on_dependent = '{"id": "s", "nodes": [{"index": 1, "head": 0}, {"index": 2, "head": 1, ' + field + "}]}"
    for line in (on_root, on_dependent):  # every node's, though only the root's lemma is kept
        with pytest.raises(MalformedLine, match="'form' and 'lemma' must be strings or null"):
            list(iter_parse(line, "canonical"))


@pytest.mark.parametrize("sent_id", ["null", "5", "true", "[1]", '{"a": 1}'])
def test_parse_canonical_requires_a_string_id(sent_id):
    line = '{"id": ' + sent_id + ', "nodes": [{"index": 1, "head": 0}]}'
    with pytest.raises(MalformedLine, match="^line 1: 'id' must be a string$"):
        list(iter_parse(line, "canonical"))
    rejections = []
    assert list(iter_parse(line, "canonical", errors="skip", rejections=rejections)) == []
    assert [(r.reason, r.sentence_id) for r in rejections] == [("line 1: 'id' must be a string", None)]


@pytest.mark.parametrize("escape", ["\\ud800", "\\udfff", "\\ude00\\ud83d"])  # the last, a pair in the wrong order
@pytest.mark.parametrize("line", [
    '{"id": "aSTR", "nodes": [{"head": 0, "index": 1}]}',
    '{"id": "a", "nodes": [{"head": 0, "index": 1}, {"form": "STR", "head": 1, "index": 2}]}',
    '{"id": "a", "nodes": [{"head": 0, "index": 1, "lemma": "STR"}]}',
])
def test_parse_canonical_refuses_a_lone_surrogate_escape(line, escape):
    rejections = []
    assert list(iter_parse(line.replace("STR", escape), "canonical", errors="skip", rejections=rejections)) == []
    assert [r.reason for r in rejections] == ["line 1: a string holds a lone surrogate, which has no UTF-8 form"]
    assert len(list(iter_parse(line.replace("STR", "\\ud83d\\ude00"), "canonical"))) == 1  # a pair is one character


def test_parse_canonical_keeps_only_the_root_lemma():
    line = '{"id": "s", "nodes": [{"index": 1, "head": 2, "lemma": "x"}, {"index": 2, "head": 0}]}'
    assert [s.root_lemma for s in iter_parse(line, "canonical")] == [None]
    line = line.replace('"head": 0}', '"head": 0, "lemma": "y"}')
    assert [s.root_lemma for s in iter_parse(line, "canonical")] == ["y"]


def test_parse_canonical_accepts_null_text_fields():
    line = '{"id": "s", "nodes": [{"index": 1, "head": 0, "form": null, "lemma": "go"}]}'
    sent = list(iter_parse(line, "canonical"))[0]
    assert sent.nodes[0] == Node(index=1, head=0)
    assert sent.root_lemma == "go"


def test_canonical_round_trip_over_bundled_samples(data_dir):
    originals = list(iter_parse((data_dir / "sample_ud.conllu").read_bytes(), "conllu", errors="skip", rejections=[]))
    originals += list(iter_parse((data_dir / "sample.cabocha").read_bytes(), "cabocha"))
    originals += list(iter_parse((data_dir / "sample_200.jsonl").read_bytes(), "canonical"))
    assert len(originals) == 12 + 3 + 200
    for sent in originals:
        again = list(iter_parse(serialize_canonical(sent), "canonical"))[0]
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
        list(iter_parse('{"id": "", "nodes": []}', "canonical"))


@pytest.mark.parametrize(
    "name, fmt", [("sample.cabocha", "cabocha"), ("sample_ud.conllu", "conllu"), ("noisy.jsonl", "canonical")]
)
def test_every_format_yields_only_sentences_that_validate_tree_returned(data_dir, monkeypatch, name, fmt):
    returned = []
    check = treebank.validate_tree

    def recording(sentence):
        returned.append(check(sentence))
        return returned[-1]

    monkeypatch.setattr(treebank, "validate_tree", recording)
    rejections = []
    with open(data_dir / name, "rb") as handle:
        sentences = list(iter_parse(handle, fmt, errors="skip", rejections=rejections))
    assert returned and sentences
    assert {id(sentence) for sentence in sentences} <= {id(sentence) for sentence in returned}


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
        list(iter_parse(line, "canonical"))


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
    for sent in iter_parse((data_dir / "sample_200.jsonl").read_bytes(), "canonical"):
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


DOCUMENT = {
    "conllu": conllu_block((0,)),
    "cabocha": "* 0 -1D 0/0 0.0\n行く\t動詞,自立,*,*,*,*,行く\nEOS\n",
    "canonical": '{"id": "a", "nodes": [{"index": 1, "head": 0}]}\n',
}


def test_parse_option_the_format_parser_does_not_take_is_a_type_error():
    with pytest.raises(TypeError):
        iter_parse(DOCUMENT["cabocha"], "cabocha", drop_punct=True)  # raised before any line is read
    with pytest.raises(TypeError):
        parse(DOCUMENT["canonical"], "canonical", ordinal=1)
    for fmt in FORMATS:  # where a read starts, and what it hashes, are the byte range's to set
        for option in ("first_line", "ordinal", "digest"):
            with pytest.raises(TypeError):
                iter_parse(DOCUMENT[fmt], fmt, **{option: 1})


class _Unread(io.BytesIO):
    """A binary file that answers the zero-byte read of the type check, and fails on any other read."""

    def read(self, size=-1):
        if size:
            raise AssertionError("a byte was read")
        return b""


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_missing_source_or_drop_punct_for_another_format_is_a_type_error_before_any_byte_is_read(fmt):
    with pytest.raises(TypeError, match="^f: a parser needs a source, the name in its spans and ids$"):
        iter_byte_range(_Unread(), fmt, 0, 1, 0, name="f")
    for drop_punct in (True, False):
        if fmt == "conllu":
            assert list(iter_parse(DOCUMENT[fmt], fmt, drop_punct=drop_punct))
        else:
            with pytest.raises(TypeError, match=f"^f: drop_punct is an option of CoNLL-U only, not of {fmt}$"):
                iter_byte_range(_Unread(), fmt, 0, 1, 0, name="f", source="f", drop_punct=drop_punct)


class _Untouchable:
    """An input that fails on any use: nothing may be read from it, or asked of it."""

    def __getattr__(self, name):
        raise AssertionError(f"the input was used ({name})")

    def __iter__(self):
        raise AssertionError("the input was iterated")


@pytest.mark.parametrize("fmt", FORMATS)
def test_skip_mode_without_a_rejections_list_is_refused_before_any_line_is_read(fmt):
    with pytest.raises(ValueError, match="needs a rejections list"):
        next(iter_parse(_Untouchable(), fmt, errors="skip"))
    for k in (0, 1):
        with pytest.raises(ValueError, match="needs a rejections list"):
            iter_byte_range(_Untouchable(), fmt, k, 2, 100, name="f", errors="skip")
    with pytest.raises(ValueError, match=r"^need 0 <= k < parts, got k=2, parts=2$"):
        iter_byte_range(_Untouchable(), fmt, 2, 2, 100, name="f")
    with pytest.raises(ValueError, match=r"^errors must be 'raise' or 'skip', got 'ignore'$"):
        iter_byte_range(_Untouchable(), fmt, 0, 2, 100, name="f", errors="ignore", rejections=[])
    assert list(iter_parse("", fmt, errors="skip", rejections=[])) == []  # skip mode with a list
    assert list(iter_parse("", fmt)) == []  # raise mode needs none


class _UntouchedLines(list):
    """Lines already split, which fail if anything reads them."""

    def __iter__(self):
        raise AssertionError("the lines were iterated")

    def __len__(self):
        raise AssertionError("the lines were measured")

    def __getitem__(self, index):
        raise AssertionError("a line was read")


@pytest.mark.parametrize("fmt", FORMATS)
def test_lines_already_split_are_a_type_error_before_any_is_read(fmt):
    lines = _UntouchedLines(DOCUMENT[fmt].split("\n"))
    message = f"^<{fmt}>: a parser reads a str, bytes or a binary file, not _UntouchedLines$"
    with pytest.raises(TypeError, match=message):
        iter_parse(lines, fmt)
    with pytest.raises(TypeError, match="not list$"):
        parse(DOCUMENT[fmt].split("\n"), fmt, errors="skip", rejections=[])
    with pytest.raises(TypeError, match="not list$"):
        ValencyLexicon.from_tsv(["go\t1"])



# --- line breaks ------------------------------------------------------------------

# Characters that str.splitlines treats as line breaks but the formats do not.
NON_LF_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NON_LF_BREAKS)
def test_conllu_lemma_may_hold_a_non_lf_line_break(char):
    sentence = list(iter_parse(conllu_block((0,), lemma=f"a{char}b"), "conllu"))[0]
    assert sentence.root_lemma == f"a{char}b"


def test_cabocha_surface_may_hold_a_next_line_character():
    text = "* 0 -1D 0/0 0.0\nx\x85y\tnoun,*,*,*,*,*,x\x85y\nEOS\n"
    [sentence] = iter_parse(text, "cabocha")
    assert sentence.root_lemma == "x\x85y"
    assert sentence.source == "<cabocha>:1-3"


def test_canonical_line_with_raw_line_separator_in_a_string_is_one_sentence():
    line = '{"id": "a\u2028b", "nodes": [{"index": 1, "head": 0, "lemma": "x\u2028y"}]}\n'
    rejections = []
    sentences = list(iter_parse(line, "canonical", errors="skip", rejections=rejections))
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


class _RecordingReader:
    """A ``codecs`` UTF-8 reader, which gives ``str``, that records the size of each ``read`` call."""

    def __init__(self, data):
        self.reader = codecs.getreader("utf-8")(io.BytesIO(data))
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return self.reader.read(size)

    def __getattr__(self, name):
        return getattr(self.reader, name)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_reader_that_gives_str_is_refused_at_the_call_by_one_zero_byte_read(fmt):
    data = (DOCUMENTS[fmt] * 50).encode()
    message = "a parser reads a file opened in binary mode \\('rb'\\), not in text mode$"
    reader = _RecordingReader(data)
    with pytest.raises(TypeError, match=f"^<{fmt}>: {message}"):
        iter_parse(reader, fmt)
    assert reader.sizes == [0]
    for k in (0, 1):
        reader, rejections = _RecordingReader(data), []
        with pytest.raises(TypeError, match=f"^f: {message}"):
            iter_byte_range(reader, fmt, k, 2, len(data), name="f", errors="skip", rejections=rejections)
        assert reader.sizes == [0] and rejections == []
    reader = _RecordingReader("行く\t2\n".encode())
    with pytest.raises(TypeError, match=f"^<lexicon>: {message}"):
        ValencyLexicon.from_tsv(reader)
    assert reader.sizes == [0]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_pipe_is_read_from_its_first_byte(fmt):
    data = codecs.BOM_UTF8 + DOCUMENTS[fmt].encode()  # a BOM is dropped at byte 0 only
    read_fd, write_fd = os.pipe()
    with open(write_fd, "wb") as writer:
        writer.write(data)
    expected_rejections, rejections = [], []
    expected = parse(data, fmt, errors="skip", rejections=expected_rejections)
    with open(read_fd, "rb") as pipe:
        sentences = list(iter_parse(pipe, fmt, errors="skip", rejections=rejections))
    assert fields(sentences) == fields(expected)
    assert [s.source for s in sentences] == [s.source for s in expected]
    assert rejections == expected_rejections and len(expected) == len(rejections) == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_str_with_a_lone_surrogate_is_invalid_encoding(fmt):
    with pytest.raises(InvalidEncoding, match="byte 2 is not UTF-8"):
        parse("ab\ud800\n", fmt, errors="skip", rejections=[])
    # canonical lines: one in the writer's form, read without the JSON decoder, and one with an escape
    for line, byte in (
        ('{"id": "a\ud800", "nodes": [{"head": 0, "index": 1}]}', 9),
        ('{"id": "a\\"\ud800", "nodes": [{"head": 0, "index": 1}]}', 11),
    ):
        with pytest.raises(InvalidEncoding, match=f"^<{fmt}>: byte {byte} is not UTF-8 "):
            parse(line, fmt)
