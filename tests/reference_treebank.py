"""Reference CaboCha reader and canonical writer: the versions the one-pass reader and the direct writer replaced.

``iter_cabocha`` walks every line looking for ``EOS``; ``_cabocha_sentence``
then walks the sentence's lines again to read its chunks, and a lemma for
every chunk, and takes the root's from that list. The property tests
require the CaboCha parser of ``treebank`` to yield the same sentences and
record (or raise) the same rejections as this reader, on every form that
its fast path reads or hands to its line branch.

``iter_conllu`` reads every CoNLL-U ID and HEAD by the rule that
``treebank``'s decimal lookup tables stand in for: a run of ASCII digits
that ``int()`` reads. With ``drop_punct`` it removes the PUNCT tokens after
the other checks, and refuses a sentence in which one of them has a
dependent or no token is left. The property tests require the CoNLL-U
parser of ``treebank`` to yield the same sentences and record (or raise)
the same rejections for any spelling of the numbers, and on every form
that its fast path reads or hands to its line branch.

Both read a ``str`` or bytes, split into lines by ``split_lines`` at once,
not by the chunked reader of ``treebank``. They check no error mode, and
apply it to each bad sentence with their own ``_reject``, not ``treebank``'s code.

``lemma_columns`` reads every position's head, lemma and UPOS in each of the
three formats, with no checks, so that a test can look up the lemma at the
position whose head is 0.

``serialize_canonical`` builds one dict per node and renders the sentence
with ``json.dumps``; the property tests require ``treebank.serialize_canonical``
to return the same string.

``canonical_sentence`` reads every canonical line with ``json.loads``, as
the reader did before it read the writer's own lines without the decoder.
The property tests and ``scripts/cross_version_check.py`` require
``treebank._canonical_sentence`` to give the same sentence, or the same
rejection, on lines from the writer and on the ``CANONICAL_MUTATIONS`` of
them (:func:`canonical_outcome`). It predates the refusal of a lone
surrogate escape, so lines compared with it hold none.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Iterator

from depmetrics.errors import InvalidTree, MalformedChunkHeader, MalformedLine, MissingEOS
from depmetrics.treebank import Rejection, Sentence, validate_tree

REJECTABLE = (MalformedLine, MalformedChunkHeader, MissingEOS, InvalidTree)


def _reject(exc: Exception, errors: str, rejections: list[Rejection] | None, span: str, sentence_id) -> None:
    """Apply the error mode to one bad sentence: raise ``exc``, or record it in the skip mode's list."""
    if errors == "raise":
        raise exc
    rejections.append(Rejection(span, str(exc), sentence_id))


def split_lines(stream: str | bytes) -> list[str]:
    """The lines of a text, or of its UTF-8 bytes, all at once: one BOM at the start is dropped, and
    the text is split at each LF, with one CR before it dropped."""
    text = (stream.encode("utf-8", "surrogatepass") if isinstance(stream, str) else stream).decode("utf-8")
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the text ended with a line break, or is empty
    return lines


def iter_cabocha(
    stream: str | bytes,
    *,
    source: str = "<cabocha>",
    errors: str = "raise",
    rejections: list[Rejection] | None = None,
) -> Iterator[Sentence]:
    lines = split_lines(stream)
    ordinal = 0
    start: int | None = None  # index of the pending sentence's first non-blank line
    for i, raw in enumerate(lines):
        if not raw or raw.isspace():
            continue
        if raw.startswith("EOS") and raw.rstrip() == "EOS":
            if start is None:
                continue  # bare EOS, nothing to parse
            ordinal += 1
            span = f"{source}:{start + 1}-{i + 1}"
            sent_id = f"{source}#{ordinal}"
            try:
                sentence = _cabocha_sentence(lines[start:i], start + 1, sent_id, span)
            except REJECTABLE as exc:
                _reject(exc, errors, rejections, span, sent_id)
            else:
                yield sentence
            start = None
        elif start is None:
            start = i

    if start is not None:
        exc = MissingEOS(f"{source}: stream ended inside a sentence (missing EOS)")
        _reject(exc, errors, rejections, f"{source}:{start + 1}-{len(lines)}", None)


def _cabocha_sentence(lines: list[str], first_lineno: int, sent_id: str, span: str) -> Sentence:
    heads: list[int] = []
    lemmas: list[str | None] = []
    for lineno, raw in enumerate(lines, first_lineno):
        if raw.startswith("* "):
            parts = raw.split()
            if len(parts) < 3 or not parts[2].endswith("D"):
                raise MalformedChunkHeader(f"line {lineno}: bad chunk header {raw!r}")
            if not (re.fullmatch("[0-9]+", parts[1]) and re.fullmatch("-1|[0-9]+", parts[2][:-1])):
                raise MalformedChunkHeader(f"line {lineno}: bad chunk header {raw!r}")
            try:
                index = int(parts[1])
                head = int(parts[2][:-1])
            except ValueError:  # past int()'s digit limit
                raise MalformedChunkHeader(f"line {lineno}: bad chunk header {raw!r}") from None
            if index != len(heads):
                raise MalformedChunkHeader(
                    f"line {lineno}: chunk index {index} out of sequence (expected {len(heads)})"
                )
            heads.append(0 if head == -1 else head + 1)
            lemmas.append(None)
        elif not raw or raw.isspace():
            continue
        else:
            if not heads:
                raise MalformedLine(f"line {lineno}: morpheme line before any chunk header")
            _, _, feature_str = raw.partition("\t")
            if lemmas[-1] is None and feature_str:
                features = feature_str.split(",", 7)
                if len(features) > 6 and features[6] not in ("*", ""):
                    lemmas[-1] = features[6]
    root_lemma = lemmas[heads.index(0)] if 0 in heads else None
    return validate_tree(Sentence(sent_id, tuple(heads), root_lemma, span))


def iter_conllu(
    stream: str | bytes,
    *,
    source: str = "<conllu>",
    errors: str = "raise",
    rejections: list[Rejection] | None = None,
    drop_punct: bool = False,
) -> Iterator[Sentence]:
    lines = split_lines(stream)
    ordinal = 0
    start: int | None = None  # index of the pending block's first line
    for i, line in enumerate([*lines, ""]):  # a blank line ends the last block
        if line and not line.isspace():
            if start is None:
                start = i
            continue
        if start is None:
            continue
        block, first_lineno, start = lines[start:i], start + 1, None
        comments = [row for row in block if row[0] == "#"]
        if len(comments) == len(block):
            continue  # a comment-only block: not a sentence
        ordinal += 1
        span = f"{source}:{first_lineno}-{i}"
        sent_id = f"{source}#{ordinal}"
        for comment in comments:
            key, _, value = comment[1:].partition("=")
            if key.strip() == "sent_id" and value.strip():
                sent_id = value.strip()
        try:
            sentence = _conllu_sentence(block, first_lineno, sent_id, span, drop_punct)
        except REJECTABLE as exc:
            _reject(exc, errors, rejections, span, sent_id)
        else:
            yield sentence


def _conllu_sentence(lines: list[str], first_lineno: int, sent_id: str, span: str, drop_punct: bool) -> Sentence:
    ids: list[int] = []
    heads: list[int] = []
    lemmas: list[str] = []
    punct: list[int] = []  # the IDs of the PUNCT tokens
    for lineno, line in enumerate(lines, first_lineno):
        if line[0] == "#":
            continue
        fields = line.split("\t", 7)
        if len(fields) < 8:
            raise MalformedLine(f"line {lineno}: expected >= 8 tab-separated fields, got {len(fields)}")
        raw_id, _, lemma, upos, _, _, raw_head, _ = fields
        if "-" in raw_id or "." in raw_id:
            continue  # multiword-token range / empty node
        for what, raw in (("ID", raw_id), ("HEAD", raw_head)):
            try:
                if not (raw.isascii() and raw.isdigit()):
                    raise ValueError
                value = int(raw)
            except ValueError:  # also past int()'s digit limit
                raise MalformedLine(f"line {lineno}: non-integer {what} {raw!r}") from None
            (ids if what == "ID" else heads).append(value)
        lemmas.append(lemma)
        if upos == "PUNCT":
            punct.append(len(heads))
    if not heads:
        raise InvalidTree(f"{sent_id}: sentence block has no token lines")
    if ids != list(range(1, len(ids) + 1)):
        raise InvalidTree(f"{sent_id}: token IDs are not consecutive from 1")
    if drop_punct and punct:
        for head in heads:
            if head in punct:
                raise InvalidTree(f"{sent_id}: dropped punctuation node {head} has dependents")
        kept = [index for index in range(1, len(heads) + 1) if index not in punct]
        if not kept:
            raise InvalidTree(f"{sent_id}: no nodes left after dropping punctuation")
        renumbered = {index: new for new, index in enumerate(kept, 1)}
        heads = [renumbered.get(heads[index - 1], heads[index - 1]) for index in kept]  # 0 and out of range stay
        lemmas = [lemmas[index - 1] for index in kept]
    roots = [lemma for head, lemma in zip(heads, lemmas) if not head]
    root_lemma = None if not roots or roots[-1] == "_" else roots[-1]  # the last line's, if several
    return validate_tree(Sentence(sent_id, tuple(heads), root_lemma, span))


def lemma_columns(text: str, fmt: str, source: str = "f") -> dict[str, tuple[list[int], list, list]]:
    """Each sentence's head, lemma and UPOS columns, by the id the parser gives it.

    The text is split at LF only and read whole, with no checks: a head is
    whatever ``int`` reads, and a CoNLL-U sentence needs a ``sent_id``
    comment. The lemma is the one the format gives: ``_`` stands for none in
    CoNLL-U, and in CaboCha it is the chunk's first base form that is not
    ``*`` or empty. Only CoNLL-U has UPOS.
    """
    columns: dict[str, tuple[list[int], list, list]] = {}
    if fmt == "canonical":
        for line in text.split("\n"):
            if line.strip() and not line.strip().startswith("#"):
                obj = json.loads(line)
                nodes = obj["nodes"]
                columns[obj["id"]] = ([n["head"] for n in nodes], [n.get("lemma") for n in nodes], [])
        return columns
    if fmt == "conllu":
        blocks: list[list[str]] = [[]]
        for row in text.split("\n"):  # a line that is empty or holds only whitespace ends a block
            if row.strip():
                blocks[-1].append(row)
            elif blocks[-1]:
                blocks.append([])
        for rows in blocks:
            ids = [row[len("# sent_id = ") :] for row in rows if row.startswith("# sent_id = ")]
            tokens = [row.split("\t") for row in rows if row and not row.startswith("#")]
            tokens = [fields for fields in tokens if "-" not in fields[0] and "." not in fields[0]]
            if ids:
                columns[ids[-1]] = (
                    [int(fields[6]) for fields in tokens],
                    [None if fields[2] == "_" else fields[2] for fields in tokens],
                    [fields[3] for fields in tokens],
                )
        return columns
    ordinal = 0
    heads: list[int] = []
    lemmas: list = []
    for line in text.split("\n"):
        if line == "EOS":
            ordinal += 1
            columns[f"{source}#{ordinal}"] = (heads, lemmas, [])
            heads, lemmas = [], []
        elif line.startswith("* "):
            head = int(line.split()[2][:-1])
            heads.append(0 if head == -1 else head + 1)
            lemmas.append(None)
        elif heads and lemmas[-1] is None:
            features = line.partition("\t")[2].split(",")
            if len(features) > 6 and features[6] not in ("*", ""):
                lemmas[-1] = features[6]
    return columns


def serialize_canonical(sentence: Sentence) -> str:
    nodes = []
    root = None  # the first node whose head is 0
    for index, head in enumerate(sentence.head_vector, 1):
        entry: dict[str, object] = {"index": index, "head": head}
        if head == 0 and root is None:
            root = entry
        nodes.append(entry)
    if sentence.root_lemma is not None:
        if root is None:
            raise ValueError(f"{sentence.id!r}: a root lemma, but no node has head 0")
        root["lemma"] = sentence.root_lemma
    line = json.dumps({"id": sentence.id, "nodes": nodes}, ensure_ascii=False, sort_keys=True)
    return line if line.isascii() else line.translate(UNESCAPED_BREAKS)


UNESCAPED_BREAKS = {ord(char): f"\\u{ord(char):04x}" for char in "\x85\u2028\u2029"}


def canonical_sentence(line: str, lineno: int, span: str) -> Sentence:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"line {lineno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise MalformedLine(f"line {lineno}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "id" not in obj or "nodes" not in obj:
        raise MalformedLine(f"line {lineno}: expected an object with 'id' and 'nodes'")
    if not isinstance(obj["nodes"], list):
        raise MalformedLine(f"line {lineno}: 'nodes' must be a list")
    sent_id = obj["id"]
    if type(sent_id) is not str:
        raise MalformedLine(f"line {lineno}: 'id' must be a string")
    indices: list[int] = []
    heads: list[int] = []
    root_lemma: str | None = None
    for entry in obj["nodes"]:
        if not isinstance(entry, dict):
            raise MalformedLine(f"line {lineno}: node entries must be objects")
        index = entry.get("index")
        head = entry.get("head")
        # type(...) is int also rules out bool, which json gives for true/false
        if type(index) is not int or type(head) is not int:
            raise MalformedLine(f"line {lineno}: node needs integer 'index' and 'head'")
        form = entry.get("form")
        lemma = entry.get("lemma")
        if not (form is None or type(form) is str) or not (lemma is None or type(lemma) is str):
            raise MalformedLine(f"line {lineno}: node 'form' and 'lemma' must be strings or null")
        indices.append(index)
        heads.append(head)
        if not head:
            root_lemma = lemma
    n = len(heads)
    if indices != list(range(1, n + 1)):
        raise InvalidTree(f"{sent_id}: node indices are not consecutive from 1 (got {indices})")
    return validate_tree(Sentence(sent_id, tuple(heads), root_lemma, span))


def canonical_outcome(read: Callable[[str, int, str], Sentence], line: str) -> tuple[object, ...]:
    """What ``read`` makes of ``line`` as line 7 of ``f``: the sentence's fields and depths, or the
    rejection's type and message."""
    try:
        sentence = read(line, 7, "f:7")
    except REJECTABLE as exc:
        return type(exc), str(exc)
    return sentence.id, sentence.head_vector, sentence.root_lemma, sentence.source, sentence.depths


def _at(pattern: str, replace: Callable[[re.Match], str]) -> Callable[[str, int], str]:
    """A mutation that replaces the k-th match of ``pattern`` (k modulo their number) by ``replace(match)``;
    a line with no match stays as it is."""
    def mutate(line: str, k: int) -> str:
        matches = list(re.finditer(pattern, line))
        if not matches:
            return line
        match = matches[k % len(matches)]
        return line[: match.start()] + replace(match) + line[match.end() :]

    return mutate


def _in_id(text: str) -> Callable[[str, int], str]:
    """A mutation that puts ``text`` at the start of the id."""
    return lambda line, k: line.replace('{"id": "', '{"id": "' + text, 1)


# Edits of a written line, each (line, k) -> line, where k picks the place. Each gives a line that
# serialize_canonical does not write, though json may read it as the same sentence, another
# sentence, or no sentence; or, as a raw é or DEL in the id or an id that is a key name, one that
# it does write.
CANONICAL_MUTATIONS: dict[str, Callable[[str, int], str]] = {
    "a space added": _at(r"[:,] ", lambda m: m[0] + " "),
    "a space dropped": _at(r"[:,] ", lambda m: m[0][0]),
    "head and index swapped": _at(r'"head": (-?\d+), "index": (\d+)', lambda m: f'"index": {m[2]}, "head": {m[1]}'),
    "a form added": _at(r'\{"head"', lambda m: '{"form": "w", "head"'),
    "a lemma added": _at(r'\}', lambda m: ', "lemma": "x"}'),
    "an escaped quote in the id": _in_id('\\"'),
    "an escaped backslash in the id": _in_id("\\\\"),
    "an escaped e-acute in the id": _in_id("\\u00e9"),
    "a raw e-acute in the id": _in_id("\u00e9"),
    "a raw U+2028 in the id": _in_id("\u2028"),
    "a raw U+0085 in the id": _in_id("\x85"),
    "a raw DEL in the id": _in_id("\x7f"),
    "a control character in the id": lambda line, k: _in_id(chr(k % 32))(line, k),
    "a leading zero": _at(r'"head": (\d+)', lambda m: f'"head": 0{m[1]}'),
    "a minus sign": _at(r'"head": (\d+)', lambda m: f'"head": -{m[1]}'),
    "a float": _at(r'"head": (\d+)', lambda m: f'"head": {m[1]}.0'),
    "true for a head": _at(r'"head": (\d+)', lambda m: '"head": true'),
    "an index off by one": _at(r'"index": (\d+)', lambda m: f'"index": {int(m[1]) + 1}'),
    "a duplicate key": _at(r'\{"head": (\d+)', lambda m: '{"head": 1, ' + m[0][1:]),
    "a key after the nodes": lambda line, k: line[:-1] + ', "x": 1}' if line.endswith("}") else line,
    "a number for the id": lambda line, k: re.sub(r'^\{"id": "[^"\\]*"', '{"id": 1', line),
    "truncated": lambda line, k: line[: k % max(len(line), 1)],
    "a head key renamed": _at(r'"head"', lambda m: '"heads"'),
    "an index key renamed": _at(r'"index"', lambda m: '"indexx"'),
    "a node's brace dropped": _at(r'\d\}', lambda m: m[0][0]),
    "a node's brace doubled": _at(r'\d\}', lambda m: m[0] + "}"),
    "text after the nodes": lambda line, k: line + ("}", "]}", "x", " 1")[k % 4],
    "a space before a head's comma": _at(r'"head": (\d+),', lambda m: f'"head": {m[1]} ,'),
    "a key name for the id": lambda line, k: re.sub(r'^\{"id": "[^"\\]*"', '{"id": "%s"' % ("head", "index")[k % 2],
                                                    line),
}
