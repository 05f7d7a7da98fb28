"""Dependency-tree data model and corpus ingestion.

Three input formats are supported:

* CoNLL-U (tab-separated, ``#`` comments, blank-line sentence breaks),
* CaboCha lattice output (``* IDX HEADD ...`` chunk headers, ``EOS``),
* a toolkit-native "canonical" JSONL format, one sentence object per line.

Every sentence is checked for tree well-formedness (exactly one root,
acyclic, fully connected) before it is returned. Parsers either raise on the
first bad sentence (``errors="raise"``, the default) or skip it and record a
:class:`Rejection` in the ``rejections`` list that skip mode requires
(``errors="skip"``), which is what the CLI uses so that a noisy corpus does
not abort a run and every bad sentence is counted.

A sentence keeps what the measures read: its head vector and its root's
lemma, which the valency lexicon looks up. Every other lemma and the
surface text (CoNLL-U FORM, the CaboCha morpheme surfaces, a canonical
``form``) are read past, not kept.

Each format has one generator (``iter_conllu``, ``iter_cabocha``,
``iter_canonical``, dispatched by ``iter_parse``) that yields the sentences
one at a time, so a caller can fold a corpus without holding it;
:func:`parse` returns the same sentences as a list. Lines end in LF
or CRLF; no other character breaks a line. Every input, a ``str`` as its
UTF-8 bytes, is read, decoded and split ``CHUNK_BYTES`` at a time, and
:func:`iter_byte_range` parses one of several byte ranges of a file, so
that processes can share a file without any of them decoding all of it.
"""

from __future__ import annotations

import codecs
import io
import json
import re
from functools import cache
from itertools import chain
from json.encoder import encode_basestring
from operator import add, eq
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import (
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

FORMATS = ("canonical", "cabocha", "conllu")

#: What a parser reads: a str, bytes, a binary file, or lines already split off.
Text = Union[BinaryIO, str, bytes, Iterable[str]]


class Node(NamedTuple):
    """One token/segment. ``head`` is the 1-based index of its governor; 0 marks the root."""

    index: int
    head: int


class Sentence:
    """A sentence as a head vector: ``head_vector[i - 1]`` governs position i, 0 marks the root.

    ``root_lemma`` is the root's lemma, or None when the input gives none;
    the valency lexicon looks it up. No other lemma and no surface text is
    kept: no measure reads them. ``source`` is a provenance tag (file and line range).
    ``depths`` holds each position's hierarchical distance once
    :func:`validate_tree` has accepted the sentence. A sentence is not
    changed once built: :func:`validate_tree` returns a new one. It compares
    and hashes by identity; the constructor checks nothing.
    """

    __slots__ = ("id", "head_vector", "root_lemma", "source", "depths")

    def __init__(
        self,
        id: str,
        head_vector: tuple[int, ...],
        root_lemma: str | None = None,
        source: str = "",
        depths: tuple[int, ...] | None = None,
    ) -> None:
        self.id = id
        self.head_vector = head_vector
        self.root_lemma = root_lemma
        self.source = source
        self.depths = depths

    def __len__(self) -> int:
        return len(self.head_vector)

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The positions as :class:`Node` objects, built on each access."""
        return tuple(map(Node, range(1, len(self.head_vector) + 1), self.head_vector))

    def heads(self) -> tuple[int, ...]:
        return self.head_vector

    @classmethod
    def from_heads(
        cls,
        heads: Sequence[int],
        id: str = "",
        root_lemma: str | None = None,
        source: str = "",
    ) -> "Sentence":
        """Build a sentence from int heads (not validated as a tree; a bool raises a TypeError) and its root's lemma."""
        heads = tuple(heads)
        _check_int_heads(heads, id)
        return cls(id, heads, root_lemma, source)


def _check_int_heads(heads: Sequence[object], id: str) -> None:
    for position, head in enumerate(heads, 1):
        if type(head) is not int:
            raise TypeError(f"{id!r}: the head at position {position} is {head!r}, not an int")


class Rejection(NamedTuple):
    """Why a sentence was dropped during ingestion."""

    source: str
    reason: str
    sentence_id: str | None = None


class ValencyLexicon:
    """Mapping from predicate lemma to valency class, an ``int`` 1..4 (not a ``bool`` or a ``float``)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, int]) -> None:
        entries = dict(entries)  # a copy, so a later change to the caller's mapping skips no check
        for lemma, cls in entries.items():
            if type(cls) is not int:  # a bool or a float would reach the tables as True or 2.0
                raise TypeError(f"valency class for {lemma!r} must be an int, got {type(cls).__name__}")
            if cls not in (1, 2, 3, 4):
                raise ValueError(f"valency class for {lemma!r} must be 1..4, got {cls}")
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, lemma: str | None) -> int | None:
        if lemma is None:
            return None
        return self.entries.get(lemma)

    @classmethod
    def from_tsv(cls, stream: Text, source: str = "<lexicon>") -> "ValencyLexicon":
        """Load a two-column TSV (lemma, valency class). '#' lines are comments."""
        entries: dict[str, int] = {}
        first_lines: dict[str, int] = {}  # lemma -> the line that gave its class
        for lineno, raw in enumerate(_text_lines(stream, source), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise MalformedLine(f"{source}:{lineno}: expected 2 tab-separated fields")
            try:
                valency = _ascii_int(fields[1])
            except ValueError:
                raise MalformedLine(f"{source}:{lineno}: non-integer valency {fields[1]!r}") from None
            if valency not in (1, 2, 3, 4):
                raise MalformedLine(f"{source}:{lineno}: valency must be 1..4, got {valency}")
            lemma = fields[0]
            if entries.setdefault(lemma, valency) != valency:
                raise MalformedLine(
                    f"{source}:{lineno}: lemma {lemma!r} has valency {valency} here"
                    f" but {entries[lemma]} at line {first_lines[lemma]}"
                )
            first_lines.setdefault(lemma, lineno)
        return cls(entries=entries)


_ON_CHAIN = -2  # depth marker for a node on the head chain being walked


def tree_depths(heads: Sequence[int], id: str = "", source: str = "") -> tuple[int, ...]:
    """Check that ``heads`` forms one rooted tree and return every node's depth.

    The checks run in a fixed order, and the first failure raises: no nodes,
    root count, then per node a self-loop or an out-of-range head, then a
    cycle. Depth is the number of head links up to the root (root 0), in
    position order. ``source`` labels the empty-sentence error when ``id`` is
    empty. One O(n) walk does both jobs: it follows each head chain until it
    reaches a node of known depth, and meeting a node of the current chain
    again is a cycle.
    """
    n = len(heads)
    if not n:
        raise InvalidTree(f"{id or source}: sentence has no nodes")
    roots = heads.count(0)
    if not roots:
        raise NoRoot(f"{id}: no node has head 0")
    if roots > 1:
        positions = [i for i, head in enumerate(heads, 1) if head == 0]
        raise MultipleRoots(f"{id}: multiple roots at positions {positions}")
    if min(heads) < 0 or max(heads) > n or any(map(eq, heads, range(1, n + 1))):
        for i, head in enumerate(heads, 1):
            if head == i:
                raise SelfLoop(f"{id}: node {i} heads itself")
            if not 0 <= head <= n:
                raise InvalidTree(f"{id}: node {i} head {head} out of range 1..{n}")
    depth: list[int | None] = [None] * (n + 1)
    depth[0] = -1  # the root's virtual governor
    for start, head in enumerate(heads, 1):
        if depth[start] is not None:
            continue
        d = depth[head]
        if d is not None:  # the governor is settled: no walk needed
            depth[start] = d + 1
            continue
        depth[start] = _ON_CHAIN
        chain = [start]
        v = head
        while depth[v] is None:
            depth[v] = _ON_CHAIN
            chain.append(v)
            v = heads[v - 1]
        d = depth[v]
        if d == _ON_CHAIN:
            raise CycleDetected(f"{id}: cycle through node {v}")
        for u in reversed(chain):
            d += 1
            depth[u] = d
    del depth[0]
    return tuple(depth)  # type: ignore[arg-type]


def validate_tree(sentence: Sentence) -> Sentence:
    """Check single root, acyclicity and connectivity; attach the node depths.

    Returns the sentence with ``depths`` set, or raises the typed error of
    :func:`tree_depths`. Every accepted sentence of n nodes therefore carries
    exactly n - 1 dependencies.
    """
    heads = sentence.head_vector
    depths = tree_depths(heads, sentence.id, sentence.source)
    return Sentence(sentence.id, heads, sentence.root_lemma, sentence.source, depths)


def serialize_canonical(sentence: Sentence) -> str:
    """Render one canonical-JSONL line; :func:`iter_canonical` inverts it.

    Each node has ``head`` and ``index``, and the first node whose head is 0
    also ``lemma`` when the sentence has a root lemma (a ``ValueError`` if no
    node has head 0); no ``form`` is written, since a sentence keeps none.
    Writes the text of ``json.dumps(obj, ensure_ascii=False, sort_keys=True)``
    without building ``obj`` (sorted keys, default separators, json's string
    encoder), except that U+0085, U+2028 and U+2029, which json leaves raw,
    are written as ``\\u0085``, ``\\u2028`` and ``\\u2029``.

    A node's text is two precomputed pieces, ``{"head": H`` and
    ``, "index": I}``, for H and I up to 1023 (:func:`_node_pieces`). A
    vector with a negative head or a head or an index past them is formatted
    by an f-string, and a head that is no int raises a ``TypeError``. A
    ``bool`` head of a sentence built by ``Sentence(...)`` is not checked.
    """
    heads = sentence.head_vector
    head_text, index_text = _node_pieces()
    try:
        if min(heads) < 0 or len(heads) >= _DECIMAL_TABLE:  # a negative list index would wrap
            raise IndexError
        nodes = list(map(add, map(head_text.__getitem__, heads), index_text[1:len(heads) + 1]))
    except (ValueError, IndexError, TypeError):  # ValueError: min() of no heads
        _check_int_heads(heads, sentence.id)
        nodes = [f'{{"head": {head}, "index": {index}}}' for index, head in enumerate(heads, 1)]
    if sentence.root_lemma is not None:
        if 0 not in heads:
            raise ValueError(f"{sentence.id!r}: a root lemma, but no node has head 0")
        root = heads.index(0)
        nodes[root] = f'{{"head": 0, "index": {root + 1}, "lemma": {encode_basestring(sentence.root_lemma)}}}'
    line = f'{{"id": {encode_basestring(sentence.id)}, "nodes": [{", ".join(nodes)}]}}'
    return line if line.isascii() else line.translate(_UNESCAPED_BREAKS)


@cache
def _node_pieces() -> tuple[list[str], list[str]]:
    """The head and index pieces of a canonical node's text, by number: built on first use."""
    numbers = range(_DECIMAL_TABLE)
    return [f'{{"head": {value}' for value in numbers], [f', "index": {value}}}' for value in numbers]


# Line breaks to ``str.splitlines`` that json's string encoder leaves raw;
# escaped, a line stays one line for readers that split on them too.
_UNESCAPED_BREAKS = {ord(char): f"\\u{ord(char):04x}" for char in "\x85\u2028\u2029"}


# --- shared parser plumbing ----------------------------------------------


CHUNK_BYTES = 1 << 16  # bytes read, decoded and split at a time


def _text_lines(stream: Text, source: str = "<input>") -> Iterator[str]:
    """The lines of a text, split on LF only; one CR before each LF is dropped.

    ``str.splitlines`` would also break a line at U+0085, U+2028, U+2029,
    VT, FF and FS/GS/RS, which may stand inside a field. A ``str`` goes to
    :func:`_read_lines` as its UTF-8 bytes, like bytes and binary files: a
    BOM at its start is dropped, and a lone surrogate raises InvalidEncoding.
    A text-mode file, which would also break lines at a lone CR, is refused
    (another reader that gives ``str``, by :func:`_decoded_pieces` at its
    first read); any other iterable is taken to hold the lines already.
    """
    if isinstance(stream, str):
        stream = stream.encode("utf-8", "surrogatepass")
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    if isinstance(stream, io.TextIOBase):
        raise _text_mode_error(source)
    if hasattr(stream, "read"):
        return _read_lines(stream, source)  # type: ignore[arg-type]
    return iter(stream)


def _text_mode_error(name: str) -> TypeError:
    return TypeError(f"{name}: a parser reads a file opened in binary mode ('rb'), not in text mode")


def _split(text: str) -> list[str]:
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text ended with a line break, or is empty
    return lines


def _read_lines(
    handle: BinaryIO,
    name: str,
    offset: int = 0,
    stop: int | None = None,
    digest: Any = None,
) -> Iterator[str]:
    """The lines of a binary file from where ``handle`` stands, which is byte ``offset``, up to byte ``stop``.

    Without ``stop`` the file is read to its end. Each read of
    ``CHUNK_BYTES`` is cut after its last LF, which never falls inside a
    UTF-8 character, so each piece decodes on its own. A BOM is dropped at
    byte 0 only. A byte that is not UTF-8 raises :class:`InvalidEncoding`
    with ``name`` and the byte's offset in the file. ``digest`` (a hashlib
    object), if given, is updated with every byte read.
    """
    return chain.from_iterable(map(_split, _decoded_pieces(handle, name, offset, stop, digest)))


def _decoded_pieces(
    handle: BinaryIO, name: str, offset: int, stop: int | None, digest: Any
) -> Iterator[str]:
    rest = b""  # read after the last LF so far
    position = offset  # of the next byte to read
    while True:
        size = CHUNK_BYTES if stop is None else min(CHUNK_BYTES, stop - position)
        data = handle.read(size) if size > 0 else b""
        if isinstance(data, str):
            raise _text_mode_error(name)
        if data:
            position += len(data)
            if digest is not None:
                digest.update(data)
            data = rest + data
            cut = data.rfind(b"\n") + 1
            if not cut:
                rest = data
                continue
            data, rest = data[:cut], data[cut:]
        elif rest:
            data, rest = rest, b""
        else:
            return
        if offset == 0 and data.startswith(codecs.BOM_UTF8):
            data = data[len(codecs.BOM_UTF8) :]
            offset = len(codecs.BOM_UTF8)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidEncoding(
                f"{name}: byte {offset + exc.start} is not UTF-8 ({exc.reason})"
            ) from None
        offset += len(data)
        yield text


# One character of a blank line other than LF, in UTF-8: whatever str.isspace() accepts.
_SPACE = (
    rb"(?:[\t\x0b\x0c\r\x1c-\x1f ]|\xc2[\x85\xa0]|\xe1\x9a\x80"
    rb"|\xe2\x80[\x80-\x8a\xa8\xa9\xaf]|\xe2\x81\x9f|\xe3\x80\x80)"
)
_END_OF_LINE = rb"(?:\n|\Z)"
# An LF and the line after it, if no sentence is open at the end of that
# line, so that a byte range may begin there: a blank line in CoNLL-U, EOS
# in CaboCha. In canonical JSONL a range may begin at any line.
_SENTENCE_BREAK = {
    "conllu": re.compile(rb"\n%s*\n" % _SPACE),
    "cabocha": re.compile(rb"\nEOS%s*\n" % _SPACE),
    "canonical": re.compile(rb"\n"),
}
# One match per sentence in bytes that begin after a sentence break, once
# the prefix is put before them: in CoNLL-U a block with a line that is no
# comment, in CaboCha the EOS line (or blank lines) before a sentence's
# first line. Canonical ids do not count sentences.
_SENTENCE_START = {
    "conllu": (
        b"\n\n",
        re.compile(rb"\n%s*\n(?:#[^\n]*\n)*(?!%s*%s)[^#\n]" % (_SPACE, _SPACE, _END_OF_LINE)),
    ),
    "cabocha": (
        b"\nEOS\n",
        re.compile(
            rb"\nEOS%s*\n(?:%s*\n)*(?!%s*%s|EOS%s*%s)"
            % (_SPACE, _SPACE, _SPACE, _END_OF_LINE, _SPACE, _END_OF_LINE)
        ),
    ),
}


def iter_byte_range(
    handle: BinaryIO,
    fmt: str,
    k: int,
    parts: int,
    size: int,
    *,
    name: str,
    digest: Any = None,
    **options: Any,
) -> Iterator[Sentence]:
    """:func:`iter_parse` over the k-th of ``parts`` byte ranges of a binary file of ``size`` bytes.

    A range ends, and the next one begins, at the first line start from byte
    (k + 1) * size // parts on at which no sentence is open: after a blank
    line in CoNLL-U, after an EOS line in CaboCha, at any line in canonical
    JSONL. The ranges 0..parts-1 therefore hold each sentence exactly once, and
    each range is read, decoded and split on its own (``name`` and
    ``digest`` as for :func:`_read_lines`). The lines and sentences before
    the range are counted in its bytes, not decoded, so that the line
    numbers, ids and spans are those of the whole file. The only range of
    one part is read to its end from where ``handle`` stands, with no seek:
    a pipe streams through.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if not 0 <= k < parts:
        raise ValueError(f"need 0 <= k < parts, got k={k}, parts={parts}")
    _check_error_mode(options.get("errors", "raise"), options.get("rejections"))  # before any read
    lo = _sentence_break(handle, fmt, k * size // parts, name)
    hi = None if k == parts - 1 else _sentence_break(handle, fmt, (k + 1) * size // parts, name)
    lines_before, sentences_before = _count_before(handle, fmt, lo, name)
    if fmt in _SENTENCE_START:  # canonical ids come from the file, not from a count
        options["ordinal"] = sentences_before
    if parts > 1:  # finding the breaks moved the handle; a lone range never seeks, so a pipe streams
        handle.seek(lo)
    return iter_parse(
        _read_lines(handle, name, lo, hi, digest), fmt, first_line=lines_before + 1, **options
    )


def _sentence_break(handle: BinaryIO, fmt: str, position: int, name: str) -> int:
    """The first offset at or after ``position`` where a byte range may begin.

    That is 0, the end of the file, or the first line start from
    ``position`` on at which no sentence is open: the end of a blank line in
    CoNLL-U or of an EOS line in CaboCha that begins at or after
    ``position``, any line start in canonical JSONL. A line that a read cuts
    is searched again with the next read. A read that gives ``str`` is
    refused as from a text-mode file, named ``name``.
    """
    if not position:
        return 0
    base = position - 1  # file offset of buffer[0]
    handle.seek(base)
    buffer = b""
    while True:
        data = handle.read(CHUNK_BYTES)
        if isinstance(data, str):
            raise _text_mode_error(name)
        if not data:
            return base + len(buffer)
        buffer += data
        match = _SENTENCE_BREAK[fmt].search(buffer)
        if match:
            return base + match.end()
        cut = max(buffer.rfind(b"\n"), 0)
        base += cut
        buffer = buffer[cut:]


def _count_before(handle: BinaryIO, fmt: str, end: int, name: str) -> tuple[int, int]:
    """The lines and the sentences in bytes [0, end) of a file, where ``end`` is a sentence break.

    The bytes are read ``CHUNK_BYTES`` at a time, each piece cut at a
    sentence break, and counted by ``bytes.count`` and a regex: no piece is
    decoded and no line takes a Python step.
    """
    lines = sentences = 0
    start = 0
    while start < end:
        stop = min(_sentence_break(handle, fmt, start + CHUNK_BYTES, name), end)
        handle.seek(start)
        data = handle.read(stop - start)
        lines += data.count(b"\n")
        if fmt in _SENTENCE_START:
            if not start and data.startswith(codecs.BOM_UTF8):
                data = data[len(codecs.BOM_UTF8) :]
            before, pattern = _SENTENCE_START[fmt]
            sentences += len(pattern.findall(before + data))
        start = stop
    return lines, sentences


_REJECTABLE = (MalformedLine, MalformedChunkHeader, MissingEOS, InvalidTree)


def _reject(
    exc: Exception,
    errors: str,
    rejections: list[Rejection] | None,
    source: str,
    sentence_id: str | None,
) -> None:
    """Apply the error policy to one bad sentence: re-raise, or record it in the list skip mode has."""
    if errors == "raise":
        raise exc
    rejections.append(Rejection(source=source, reason=str(exc), sentence_id=sentence_id))


def _check_error_mode(errors: str, rejections: list[Rejection] | None) -> None:
    """Refuse an unknown mode, and skip mode without a list: a skipped sentence is always counted."""
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    if errors == "skip" and rejections is None:
        raise ValueError("errors='skip' needs a rejections list to record the skipped sentences in")


# Almost every ID, HEAD and chunk number is a short decimal text, read by
# one lookup; any other text is read by _ascii_int, the rule the lookup stands in for.
_DECIMAL_TABLE = 1 << 10
_DECIMAL = {str(value): value for value in range(_DECIMAL_TABLE)}
# A CaboCha head field to its head-vector value: -1D is the root (0), kD is chunk k, at position k + 1.
_CHUNK_HEAD = {"-1D": 0, **{f"{value}D": value + 1 for value in range(_DECIMAL_TABLE)}}


def _ascii_int(text: str) -> int:
    """A run of ASCII digits as an int; any other text, or one past int()'s digit limit, raises ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a run of ASCII digits: {text!r}")
    return int(text)


# --- CoNLL-U --------------------------------------------------------------


def iter_conllu(
    stream: Text,
    *,
    drop_punct: bool = False,
    source: str = "<conllu>",
    errors: str = "raise",
    rejections: list[Rejection] | None = None,
    first_line: int = 1,
    ordinal: int = 0,
) -> Iterator[Sentence]:
    """Yield the validated sentences of CoNLL-U text.

    Multiword-token ranges (ID with '-') and empty nodes (ID with '.') are
    skipped; the remaining token IDs must already run 1..n, otherwise the
    sentence is rejected. Only ID, LEMMA and HEAD (and UPOS when
    ``drop_punct`` is set) are consumed; FORM, DEPREL and the enhanced
    dependencies are ignored.

    With ``drop_punct``, nodes whose UPOS is PUNCT are removed and the rest
    renumbered; a sentence where a dropped node had dependents is rejected.

    ``first_line`` is the number of the first line read and ``ordinal`` the
    number of sentences before it, for a stream that starts inside a file.
    :func:`iter_cabocha` takes both; :func:`iter_canonical` takes only
    ``first_line``, since its ids come from the file.
    """
    _check_error_mode(errors, rejections)
    block: list[str] = []
    first_lineno = first_line  # of the current block
    # a blank line ends the last block
    for lineno, line in enumerate(chain(_text_lines(stream, source), ("",)), first_line):
        if line and not line.isspace():
            if not block:
                first_lineno = lineno
            block.append(line)
            continue
        if not block:
            continue
        comments = [row for row in block if row[0] == "#"]
        if len(comments) == len(block):
            block = []
            continue  # a comment-only block: not a sentence
        ordinal += 1
        span = f"{source}:{first_lineno}-{lineno - 1}"
        sent_id = f"{source}#{ordinal}"
        for comment in comments:
            key, _, value = comment[1:].partition("=")
            if key.strip() == "sent_id" and value.strip():
                sent_id = value.strip()
        try:
            sentence = _conllu_sentence(block, first_lineno, sent_id, span, drop_punct)
        except _REJECTABLE as exc:
            _reject(exc, errors, rejections, span, sent_id)
        else:
            yield sentence
        block = []


def _conllu_sentence(
    lines: list[str], first_lineno: int, sent_id: str, span: str, drop_punct: bool
) -> Sentence:
    ids: list[int] = []
    heads: list[int] = []
    upos: list[str] = []  # filled only to drop punctuation
    root_lemma: str | None = None
    for lineno, line in enumerate(lines, first_lineno):
        if line[0] == "#":
            continue
        fields = line.split("\t", 7)
        if len(fields) < 8:
            raise MalformedLine(f"line {lineno}: expected >= 8 tab-separated fields, got {len(fields)}")
        raw_id, _, lemma, tag, _, _, raw_head, _ = fields
        index = _DECIMAL.get(raw_id)
        if index is None:
            if "-" in raw_id or "." in raw_id:
                continue  # multiword-token range / empty node
            index = _number(raw_id, "ID", lineno)
        ids.append(index)
        head = _DECIMAL.get(raw_head)
        if head is None:
            head = _number(raw_head, "HEAD", lineno)
        heads.append(head)
        if drop_punct:
            upos.append(tag)
        if not head and not (drop_punct and tag == "PUNCT"):  # a dropped node is no root
            root_lemma = None if lemma == "_" else lemma
    if not heads:
        raise InvalidTree(f"{sent_id}: sentence block has no token lines")
    if ids != list(range(1, len(ids) + 1)):
        raise InvalidTree(f"{sent_id}: token IDs are not consecutive from 1")
    if drop_punct:
        heads = _drop_punct(heads, upos, sent_id)
    return validate_tree(Sentence(sent_id, tuple(heads), root_lemma, span))


def _number(raw: str, what: str, lineno: int) -> int:
    """A decimal field that :data:`_DECIMAL` lacks, read by :func:`_ascii_int`."""
    try:
        return _ascii_int(raw)
    except ValueError:
        raise MalformedLine(f"line {lineno}: non-integer {what} {raw!r}") from None


def _drop_punct(heads: list[int], upos: list[str], sent_id: str) -> list[int]:
    dropped = {index for index, tag in enumerate(upos, 1) if tag == "PUNCT"}
    if not dropped:
        return heads
    for head in heads:
        if head in dropped:
            raise InvalidTree(f"{sent_id}: dropped punctuation node {head} has dependents")
    kept = [index for index in range(1, len(heads) + 1) if index not in dropped]
    if not kept:
        raise InvalidTree(f"{sent_id}: no nodes left after dropping punctuation")
    remap = {0: 0}
    for new_index, index in enumerate(kept, 1):
        remap[index] = new_index
    # an out-of-range head keeps its value, so validation reports it
    return [remap.get(heads[i - 1], heads[i - 1]) for i in kept]


# --- CaboCha lattice -------------------------------------------------------


def iter_cabocha(
    stream: Text,
    *,
    source: str = "<cabocha>",
    errors: str = "raise",
    rejections: list[Rejection] | None = None,
    first_line: int = 1,
    ordinal: int = 0,
) -> Iterator[Sentence]:
    """Yield the sentences of CaboCha lattice output; each bunsetsu chunk becomes one node.

    Chunk headers look like ``* 3 5D 0/1 1.23``; the second field is the
    0-based chunk index, the third the head chunk index suffixed with 'D'
    (-1D marks the root). The sentence keeps only the root chunk's lemma:
    the first base form (seventh feature, unless ``*`` or empty) its
    morpheme lines carry. No surface is read, and no morpheme line is split
    but the root chunk's, up to the first that gives its lemma.
    ``EOS`` ends a sentence; a stream that ends mid-sentence is rejected
    with :class:`MissingEOS`.

    One walk reads every line once. A sentence's first fault is kept and
    reported at its ``EOS``, so a sentence is never cut short.
    """
    _check_error_mode(errors, rejections)
    start: int | None = None  # number of the pending sentence's first line
    heads: list[int] = []  # one entry per chunk header so far
    root_lemma: str | None = None
    seeking_lemma = False  # the current chunk is a root, and the root lemma is still missing
    fault: Exception | None = None  # the pending sentence's first error
    lineno = first_line - 1
    for lineno, raw in enumerate(_text_lines(stream, source), first_line):
        if raw.startswith("* "):  # chunk header
            if start is None:
                start = lineno
            if fault is not None:
                continue
            parts = raw.split(None, 3)  # the fields after the head are not read
            index = _DECIMAL.get(parts[1]) if len(parts) > 2 else None
            head = None if index is None else _CHUNK_HEAD.get(parts[2])
            if head is None:  # a header the tables lack: the checks that they stand in for
                try:
                    if len(parts) < 3 or not parts[2].endswith("D"):
                        raise ValueError
                    index = _ascii_int(parts[1])
                    head = 0 if parts[2] == "-1D" else _ascii_int(parts[2][:-1]) + 1
                except ValueError:
                    fault = MalformedChunkHeader(f"line {lineno}: bad chunk header {raw!r}")
                    continue
            if index != len(heads):
                fault = MalformedChunkHeader(
                    f"line {lineno}: chunk index {index} out of sequence (expected {len(heads)})"
                )
                continue
            heads.append(head)
            seeking_lemma = not head and root_lemma is None
        elif not raw or raw.isspace():
            continue
        elif raw.startswith("EOS") and raw.rstrip() == "EOS":
            if start is None:
                continue  # bare EOS, nothing to parse
            ordinal += 1
            span = f"{source}:{start}-{lineno}"
            sent_id = f"{source}#{ordinal}"
            if fault is None:
                head_vector = tuple(heads)
                try:
                    depths = tree_depths(head_vector, sent_id, span)
                except InvalidTree as exc:
                    fault = exc
            if fault is None:
                yield Sentence(sent_id, head_vector, root_lemma, span, depths)
            else:
                _reject(fault, errors, rejections, span, sent_id)
            start, heads, root_lemma, seeking_lemma, fault = None, [], None, False, None
        else:  # morpheme line: SURFACE<TAB>FEATURES
            if start is None:
                start = lineno
            if fault is not None:
                continue
            if not heads:
                fault = MalformedLine(f"line {lineno}: morpheme line before any chunk header")
                continue
            if seeking_lemma:
                fields = raw.partition("\t")[2].split(",", 7)
                if len(fields) > 6 and fields[6] not in ("*", ""):
                    root_lemma = fields[6]
                    seeking_lemma = False

    if start is not None:
        exc = MissingEOS(f"{source}: stream ended inside a sentence (missing EOS)")
        _reject(exc, errors, rejections, f"{source}:{start}-{lineno}", None)


# --- canonical JSONL -------------------------------------------------------


def iter_canonical(
    stream: Text,
    *,
    source: str = "<canonical>",
    errors: str = "raise",
    rejections: list[Rejection] | None = None,
    first_line: int = 1,
) -> Iterator[Sentence]:
    """Yield the sentences of the toolkit's JSONL format: one sentence object per line.

    Each line is ``{"id": str, "nodes": [{"index": int, "head": int,
    "form"?: str | null, "lemma"?: str | null}, ...]}``. ``index`` and
    ``head`` must be JSON integers (not floats or booleans), the indices must
    run 1..n in order, and a line that breaks either rule is rejected. Every
    node's ``form`` and ``lemma`` is checked to be a string or null; the
    sentence keeps only the lemma of the node whose head is 0.
    Blank lines and lines starting with '#' (used for run metadata by the
    generator) are skipped.
    """
    _check_error_mode(errors, rejections)
    for lineno, raw in enumerate(_text_lines(stream, source), first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        span = f"{source}:{lineno}"
        try:
            sentence = _canonical_sentence(line, lineno, span)
        except _REJECTABLE as exc:
            _reject(exc, errors, rejections, span, None)
        else:
            yield sentence


def _canonical_sentence(line: str, lineno: int, span: str) -> Sentence:
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


# --- dispatch --------------------------------------------------------------

_PARSERS = {
    "conllu": iter_conllu,
    "cabocha": iter_cabocha,
    "canonical": iter_canonical,
}


def parse(stream: Text, fmt: str, **options: Any) -> list[Sentence]:
    """:func:`iter_parse` as a list."""
    return list(iter_parse(stream, fmt, **options))


def iter_parse(stream: Text, fmt: str, **options: Any) -> Iterator[Sentence]:
    """Iterate over the sentences of ``stream`` in the named format ('conllu', 'cabocha', 'canonical').

    The options go to the format's parser (:func:`iter_conllu`,
    :func:`iter_cabocha` or :func:`iter_canonical`) as they are: one that
    parser does not take, such as ``drop_punct`` outside CoNLL-U or
    ``ordinal`` for canonical JSONL, raises ``TypeError``. Both that and an
    unknown format (``ValueError``) are raised at once, before any line is read.
    """
    if fmt not in _PARSERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _PARSERS[fmt](stream, **options)
