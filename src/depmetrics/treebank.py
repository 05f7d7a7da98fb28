"""Dependency-tree data model and corpus ingestion.

Three input formats are supported:

* CoNLL-U (tab-separated, ``#`` comments, blank-line sentence breaks),
* CaboCha lattice output (``* IDX HEADD ...`` chunk headers, ``EOS``),
* a toolkit-native "canonical" JSONL format, one sentence object per line.

Every sentence of every format goes through :func:`validate_tree`, the one
check of a head vector (exactly one root, acyclic, fully connected), before
it is returned. Parsers either raise on the first bad sentence
(``errors="raise"``, the default) or skip it and record a :class:`Rejection`
in the ``rejections`` list that skip mode requires (``errors="skip"``),
which is what the CLI uses so that a noisy corpus does not abort a run and
every bad sentence is counted. The mode is settled once per byte range,
not at each bad sentence.

A sentence keeps what the measures read: its head vector and its root's
lemma, which the valency lexicon looks up. Every other lemma and the
surface text (CoNLL-U FORM, the CaboCha morpheme surfaces, a canonical
``form``) are read past, not kept.

An input is a ``str``, bytes or a binary file. :func:`iter_byte_range` is
the one place where it is read: it reads and decodes the bytes (a ``str``'s
UTF-8 bytes) ``CHUNK_BYTES`` at a time, whole or as one of several byte
ranges, so that processes can share a file without any of them decoding all
of it. It splits them into lines for the canonical reader. CoNLL-U and
CaboCha are cut into sentence blocks at every sentence break, a blank line
or an ``EOS`` line, and each format has one block reader: a fast path that
takes a block by a few splits, and a line branch that reads any other
block a line at a time, in place; both CoNLL-U branches end in one tail
that validates the sentence. A reader that gives ``str`` is refused
when the parser is called, by one zero-byte read, before anything is read.
Lines end in LF or CRLF; no other character breaks a line.
:func:`iter_parse` yields the sentences of a whole input one at a time, so a
caller can fold a corpus without holding it; :func:`parse` returns them as a list.
"""

from __future__ import annotations

import codecs
import io
import json
import re
from functools import cache
from itertools import chain, compress
from json.encoder import encode_basestring
from operator import add, eq
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

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
MAX_VALENCY_CLASS = 4

#: What a parser reads: a str, bytes or a binary file.
Text = Union[BinaryIO, str, bytes]


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
            if not 1 <= cls <= MAX_VALENCY_CLASS:
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
        for lineno, raw in enumerate(_read_lines(_binary(stream, source), source), 1):
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
            if not 1 <= valency <= MAX_VALENCY_CLASS:
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


def validate_tree(sentence: Sentence) -> Sentence:
    """Check that the head vector forms one rooted tree; return the sentence with its node depths.

    The checks run in a fixed order, and the first failure raises its typed
    :class:`InvalidTree`: no nodes, root count, then per node a self-loop or
    an out-of-range head, then a cycle. ``source`` labels the empty-sentence
    error when the id is empty. Depth is the number of head links up to the
    root (root 0), in position order, so every accepted sentence of n nodes
    carries exactly n - 1 dependencies. One O(n) walk does both jobs: it
    follows each head chain until it reaches a node of known depth, and
    meeting a node of the current chain again is a cycle.
    """
    id, heads = sentence.id, sentence.head_vector
    n = len(heads)
    if not n:
        raise InvalidTree(f"{id or sentence.source}: sentence has no nodes")
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
    return Sentence(id, heads, sentence.root_lemma, sentence.source, tuple(depth))  # type: ignore[arg-type]


def serialize_canonical(sentence: Sentence) -> str:
    """Render one canonical-JSONL line; :func:`parse` of it in the ``canonical`` format inverts it.

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


def _binary(stream: Text, name: str) -> BinaryIO:
    """``stream`` as a binary file; a ``str`` is its UTF-8 bytes, a lone surrogate kept to fail the decode.

    An object with no ``read`` is a TypeError. So is a reader that gives ``str``, such as a
    text-mode file (it would break lines at a lone CR too) or a ``codecs`` reader, found by one
    ``read(0)``: it consumes nothing, so a pipe still streams from its first byte.
    """
    if isinstance(stream, str):
        stream = stream.encode("utf-8", "surrogatepass")
    if isinstance(stream, bytes):
        return io.BytesIO(stream)
    if not hasattr(stream, "read"):
        raise TypeError(f"{name}: a parser reads a str, bytes or a binary file, not {type(stream).__name__}")
    if not isinstance(stream.read(0), bytes):
        raise TypeError(f"{name}: a parser reads a file opened in binary mode ('rb'), not in text mode")
    return stream


def _split(text: str) -> list[str]:
    """Split at LF only: str.splitlines also breaks at U+0085, U+2028, VT, FF and more, which may stand in a field.
    Every piece of :func:`_decoded_pieces` ends in an LF, the end of its last line."""
    return text[:-1].split("\n")


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
    """The decoded text that :func:`_read_lines` splits, in pieces that each end after an LF, CRLF folded to
    LF: a last line with no LF gets one after the fold, so that a CR that ends it stays."""
    rest = b""  # read after the last LF so far
    position = offset  # of the next byte to read
    while True:
        size = CHUNK_BYTES if stop is None else min(CHUNK_BYTES, stop - position)
        data = handle.read(size) if size > 0 else b""
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
        text = text.replace("\r\n", "\n") if "\r" in text else text
        yield text if text.endswith("\n") else text + "\n"  # only the last piece may lack it


# One character of a blank line other than LF, in UTF-8: whatever str.isspace() accepts.
_SPACE = (
    rb"(?:[\t\x0b\x0c\r\x1c-\x1f ]|\xc2[\x85\xa0]|\xe1\x9a\x80"
    rb"|\xe2\x80[\x80-\x8a\xa8\xa9\xaf]|\xe2\x81\x9f|\xe3\x80\x80)"
)
_END_OF_LINE = rb"(?:\n|\Z)"
# A sentence break in decoded CoNLL-U and CaboCha: an LF and the line after
# it that ends a sentence, blank or EOS, with any trailing whitespace
# ([^\S\n] is what _SPACE is in UTF-8). The LF that ends that line is left
# to start the next block, so that two breaks in a row are both found.
_BREAK = {
    "conllu": re.compile(r"\n[^\S\n]*(?=\n)"),
    "cabocha": re.compile(r"\nEOS[^\S\n]*(?=\n)"),
}
# The same break in bytes, and its line's LF, so that a byte range may begin
# after it; a property test requires both to find the same breaks, and this
# and _SENTENCE_START to count the sentences the text cut gives. In canonical
# JSONL a range may begin at any line.
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
    handle: Text,
    fmt: str,
    k: int,
    parts: int,
    size: int,
    *,
    name: str,
    source: str | None = None,
    digest: Any = None,
    errors: str = "raise",
    rejections: list[Rejection] | None = None,
    drop_punct: bool | None = None,
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
    a pipe streams through. ``handle`` may also be a str or bytes (:func:`_binary`),
    looked at only once the format, the range and the error mode are checked;
    a reader that gives ``str`` is refused then, by one zero-byte read, before any byte is read.
    The canonical line reader gets the range's lines; CoNLL-U and CaboCha are
    cut into sentence blocks by :func:`_sentence_blocks`, and each block is
    read by its format's block reader. The error mode becomes the one ``reject``
    callable that the reader calls with each bad sentence. ``source``, the name
    in spans and ids, is required, and ``drop_punct`` is taken by CoNLL-U only:
    a missing ``source``, or a ``drop_punct`` for another format, is a
    TypeError, raised once the handle is checked, before any byte is read.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if not 0 <= k < parts:
        raise ValueError(f"need 0 <= k < parts, got k={k}, parts={parts}")
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    if errors == "skip" and rejections is None:  # a skipped sentence is always counted
        raise ValueError("errors='skip' needs a rejections list to record the skipped sentences in")
    handle = _binary(handle, name)
    if source is None:
        raise TypeError(f"{name}: a parser needs a source, the name in its spans and ids")
    if drop_punct is not None and fmt != "conllu":
        raise TypeError(f"{name}: drop_punct is an option of CoNLL-U only, not of {fmt}")
    lo = _sentence_break(handle, fmt, k * size // parts)
    hi = None if k == parts - 1 else _sentence_break(handle, fmt, (k + 1) * size // parts)
    lines_before, sentences_before = _count_before(handle, fmt, lo)
    if parts > 1:  # finding the breaks moved the handle; a lone range never seeks, so a pipe streams
        handle.seek(lo)
    if errors == "raise":
        def reject(exc: Exception, span: str, sentence_id: str | None) -> None:
            raise exc
    else:
        def reject(exc: Exception, span: str, sentence_id: str | None) -> None:
            rejections.append(Rejection(span, str(exc), sentence_id))
    if fmt == "canonical":
        lines = _read_lines(handle, name, lo, hi, digest)
        return _canonical(lines, lines_before + 1, source=source, reject=reject)
    # held: the walk of a long open CaboCha sentence's first lines (_sentence_blocks)
    options = {"source": source, "reject": reject, "drop_punct": bool(drop_punct), "held": None}
    pieces = _decoded_pieces(handle, name, lo, hi, digest)
    return _sentence_blocks(pieces, lines_before + 1, sentences_before, fmt, options)


def _sentence_break(handle: BinaryIO, fmt: str, position: int) -> int:
    """The first offset at or after ``position`` where a byte range may begin.

    That is 0, the end of the file, or the first line start from
    ``position`` on at which no sentence is open: the end of a blank line in
    CoNLL-U or of an EOS line in CaboCha that begins at or after
    ``position``, any line start in canonical JSONL. A line that a read cuts
    is searched again with the next read. The handle reads bytes:
    :func:`_binary` has refused one that gives ``str``.
    """
    if not position:
        return 0
    base = position - 1  # file offset of buffer[0]
    handle.seek(base)
    buffer = b""
    while True:
        data = handle.read(CHUNK_BYTES)
        if not data:
            return base + len(buffer)
        buffer += data
        match = _SENTENCE_BREAK[fmt].search(buffer)
        if match:
            return base + match.end()
        cut = max(buffer.rfind(b"\n"), 0)
        base += cut
        buffer = buffer[cut:]


def _count_before(handle: BinaryIO, fmt: str, end: int) -> tuple[int, int]:
    """The lines and the sentences in bytes [0, end) of a file, where ``end`` is a sentence break.

    The bytes are read ``CHUNK_BYTES`` at a time, each piece cut at a
    sentence break, and counted by ``bytes.count`` and a regex: no piece is
    decoded and no line takes a Python step.
    """
    lines = sentences = 0
    start = 0
    while start < end:
        stop = min(_sentence_break(handle, fmt, start + CHUNK_BYTES), end)
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
_REJECTED = object()  # what a block reader returns for a sentence it has rejected


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


def _sentence_blocks(
    pieces: Iterator[str], line: int, ordinal: int, fmt: str, options: dict[str, Any]
) -> Iterator[Sentence]:
    """The sentences of decoded CoNLL-U or CaboCha, from line ``line`` on, cut at every sentence break (:data:`_BREAK`).

    A block holds its ``n`` lines, each after an LF. The format's reader
    reads it as ``read(block, line, n, ordinal + 1, options)``: the sentence,
    :data:`_REJECTED` once rejected, or None for no sentence. The lines
    after the last break are read with ``ended`` set: the range's end ends
    them. ``options`` is one dict, since unpacking it at each of the 9,000
    blocks of the CaboCha bench corpus cost about 3 ms. An open block is
    held whole, each piece searched from its last LF on, except that a
    CaboCha sentence open past ``CHUNK_BYTES`` is walked
    (:func:`_cabocha_lines`) and only the walk is held, as ``options["held"]``.
    """
    breaks = _BREAK[fmt]
    read = _BLOCK_READERS[fmt]
    fold = fmt == "cabocha"
    text = "\n"  # the open block: the LF before its first line, and its lines so far
    for piece in pieces:
        mark = len(text) - 1  # the open block's last LF: no new break starts before it
        text += piece
        if mark > CHUNK_BYTES and not breaks.search(text, mark):
            continue  # a long block, still open
        *blocks, text = breaks.split(text)
        for block in blocks:
            n = block.count("\n")
            sentence = read(block, line, n, ordinal + 1, options)
            if sentence is not None:
                ordinal += 1
                if sentence is not _REJECTED:
                    yield sentence
            line += n + 1  # past the block and its break's line
        if fold and len(text) > CHUNK_BYTES:
            options["held"] = _cabocha_lines(text, line, options["held"])
            line += text.count("\n") - 1
            text = "\n"
    block = text[:-1]  # the lines after the last break, up to the range's end
    if (sentence := read(block, line, block.count("\n"), ordinal + 1, options, True)) not in (None, _REJECTED):
        yield sentence


# --- CoNLL-U --------------------------------------------------------------


# The ID fields of a sentence's token lines as _conllu_block splits them: an LF, then 1 to 1023 in order.
_TOKEN_IDS = ["\n" + text for text in list(_DECIMAL)[1:]]


def _conllu_block(
    block: str, line: int, n: int, number: int, options: dict[str, Any], ended: bool = False
) -> Sentence | object | None:
    """Sentence ``number`` of CoNLL-U: the ``n`` lines of ``block``, from line ``line`` on.

    Multiword-token ranges (ID with '-') and empty nodes (ID with '.') are
    skipped; the other IDs must run 1..n, or the sentence is rejected. Only
    ID, HEAD, LEMMA and UPOS are read; with ``drop_punct``, PUNCT nodes are
    then removed and the rest renumbered, and a sentence where one had
    dependents is rejected. The last ``sent_id`` of its ``#`` comments
    names the sentence; a block of comments only is none (None). The
    range's end (``ended``) ends a sentence as a blank line does.

    The fast path reads the leading comments, then splits the token lines
    once at tabs, each LF after a tab. When every w-th of the fields is an
    LF and the next ID, 1 to n, every line has exactly w fields: ten, or any
    other number from eight on, which the line branch reads alike. Ranges
    and empty nodes are deleted by slice. Any other block (too few or unequal
    fields, a comment among the token lines, other IDs, a HEAD that
    :data:`_DECIMAL` lacks) is read a line at a time by :func:`_conllu_columns`.
    Both hand HEAD, LEMMA and UPOS to one tail: it drops PUNCT, takes the
    root's lemma, validates the tree and rejects a sentence that fails.
    """
    if not n:
        return None  # two breaks in a row
    source = options["source"]
    span = f"{source}:{line}-{line + n - 1}"
    sent_id = f"{source}#{number}"
    at = 0  # the LF before the first token line
    while block.startswith("\n#", at) and (lf := block.find("\n", at + 1)) > 0:
        key, _, value = block[at + 2 : lf].partition("=")
        if key.strip() == "sent_id" and value.strip():
            sent_id = value.strip()
        at, n = lf, n - 1
    fields = block[at:].replace("\n", "\t\n").split("\t")
    width, rest = divmod(len(fields) - 1, n)  # the fields of each line, if all have as many
    try:
        try:  # a KeyError sends the block to the line branch
            if rest or width < 8:
                raise KeyError
            ids = fields[1::width]
            if ids != _TOKEN_IDS[:n]:
                joined = "".join(ids)
                if joined.count("\n") != n or "\n#" in joined:
                    raise KeyError  # lines with unequal numbers of fields, or a comment among the token lines
                for i in reversed([i for i, raw in enumerate(ids) if "-" in raw or "." in raw]):
                    del fields[width * i + 1 : width * (i + 1) + 1]
                n = len(fields) // width
                if not n or fields[1::width] != _TOKEN_IDS[:n]:
                    raise KeyError
            heads = (*map(_DECIMAL.__getitem__, fields[7::width]),)  # a tuple display: built at its exact size
            lemmas, tags = fields[3::width], fields[4::width]
        except KeyError:
            rows = block[1:].split("\n")
            comments = [row for row in rows if row[0] == "#"]
            if len(comments) == len(rows):
                return None  # a comment-only block: not a sentence
            for comment in comments:  # the leading ones again, and any after them
                key, _, value = comment[1:].partition("=")
                if key.strip() == "sent_id" and value.strip():
                    sent_id = value.strip()
            heads, lemmas, tags = _conllu_columns(rows, line, sent_id)
        if options["drop_punct"] and "PUNCT" in tags:
            heads = tuple(_drop_punct(heads, tags, sent_id))
            lemmas = list(compress(lemmas, map("PUNCT".__ne__, tags)))
        root_lemma = lemmas[heads.index(0)] if 0 in heads else None  # an accepted sentence has one root
        return validate_tree(Sentence(sent_id, heads, None if root_lemma == "_" else root_lemma, span))
    except _REJECTABLE as exc:
        options["reject"](exc, span, sent_id)
        return _REJECTED


def _conllu_columns(rows: list[str], first_lineno: int, sent_id: str) -> tuple[tuple[int, ...], list[str], list[str]]:
    """The HEAD, LEMMA and UPOS columns of CoNLL-U lines that hold no blank line, read a line at a time."""
    ids: list[int] = []
    heads: list[int] = []
    lemmas: list[str] = []
    upos: list[str] = []
    for lineno, line in enumerate(rows, first_lineno):
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
        lemmas.append(lemma)
        upos.append(tag)
    if not heads:
        raise InvalidTree(f"{sent_id}: sentence block has no token lines")
    if ids != list(range(1, len(ids) + 1)):
        raise InvalidTree(f"{sent_id}: token IDs are not consecutive from 1")
    return tuple(heads), lemmas, upos


def _number(raw: str, what: str, lineno: int) -> int:
    """A decimal field that :data:`_DECIMAL` lacks, read by :func:`_ascii_int`."""
    try:
        return _ascii_int(raw)
    except ValueError:
        raise MalformedLine(f"line {lineno}: non-integer {what} {raw!r}") from None


def _drop_punct(heads: Sequence[int], upos: list[str], sent_id: str) -> list[int]:
    dropped = {index for index, tag in enumerate(upos, 1) if tag == "PUNCT"}
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


def _cabocha_block(
    block: str, line: int, n: int, number: int, options: dict[str, Any], ended: bool = False
) -> Sentence | object | None:
    """Sentence ``number`` of CaboCha: the ``n`` lines of ``block``, from line ``line`` on, and the ``EOS`` after them.

    Each bunsetsu chunk is a node. A header ``* 3 5D 0/1 1.23`` gives the
    0-based chunk index and its head's, -1D for the root. Only the root
    chunk's lemma is kept: the first base form (seventh feature, unless
    ``*`` or empty) of its morpheme lines, which are split up to it; no
    other morpheme line is. A sentence's first fault is reported at its
    ``EOS``. Blank lines are no sentence (None). When the range's end ends
    the block (``ended``), no ``EOS`` does, and a sentence there is rejected
    as :class:`MissingEOS`, with no id and no number, its span ending at the
    range's last line.

    The fast path cuts a block whose first line that is not blank is a
    header at each line-start ``* ``, and reads each header as ``IDX HEAD
    REST``, split at single spaces, IDX and HEAD by :data:`_DECIMAL` and
    :data:`_CHUNK_HEAD`. Any other block (a header of two fields among
    them), and the rest of a sentence whose first lines were walked
    (``options["held"]``), is read by :func:`_cabocha_lines`.
    """
    try:  # a KeyError or a ValueError sends the block to the line branch
        blank, *chunks = block.split("\n* ")  # the blank lines before the first header, if any, and the chunks
        if not chunks or blank and not blank.isspace() or options["held"] is not None:
            raise KeyError
        heads = []
        for chunk in chunks:
            index, head, _ = chunk.split(" ", 2)
            if _DECIMAL.get(index) != len(heads):
                raise KeyError
            heads.append(_CHUNK_HEAD[head])
        root_lemma = None
        if 0 in heads:
            root = chunks[heads.index(0)].split("\n")  # its header's rest, then its morpheme lines
            root_lemma = next(filter(None, map(_base_form, root[1:])), None)
        start, fault = line + blank.count("\n"), None
    except (KeyError, ValueError):
        start, heads, root_lemma, _, fault = _cabocha_lines(block, line, options["held"])
        options["held"] = None
        if start is None:
            return None  # blank lines, or no line between two EOS lines
    source = options["source"]
    if ended:
        exc = MissingEOS(f"{source}: stream ended inside a sentence (missing EOS)")
        options["reject"](exc, f"{source}:{start}-{line + n - 1}", None)
        return None
    sent_id, span = f"{source}#{number}", f"{source}:{start}-{line + n}"
    if fault is None:
        try:
            return validate_tree(Sentence(sent_id, tuple(heads), root_lemma, span))
        except InvalidTree as exc:
            fault = exc
    options["reject"](fault, span, sent_id)
    return _REJECTED


def _cabocha_lines(block: str, line: int, held: tuple[Any, ...] | None) -> tuple[Any, ...]:
    """The walk of a CaboCha block's lines, on from ``held``, the walk of the lines before them: the sentence's
    first line (None while all are blank), its chunks' heads, its root lemma, whether that is still sought, its
    first fault."""
    start, heads, root_lemma, seeking_lemma, fault = held or (None, [], None, False, None)
    for lineno, raw in enumerate(block.split("\n"), line - 1):  # the LF before each line
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
        elif raw and not raw.isspace():  # morpheme line: SURFACE<TAB>FEATURES
            if start is None:
                start = lineno
            if fault is not None:
                continue
            if not heads:
                fault = MalformedLine(f"line {lineno}: morpheme line before any chunk header")
                continue
            if seeking_lemma:
                root_lemma = _base_form(raw)
                seeking_lemma = root_lemma is None
    return start, heads, root_lemma, seeking_lemma, fault


def _base_form(line: str) -> str | None:
    """A morpheme line's base form, its seventh feature, or None when that is ``*``, empty or missing."""
    fields = line.partition("\t")[2].split(",", 7)
    return fields[6] if len(fields) > 6 and fields[6] not in ("*", "") else None


# --- canonical JSONL -------------------------------------------------------


def _canonical(
    lines: Iterable[str],
    first_line: int,
    *,
    source: str,
    reject: Callable[[Exception, str, str | None], None],
) -> Iterator[Sentence]:
    """Yield the sentences of the toolkit's JSONL format: one sentence object per line.

    Each line is ``{"id": str, "nodes": [{"index": int, "head": int,
    "form"?: str | null, "lemma"?: str | null}, ...]}``. ``index`` and
    ``head`` must be JSON integers (not floats or booleans), the indices must
    run 1..n in order, and a line that breaks either rule is rejected. Every
    node's ``form`` and ``lemma`` is checked to be a string or null; the
    sentence keeps only the lemma of the node whose head is 0. A line whose
    id, ``form`` or ``lemma`` holds a lone surrogate (a ``\\ud800`` escape),
    which has no UTF-8 form, is rejected.
    Blank lines and lines starting with '#' (used for run metadata by the
    generator) are skipped.

    A line exactly as :func:`serialize_canonical` writes a sentence with no
    root lemma, such as each line of ``depmetrics generate``, is read without
    the JSON decoder: its id and heads are taken by two regexes and accepted
    only if writing them back gives the same text. The sentence, or the
    rejection, is the one the decoder's path gives.
    """
    for lineno, raw in enumerate(lines, first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        span = f"{source}:{lineno}"
        try:
            sentence = _canonical_sentence(line, lineno, span)
        except _REJECTABLE as exc:
            reject(exc, span, None)
        else:
            yield sentence


def _canonical_sentence(line: str, lineno: int, span: str) -> Sentence:
    # A line that serialize_canonical would write for its id and heads is the
    # json.dumps text of that sentence, so json.loads would give exactly it.
    match_start, find_heads = _writer_patterns()
    start = match_start(line)
    if start is not None:
        try:
            heads = (*map(_DECIMAL.__getitem__, find_heads(line, start.end())),)  # built at its exact size
        except KeyError:  # no text of 0..1023, such as 1024 or 01
            pass
        else:
            sentence = Sentence(start[1], heads, None, span)
            if serialize_canonical(sentence) == line:
                return validate_tree(sentence)
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
    if "\\" in line:  # decoded UTF-8 holds no lone surrogate, an escape may; "\\" is found by memchr, "\\u" is not
        texts = "".join([sent_id, *(entry.get(key) or "" for entry in obj["nodes"] for key in ("form", "lemma"))])
        if any("\ud800" <= char <= "\udfff" for char in texts):
            raise MalformedLine(f"line {lineno}: a string holds a lone surrogate, which has no UTF-8 form")
    n = len(heads)
    if indices != list(range(1, n + 1)):
        raise InvalidTree(f"{sent_id}: node indices are not consecutive from 1 (got {indices})")
    return validate_tree(Sentence(sent_id, tuple(heads), root_lemma, span))


@cache
def _writer_patterns() -> tuple[Any, Any]:
    """The match of a written line's start, up to its first node (group 1 is an id with no quote and
    no backslash), and the finder of each ``"head": H``: built on first use."""
    return (
        re.compile(r'\{"id": "([^"\\]*)", "nodes": \[(?=\{"head": )').match,
        re.compile(r'"head": (\d+)').findall,
    )


# --- dispatch --------------------------------------------------------------


_BLOCK_READERS = {"conllu": _conllu_block, "cabocha": _cabocha_block}


def parse(stream: Text, fmt: str, **options: Any) -> list[Sentence]:
    """:func:`iter_parse` as a list."""
    return list(iter_parse(stream, fmt, **options))


def iter_parse(stream: Text, fmt: str, *, source: str | None = None, **options: Any) -> Iterator[Sentence]:
    """Iterate over the sentences of ``stream`` in the named format ('conllu', 'cabocha', 'canonical').

    ``stream`` (a str, bytes or a binary file) is read as the one byte range
    of :func:`iter_byte_range`, with the options ``errors``, ``rejections``
    and, for CoNLL-U, ``drop_punct``; ``source`` (by default ``<fmt>``) names
    it. Any other option, an unknown format or an input of another type
    raises at once, before any line is read.
    """
    source = f"<{fmt}>" if source is None else source
    return iter_byte_range(stream, fmt, 0, 1, 0, name=source, source=source, digest=None, **options)
