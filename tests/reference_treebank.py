"""Reference CaboCha reader and canonical writer: the versions the one-pass reader and the direct writer replaced.

``iter_cabocha`` walks every line looking for ``EOS``; ``_cabocha_sentence``
then walks the sentence's lines again to read its chunks. The property tests
require ``treebank.iter_cabocha`` to yield the same sentences and record (or
raise) the same rejections as this reader.

``serialize_canonical`` builds one dict per node and renders the sentence
with ``json.dumps``; the property tests require ``treebank.serialize_canonical``
to return the same string.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterator

from depmetrics.errors import MalformedChunkHeader, MalformedLine, MissingEOS
from depmetrics.treebank import (
    _REJECTABLE,
    Rejection,
    Sentence,
    _check_error_mode,
    _reject,
    _text_column,
    _text_lines,
    validate_tree,
)


def iter_cabocha(
    stream: IO | str | bytes,
    *,
    source: str = "<cabocha>",
    errors: str = "raise",
    rejections: list[Rejection] | None = None,
) -> Iterator[Sentence]:
    _check_error_mode(errors)
    lines = list(_text_lines(stream))
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
            except _REJECTABLE as exc:
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
    surfaces: list[list[str]] = []
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
            surfaces.append([])
            lemmas.append(None)
        elif not raw or raw.isspace():
            continue
        else:
            if not heads:
                raise MalformedLine(f"line {lineno}: morpheme line before any chunk header")
            surface, _, feature_str = raw.partition("\t")
            surfaces[-1].append(surface)
            if lemmas[-1] is None and feature_str:
                features = feature_str.split(",", 7)
                if len(features) > 6 and features[6] not in ("*", ""):
                    lemmas[-1] = features[6]
    n = len(heads)
    forms = tuple("".join(chunk) for chunk in surfaces)
    return validate_tree(Sentence(sent_id, tuple(heads), forms, _text_column(lemmas, n), span))


def serialize_canonical(sentence: Sentence) -> str:
    n = len(sentence)
    blank = (None,) * n
    nodes = []
    for index, head, form, lemma in zip(
        range(1, n + 1), sentence.head_vector, sentence.forms or blank, sentence.lemmas or blank
    ):
        entry: dict[str, object] = {"index": index, "head": head}
        if form is not None:
            entry["form"] = form
        if lemma is not None:
            entry["lemma"] = lemma
        nodes.append(entry)
    line = json.dumps({"id": sentence.id, "nodes": nodes}, ensure_ascii=False, sort_keys=True)
    return line if line.isascii() else line.translate(UNESCAPED_BREAKS)


UNESCAPED_BREAKS = {ord(char): f"\\u{ord(char):04x}" for char in "\x85\u2028\u2029"}
