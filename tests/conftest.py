"""Shared fixtures plus an acceptance-criteria summary printed after the run."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest

from depmetrics.analysis import CorpusStats, LengthStats
from depmetrics.stats import Distribution
from depmetrics.treebank import Rejection, Sentence, ValencyLexicon, validate_tree

DATA_DIR = Path(__file__).parent / "data"

# Seven-node demo sentence: DD list (1,5,1,1,2,1) -> MDD 11/6; HD list
# (2,1,3,2,1,1) -> MHD 10/6; root out-degree 3.
DEMO7_HEADS = (2, 7, 4, 5, 7, 7, 0)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def demo7() -> Sentence:
    return validate_tree(Sentence.from_heads(DEMO7_HEADS, id="demo7"))


def make_sentence(heads, id="s", root_lemma=None) -> Sentence:
    return validate_tree(Sentence.from_heads(tuple(heads), id=id, root_lemma=root_lemma))


def rejecter(rejections=None):
    """A line reader's ``reject(exc, span, sentence_id)``, as ``iter_byte_range`` builds it: it raises
    ``exc`` when ``rejections`` is None and records a ``Rejection`` in it otherwise."""
    if rejections is None:
        def reject(exc, span, sentence_id):
            raise exc
    else:
        def reject(exc, span, sentence_id):
            rejections.append(Rejection(span, str(exc), sentence_id))
    return reject


def fold(sentences, window, lexicon=None) -> CorpusStats:
    """The fold of ``sentences``, bounded to the length window ``window``."""
    stats = CorpusStats(window, lexicon)
    for sentence in sentences:
        stats.add(sentence)
    return stats


def fields(value):
    """``value`` as the tests compare it, through lists, tuples and dicts: a sentence as (id, head_vector,
    root_lemma, source), a fold or a length's totals as its slots, a ``Distribution`` as its counts."""
    if isinstance(value, Sentence):
        return value.id, value.head_vector, value.root_lemma, value.source
    if isinstance(value, Distribution):
        return value.counts
    if isinstance(value, (CorpusStats, LengthStats, ValencyLexicon)):
        return {name: fields(getattr(value, name)) for name in value.__slots__}
    if type(value) is dict:  # a Counter stays one: its equality treats a missing value as 0
        return {key: fields(item) for key, item in value.items()}
    if isinstance(value, list):
        return list(map(fields, value))
    if isinstance(value, tuple):
        return tuple(map(fields, value))
    return value


def exact_means(record) -> tuple[Fraction, Fraction]:
    """A metric record's MDD and MHD as exact rationals."""
    return Fraction(record.dd_total, record.sl - 1), Fraction(record.hd_total, record.sl - 1)


_acceptance_outcomes: dict[tuple[int, str], str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    match = re.search(r"criterion_(\d+)([a-z]?)", report.nodeid)
    if not match:
        return
    key = (int(match.group(1)), match.group(2))
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcomes[key] = {
            "passed": "PASS",
            "failed": "FAIL",
            "skipped": "SKIP",
        }.get(report.outcome, report.outcome.upper())


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, suffix in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[(number, suffix)]
        terminalreporter.write_line(f"criterion {number}{suffix}: {outcome}")
