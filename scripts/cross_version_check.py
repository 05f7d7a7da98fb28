"""Check the ``metrics`` output on the running Python, with neither pytest nor hypothesis.

    python scripts/cross_version_check.py [--examples N]

``MetricRecord.json_line`` writes the text of ``json.dumps(...,
sort_keys=True)`` by hand, so float ``repr``, ``round`` and json's ASCII
string encoder must behave alike on every supported Python version. The
script compares the writer with the ``json.dumps`` reference of
``tests/reference_metrics.py`` on N seeded random trees of 2-60 nodes with
random ids (quotes, backslashes, control characters, non-ASCII and
non-BMP characters, lone surrogates, U+2028/U+2029), and on trees whose
histogram keys pass the writer's 1,024-key table. It writes a root lemma
holding each of those special characters, and one holding all of them, with
``treebank.serialize_canonical`` and reads it back with ``iter_parse``, as
a ``str`` and as its bytes: the line must be the ``json.dumps`` text of
``tests/reference_treebank.py``, one line to ``str.splitlines`` (U+0085,
U+2028 and U+2029 escaped), and give the lemma back, or, for a lone
surrogate, which has no UTF-8 form, raise ``InvalidEncoding``. So must the
line of each special character as the id of a sentence with no root lemma,
which the reader takes without ``json.loads`` when it needs no escape. The canonical reader takes a line that
``serialize_canonical`` writes by two regexes and the writer, not by
``json.loads``, so on generated lines (valid and broken trees, plain and
special-character ids, with and without a root lemma, up to 1,100 nodes)
and on every ``CANONICAL_MUTATIONS`` edit of them it must give the
sentence or the rejection of the ``json.loads`` reference reader of
``tests/reference_treebank.py``. ``serialize_canonical`` builds node text from
pieces for numbers up to 1,023 and formats any other node by hand, so it
also writes generated trees of 1,023, 1,024, 1,100 and 3,000 nodes, with
and without a root lemma, which must give the reference's line; a bool,
a float and a str head must raise a ``TypeError`` from
``Sentence.from_heads``, and the float and the str one from
``serialize_canonical`` too. The
CoNLL-U and CaboCha readers look ID, HEAD and chunk numbers up in a
table of "0" to "1023" and check any other text as ``str.isdigit`` and
``int()`` do, whose Unicode tables and digit limit differ between
versions: so each reader must give the sentences, the rejections and the
raised error of ``tests/reference_treebank.py``, which reads every
number by that rule, for each text of ``DECIMAL_TEXTS`` (the table's
edges, leading zeros, forms ``int()`` reads but the readers refuse) and
each non-ASCII character that ``str.isdigit`` takes, as an ID, a HEAD, a
chunk index and a chunk head, and for a 1,100-token and a 1,100-chunk
sentence. Each case stands between two sentences that the block reader of
its format reads by its fast path, the first CoNLL-U one with a
multiword-token range, so that a block that its line branch reads stands
among blocks that it does not. ``stats.spearman_from_counts``, which
``report`` reads its correlations with, takes integer sums of doubled
ranks where the reference of ``tests/reference_analysis.py`` takes
``math.fsum`` Pearson sums of the ranks of the pairs expanded: the two
must give the same bits, or the same ``DegenerateInput``, on N seeded
random pair counts of up to 300 pairs with many ties, ints and floats, and
on one of 100,000 pairs. ``analysis.CorpusStats.add`` counts with
``collections._count_elements``, a private name that it replaces by
``Counter.update`` where it is missing; the check fails there, so that the
fold's slower path shows. It then runs each
golden case of ``tests/golden_cases.py`` through ``python -m depmetrics``
and compares the bytes, and runs each single-table command on the inputs of
both report cases, which must write that case's tables of the command byte
for byte, and its meta.json, as ``tests/test_golden.py`` requires. It runs the
closed-stdout cases of ``tests/closed_stdout.py``, with the child's stdout
buffered and unbuffered: when a write into a closed pipe fails, and whether
the interpreter's last flush reports it, differ between versions;
``validate`` and ``metrics`` started without fd 1 must exit 0. With
``PYTHONIOENCODING=ascii``, ``validate`` of a CaboCha file whose rejection
reason holds a non-ASCII character must exit 1, and ``trend`` into a
non-ASCII ``--output-dir`` exit 0, each writing the text escaped. Last,
since argparse's parsing and help output differ between versions too, it
checks that ``python -m depmetrics CMD -h`` lists exactly the long flags of
``tests/command_flags.py`` for each corpus command, and that a flag the
command does not take exits 2 with nothing on stdout. So must the refused
runs of ``REFUSED_RUNS``: a config file past int()'s digit limit or json's
nesting depth, which both differ between versions, config files with values
of the wrong type (a bool for an int, a number for a path), and an integer
flag in a form that int() reads but the CLI does not take. Last, it checks the
cases of ``tests/startup_modules.py``: importing the CLI and running
``metrics`` load none of ``dataclasses``, the analyses, the statistics or
the generator, ``report`` loads the analyses and the statistics only, and
``generate`` the generator only. It prints one line per check and exits 0
when all of them pass.
"""

from __future__ import annotations

import argparse
import collections
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from depmetrics.metrics import metric_record  # noqa: E402
from depmetrics.randtree import GeneratorConfig, chain_heads, random_tree, star_heads  # noqa: E402
from depmetrics.report import TABLES  # noqa: E402
from depmetrics.stats import spearman_from_counts  # noqa: E402
from depmetrics.errors import DegenerateInput, DepMetricsError, InvalidEncoding  # noqa: E402
from depmetrics.treebank import (  # noqa: E402
    Sentence,
    _canonical_sentence,
    iter_parse,
    serialize_canonical,
    validate_tree,
)
from tests import (  # noqa: E402
    closed_stdout,
    golden_cases,
    reference_analysis,
    reference_metrics,
    reference_treebank,
    startup_modules,
)
from tests.command_flags import COMMAND_FLAGS  # noqa: E402

SPECIAL_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029",
                 "\ud800", "\udfff", "\U0001f600", "\u00e9"]
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")])))
# a flag that each corpus command does not take; report takes every RunConfig flag, but no seed
REFUSED_FLAGS = {
    "validate": ["--sl-max", "9"],
    "metrics": ["--output-dir", "out"],
    "dist": ["--min-bucket", "3"],
    "entropy": ["--dist-sls", "5"],
    "trend": ["--entropy-base", "e"],
    "corr": ["--log-base", "10"],
    "valency": ["--entropy-base", "e"],
    "report": ["--seed", "1"],
}
SAMPLE = str(ROOT / "tests" / "data" / "sample_200.jsonl")
# name -> (files to write into the run's directory, CLI arguments, what stderr must hold)
CONFIG_RUN = ["report", SAMPLE, "--config", "run.json"]
REFUSED_RUNS = {
    "config file with a 5,000-digit integer": ({"run.json": '{"sl_max": 1' + "0" * 5000 + "}"}, CONFIG_RUN,
                                               "config error:"),
    "config file nested 100,000 deep": ({"run.json": "[" * 100_000}, CONFIG_RUN, "config error:"),
    "config file with min_bucket true": ({"run.json": '{"min_bucket": true}'}, CONFIG_RUN,
                                         "config error: run.json: 'min_bucket' must be int, got true"),
    "config file with lexicon_path 3": ({"run.json": '{"lexicon_path": 3}'}, CONFIG_RUN,
                                        "config error: run.json: 'lexicon_path' must be str | None, got 3"),
    "trend --sl-max \uff11\uff12": ({}, ["trend", SAMPLE, "--sl-max", "\uff11\uff12"], "invalid integer value"),
    "generate --count 1_0": ({}, ["generate", "--n", "5", "--seed", "1", "--count", "1_0"],
                             "invalid integer value"),
}
# ID, HEAD and chunk-number texts: the edges of the readers' decimal table, leading zeros, and forms
# that int() reads though the readers refuse them; every non-ASCII digit is added at run time
DECIMAL_TEXTS = ["0", "00", "01", "1023", "01023", "1024", "1" * 5000, "+1", " 1", "1 ", "1_0", "-1", "-0",
                 "-01", ""]
OPTION_LINE = re.compile(r"  (-\S.*?)(?:  |$)")  # an option's flags and metavars, at the start of a help line


def random_id(rng: random.Random) -> str:
    return "".join(
        rng.choice(SPECIAL_CHARS) if rng.random() < 0.5 else chr(rng.randrange(0x110000))
        for _ in range(rng.randrange(13))
    )


def writer_mismatches(examples: int) -> tuple[int, list[str]]:
    """The number of trees compared, and the ids of those whose ``json_line`` differs from the reference."""
    rng = random.Random(20261018)
    cases = [
        (random_tree(GeneratorConfig(n=rng.randint(2, 60), seed=seed)).heads(), random_id(rng))
        for seed in range(examples)
    ]
    cases += [(chain_heads(1100), "chain-1100"), (star_heads(1024), "star-1024"),
              (star_heads(1100), "star-1100")]
    cases += [(random_tree(GeneratorConfig(n=n, seed=7)).heads(), f"random-{n}") for n in (1023, 1100, 3000)]
    bad = []
    for heads, sent_id in cases:
        record = metric_record(validate_tree(Sentence.from_heads(heads, id=sent_id)))
        if record.json_line() != reference_metrics.json_line(record):
            bad.append(ascii(sent_id))
    return len(cases), bad


def root_lemma_mismatches() -> tuple[int, list[str]]:
    """The number of lines written and read back, and those whose line or read-back is wrong.

    Each text is written as a root lemma and its id, and as the id of a
    sentence with no root lemma; each line is read as a ``str`` and as its bytes.
    """
    texts = [f"a{char}b" for char in SPECIAL_CHARS] + ["".join(SPECIAL_CHARS)]
    bad = []
    cases = 0
    for seed, text in enumerate(texts):
        heads = random_tree(GeneratorConfig(n=1 + seed % 8, seed=seed)).heads()
        readable = not any("\ud800" <= char <= "\udfff" for char in text)
        for root_lemma in (text, None):
            sentence = Sentence.from_heads(heads, id=text, root_lemma=root_lemma)
            line = serialize_canonical(sentence)
            want = (text, heads, root_lemma) if readable else InvalidEncoding
            one_line = len(line.splitlines()) == 1
            for stream in (line, line.encode("utf-8", "surrogatepass")):
                cases += 1
                try:
                    [again] = iter_parse(stream, "canonical")
                    got: object = (again.id, again.heads(), again.root_lemma)
                except InvalidEncoding:
                    got = InvalidEncoding
                if line != reference_treebank.serialize_canonical(sentence) or not one_line or got != want:
                    bad.append(f"{ascii(text)} as {type(stream).__name__}"
                               + (" with a root lemma" if root_lemma else ""))
    return cases, bad


def canonical_writer_mismatches() -> tuple[int, list[str]]:
    """The number of long trees written, and those whose line differs from the ``json.dumps`` reference.

    ``serialize_canonical`` builds node text from pieces for numbers up to
    1,023 and formats every node of a longer tree; each tree is written with
    and without a root lemma.
    """
    bad = []
    cases = 0
    for n in (1023, 1024, 1100, 3000):
        heads = random_tree(GeneratorConfig(n=n, seed=n)).heads()
        for root_lemma in (None, "\u8a9e"):
            sentence = Sentence.from_heads(heads, id=f"random-{n}", root_lemma=root_lemma)
            cases += 1
            if serialize_canonical(sentence) != reference_treebank.serialize_canonical(sentence):
                bad.append(f"random-{n}" + (" with a root lemma" if root_lemma else ""))
    return cases, bad


def canonical_reader_mismatches() -> tuple[int, list[str]]:
    """The number of lines read, and those that the reader reads unlike the ``json.loads`` reference.

    The lines are written by ``serialize_canonical``, then edited by each of
    ``CANONICAL_MUTATIONS`` at a few places. No id or lemma holds a lone
    surrogate, which the reader refuses since the reference was written.
    """
    rng = random.Random(20261019)
    written = []
    for seed in range(300):
        heads = list(random_tree(GeneratorConfig(n=rng.randint(1, 60), seed=seed)).heads())
        if rng.random() < 0.5:  # a cycle, a self-loop, a second root or a head out of range, mostly
            heads[rng.randrange(len(heads))] = rng.randint(-1, len(heads) + 2)
        texts = [f"s{seed}" if rng.random() < 0.5 else
                 "".join(char for char in random_id(rng) if not "\ud800" <= char <= "\udfff") for _ in range(2)]
        root_lemma = texts[1] if 0 in heads and rng.random() < 0.3 else None
        written.append(Sentence(texts[0], tuple(heads), root_lemma))
    written += [Sentence(f"long-{n}", random_tree(GeneratorConfig(n=n, seed=n)).heads()) for n in (1023, 1024, 1100)]
    written.append(Sentence("chain-1100", chain_heads(1100), "\u8a9e"))
    lines = list(map(serialize_canonical, written))
    lines += [mutate(line, k) for line in lines for mutate in reference_treebank.CANONICAL_MUTATIONS.values()
              for k in (0, 1, rng.randrange(1 << 16))]
    bad = [ascii(line[:60]) for line in lines
           if reference_treebank.canonical_outcome(_canonical_sentence, line)
           != reference_treebank.canonical_outcome(reference_treebank.canonical_sentence, line)]
    return len(lines), bad


def non_int_head_outcomes() -> list[tuple[str, bool, str]]:
    """A bool, a float and a str head: ``Sentence.from_heads`` must refuse each with a TypeError, and
    ``serialize_canonical`` the float and the str of a sentence built directly. Each case's name,
    whether it passed, and what it gave."""
    outcomes = []
    for head in (True, 2.0, "1"):
        builds = {"from_heads": partial(Sentence.from_heads, (head, 0), id="c")}
        if head is not True:
            builds["serialize_canonical"] = partial(serialize_canonical, Sentence("c", (head, 0)))
        for name, build in builds.items():
            try:
                got = f"gave {build()!r}"[:80]
            except TypeError as exc:
                got = f"TypeError: {exc}"
            outcomes.append((f"{name}, head {head!r}", got.startswith("TypeError: 'c': the head at position 1"), got))
    return outcomes


def decimal_field_documents() -> list[tuple[str, str]]:
    """(format, text) pairs with each decimal text as a CoNLL-U ID and HEAD and a CaboCha index and head."""
    texts = DECIMAL_TEXTS + [chr(code) for code in range(0x80, 0x110000) if chr(code).isdigit()]
    token = "{}\tw\tl\tX\t_\t_\t{}\t_\t_\t_\n"
    # sentences the fast paths read, the first CoNLL-U one with a multiword-token range
    before = "# sent_id = a\n1-2\tww" + "\t_" * 8 + "\n" + token.format(1, 2) + token.format(2, 0) + "\n"
    after = token.format(1, 0) + token.format(2, 1) + "\n"
    plain = "* 0 1D 0/0 0.5\nw\tx,*,*,*,*,*,a\n* 1 -1D 0/0 0.0\nv\tx,*,*,*,*,*,b\nEOS\n"
    documents = []
    for text in texts:
        documents += [
            ("conllu", f"{before}{token.format(text, 0)}\n{after}"),
            ("conllu", f"{before}{token.format(1, 0)}{token.format(text, 1)}\n{after}"),
            ("conllu", f"{before}{token.format(1, 0)}{token.format(2, text)}\n{after}"),
            ("cabocha", f"{plain}* {text} -1D 0/0 0.0\nw\tx,*,*,*,*,*,l\nEOS\n{plain}"),
            ("cabocha", f"{plain}* 0 -1D 0/0 0.0\nw\tx,*,*,*,*,*,l\n* 1 {text}D 0/0 0.0\nv\tx\nEOS\n{plain}"),
        ]
    heads = chain_heads(1100)
    tokens = "".join(token.format(i, head) for i, head in enumerate(heads, 1))
    documents.append(("conllu", f"{before}{tokens}\n{after}"))
    chunks = "".join(f"* {i - 1} {head - 1}D 0/0 0.0\nw\tx\n" for i, head in enumerate(heads, 1))
    documents.append(("cabocha", f"{plain}{chunks}EOS\n{plain}"))
    return documents


def read_outcome(reader, text: str) -> tuple[object, ...]:
    """The sentences and rejections of skip mode; the sentences before the error, and the error, of raise mode.
    A sentence is its fields, with its depths."""
    def fields(s: Sentence) -> tuple[object, ...]:
        return s.id, s.head_vector, s.root_lemma, s.source, s.depths

    rejections: list = []
    skipped = list(map(fields, reader(text, source="f", errors="skip", rejections=rejections)))
    raised = []
    try:
        for sentence in reader(text, source="f"):
            raised.append(fields(sentence))
    except DepMetricsError as exc:
        return skipped, rejections, raised, type(exc), str(exc)
    return skipped, rejections, raised, None, None


def decimal_field_mismatches() -> tuple[int, list[str]]:
    """The number of documents read, and those the readers read unlike the reference readers."""
    references = {"conllu": reference_treebank.iter_conllu, "cabocha": reference_treebank.iter_cabocha}
    documents = decimal_field_documents()
    bad = []
    for fmt, text in documents:
        if read_outcome(partial(iter_parse, fmt=fmt), text) != read_outcome(references[fmt], text):
            bad.append(f"{fmt} {ascii(text[:40])}")
    return len(documents), bad


def spearman_outcome(correlate, *args: object) -> tuple[object, ...]:
    """A correlation's floats as their bits, or the message of its ``DegenerateInput``."""
    try:
        result = correlate(*args)
    except DegenerateInput as exc:
        return "DegenerateInput", str(exc)
    return result.rho.hex(), result.p_value.hex(), result.n


def spearman_mismatches(examples: int) -> tuple[int, list[str]]:
    """The number of pair counts compared, and those whose ``spearman_from_counts`` result differs from
    the reference's on the pairs expanded. The ys follow the xs up, down or not at all, with noise."""
    rng = random.Random(20261021)
    sizes = [rng.randint(0, 300) for _ in range(examples)] + [100_000]
    bad = []
    for k, n in enumerate(sizes):
        spread = rng.randint(0, min(n, 400))
        slope = rng.choice([-2, -1, 0, 1, 3])
        scale = rng.choice([1, 7.0, 0.1])  # 1: ints; otherwise floats
        pairs: Counter = Counter()
        for _ in range(n):
            x = rng.randint(0, spread)
            y = slope * x + rng.randint(0, spread // 2)
            pairs[(x, y) if scale == 1 else (x / scale, y * scale)] += 1
        xs, ys = zip(*pairs.elements()) if pairs else ((), ())
        if spearman_outcome(spearman_from_counts, pairs) != spearman_outcome(reference_analysis.spearman, xs, ys):
            bad.append(f"case {k} ({n} pairs)")
    return len(sizes), bad


def run_on_fixtures(case: str, argv: list[str], files: dict[str, str]) -> dict[str, bytes] | None:
    """Run ``python -m depmetrics`` with ``argv`` beside the fixtures of a golden case and ``files``;
    return its stdout and every file it wrote into the output directory, or None when it does not exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in golden_cases.CASES[case][0]:
            shutil.copyfile(golden_cases.DATA_DIR / name, Path(tmp) / name)
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        (Path(tmp) / golden_cases.OUTPUT_DIR).mkdir()
        result = subprocess.run([sys.executable, "-m", "depmetrics", *argv],
                                cwd=tmp, env=CHILD_ENV, capture_output=True)
        actual = {path.name: path.read_bytes() for path in (Path(tmp) / golden_cases.OUTPUT_DIR).iterdir()}
    return {**actual, "stdout": result.stdout} if result.returncode == 0 else None


def golden_case_matches(case: str) -> bool:
    """Whether ``python -m depmetrics`` writes the stdout and every file of a golden case."""
    return run_on_fixtures(case, golden_cases.CASES[case][1], {}) == golden_cases.golden_files(case)


def single_table_matches(case: str, command: str) -> bool:
    """Whether a single-table command, run on the inputs and settings of a report case, writes that
    case's tables of the command and the case's meta.json with its own command and additions."""
    argv, files, expected = golden_cases.single_table_case(case, command)
    return run_on_fixtures(case, argv, files) == expected


def closed_stdout_outcomes() -> list[tuple[str, bool, str]]:
    """Each closed-stdout case, buffered and unbuffered: its name, whether it passed, and what it gave."""
    outcomes = []
    for case in sorted(closed_stdout.CASES):
        for buffered in (True, False):
            with tempfile.TemporaryDirectory() as tmp:
                status, stderr, left = closed_stdout.run_case(case, Path(tmp), buffered)
            name = f"{case}, {'buffered' if buffered else 'unbuffered'}"
            got = f"exit {status}" + "".join(f"; stderr {line!r}" for line in stderr[:2]) + (
                f"; left {left}" if left else "")
            outcomes.append((name, (status, stderr, left) == (141, [], []), got))
    return outcomes


def no_stdout_outcomes() -> list[tuple[str, bool, str]]:
    """``validate`` and ``metrics`` started without fd 1 must exit 0, with no internal error.
    Each command, whether it passed, and what it gave."""
    outcomes = []
    for command in ("validate", "metrics"):
        result = subprocess.run([sys.executable, "-m", "depmetrics", command, SAMPLE], env=CHILD_ENV,
                                stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), text=True)
        last = (result.stderr.splitlines() or [""])[-1]
        passed = result.returncode == 0 and "internal error" not in result.stderr
        outcomes.append((command, passed, f"exit {result.returncode}" + (f"; stderr {last[:100]!r}" if last else "")))
    return outcomes


def ascii_stdout_outcomes() -> list[tuple[str, bool, str]]:
    """Runs whose stdout is ASCII with a strict error handler, as ``PYTHONIOENCODING=ascii`` sets it:
    a rejection reason and an output path it cannot encode must be written escaped, not end in exit 3.
    Each run's name, whether it passed, and what it gave."""
    runs = {
        "validate, a rejection reason": (["validate", "bad.cabocha"], 1, "bad chunk header '* 0 \\u3042D'"),
        "trend, an output path": (["trend", "ok.conllu", "--output-dir", "\u51fa\u529b"], 0,
                                  "wrote \\u51fa\\u529b/trend.csv"),
    }
    outcomes = []
    for name, (argv, status, line) in runs.items():
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "bad.cabocha").write_text("* 0 \u3042D\nx\ty,z\nEOS\n", encoding="utf-8")
            shutil.copyfile(ROOT / "tests" / "data" / "sample_ud.conllu", Path(tmp) / "ok.conllu")
            result = subprocess.run([sys.executable, "-m", "depmetrics", *argv], cwd=tmp,
                                    env=dict(CHILD_ENV, PYTHONIOENCODING="ascii"), capture_output=True)
        written = line in result.stdout.decode("ascii", "backslashreplace")
        last = (result.stderr.decode("ascii", "backslashreplace").splitlines() or [""])[-1]
        got = f"stdout holds {line!r}" if written else f"stderr {last[:100]!r}"
        outcomes.append((name, result.returncode == status and written, f"exit {result.returncode}; {got}"))
    return outcomes


def help_flags(command: str) -> set[str]:
    """The long flags that ``python -m depmetrics COMMAND -h`` lists."""
    result = subprocess.run([sys.executable, "-m", "depmetrics", command, "-h"],
                            env=CHILD_ENV, capture_output=True, text=True, check=True)
    flags: set[str] = set()
    for line in result.stdout.splitlines():
        match = OPTION_LINE.match(line)
        if match:
            flags.update(re.findall(r"--[a-z][a-z-]*", match.group(1)))
    return flags


def refused_outcome(argv: list[str], files: dict[str, str], reason: str) -> tuple[bool, str]:
    """Whether ``argv``, run in a directory holding ``files``, exits 2 with ``reason`` on stderr,
    nothing on stdout and nothing written; and its exit status and last stderr line, cut short."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        result = subprocess.run([sys.executable, "-m", "depmetrics", *argv],
                                cwd=tmp, env=CHILD_ENV, capture_output=True, text=True)
        left = sorted(set(os.listdir(tmp)) - set(files))
    last = (result.stderr.splitlines() or [""])[-1]
    passed = (result.returncode, result.stdout, left) == (2, "", []) and reason in result.stderr
    return passed, f"exit {result.returncode}; {last[:120]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=2000,
                        help="random trees and pair counts to compare (default 2000)")
    args = parser.parse_args()
    print(f"python {sys.version.split()[0]}")
    compared, bad = writer_mismatches(args.examples)
    print(f"json_line vs json.dumps: {compared - len(bad)} of {compared} agree"
          + (f"; differ: {', '.join(bad[:5])}" if bad else ""))
    ok = not bad
    compared, bad = root_lemma_mismatches()
    print(f"root lemma and id written and read back: {compared - len(bad)} of {compared} agree"
          + (f"; differ: {', '.join(bad[:5])}" if bad else ""))
    ok &= not bad
    compared, bad = canonical_writer_mismatches()
    print(f"serialize_canonical of long trees vs json.dumps: {compared - len(bad)} of {compared} agree"
          + (f"; differ: {', '.join(bad[:5])}" if bad else ""))
    ok &= not bad
    compared, bad = canonical_reader_mismatches()
    print(f"canonical lines vs the json.loads reader: {compared - len(bad)} of {compared} agree"
          + (f"; differ: {', '.join(bad[:5])}" if bad else ""))
    ok &= not bad
    for name, passed, got in non_int_head_outcomes():
        ok &= passed
        print(f"{name}: {got}")
    compared, bad = decimal_field_mismatches()
    print(f"decimal fields vs the reference readers: {compared - len(bad)} of {compared} agree"
          + (f"; differ: {', '.join(bad[:5])}" if bad else ""))
    ok &= not bad
    compared, bad = spearman_mismatches(args.examples)
    print(f"spearman_from_counts vs the expanded rank-Pearson reference: {compared - len(bad)} of {compared} agree"
          + (f"; differ: {', '.join(bad[:5])}" if bad else ""))
    ok &= not bad
    counting = hasattr(collections, "_count_elements")
    ok &= counting
    print(f"collections._count_elements for the corpus fold: {'present' if counting else 'MISSING'}")
    for case in golden_cases.CASES:
        golden = golden_case_matches(case)
        ok &= golden
        print(f"{case} golden via python -m depmetrics: {'identical' if golden else 'DIFFERS'}")
    for case in golden_cases.REPORT_INPUTS_AND_SETTINGS:
        for command in TABLES:
            golden = single_table_matches(case, command)
            ok &= golden
            print(f"{command} on the {case} inputs: {'its golden tables' if golden else 'DIFFERS'}")
    for name, passed, got in closed_stdout_outcomes():
        ok &= passed
        print(f"closed stdout, {name}: {got}")
    for name, passed, got in no_stdout_outcomes():
        ok &= passed
        print(f"no stdout, {name}: {got}")
    for name, passed, got in ascii_stdout_outcomes():
        ok &= passed
        print(f"ascii stdout, {name}: {got}")
    for command, flags in COMMAND_FLAGS.items():
        expected = {"--help", "--format", "--config", *flags} | ({"--output"} if command == "metrics" else set())
        listed = help_flags(command)
        ok &= listed == expected
        print(f"{command} -h: " + ("the declared flags" if listed == expected else
                                   f"DIFFERS: extra {sorted(listed - expected)}, missing {sorted(expected - listed)}"))
        argv = [command, SAMPLE, *REFUSED_FLAGS[command]]
        passed, got = refused_outcome(argv, {}, "unrecognized arguments")
        ok &= passed
        print(f"{command} {' '.join(REFUSED_FLAGS[command])}: {got}")
    for name, (files, argv, reason) in REFUSED_RUNS.items():
        passed, got = refused_outcome(argv, files, reason)
        ok &= passed
        print(f"{name}: {got}")
    for case, (argv, expected) in startup_modules.CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            modules = startup_modules.loaded(argv, Path(tmp))
        ok &= modules == expected
        print(f"{case} loads: {', '.join(sorted(modules)) or 'none of the watched modules'}"
              + ("" if modules == expected else f"; DIFFERS, expected {sorted(expected)}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
