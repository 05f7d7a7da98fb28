"""Golden-output regression test: CLI runs on the bundled fixtures must keep
writing the same bytes.

Each case copies its fixtures into an empty directory, runs the CLI there
with relative paths (so ``meta.json`` and the ``wrote ...`` lines do not
depend on where the test runs) and compares stdout and every written file
with ``tests/data/golden/<case>/``. ``stdout`` is stored as a file of that
name. To regenerate the files after an intended output change, run

    PYTHONPATH=src python -m tests.test_golden

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from depmetrics.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"
OUTPUT_DIR = "out"

# case name -> (fixtures to copy, CLI arguments)
CASES: dict[str, tuple[tuple[str, ...], list[str]]] = {
    "report_conllu": (
        ("sample_ud.conllu", "mixed.conllu"),
        ["report", "sample_ud.conllu", "mixed.conllu", "--output-dir", OUTPUT_DIR],
    ),
    "report_cabocha_lexicon": (
        ("sample.cabocha", "lexicon.tsv"),
        ["report", "sample.cabocha", "--valency-mode", "lexicon", "--lexicon", "lexicon.tsv",
         "--output-dir", OUTPUT_DIR],
    ),
    "metrics_jsonl": (
        ("sample_200.jsonl", "noisy.jsonl"),
        ["metrics", "sample_200.jsonl", "noisy.jsonl", "-o", f"{OUTPUT_DIR}/metrics.jsonl"],
    ),
    "validate_jsonl": (
        ("sample_200.jsonl", "noisy.jsonl"),
        ["validate", "sample_200.jsonl", "noisy.jsonl"],
    ),
    "generate_random": (
        (),
        ["generate", "--n", "12", "--count", "300", "--seed", "5", "-o", f"{OUTPUT_DIR}/random.jsonl"],
    ),
    "generate_capped": (
        (),
        ["generate", "--n", "40", "--count", "60", "--seed", "2", "--max-root-out-degree", "3",
         "-o", f"{OUTPUT_DIR}/capped.jsonl"],
    ),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; return stdout and every written file by name."""
    fixtures, argv = CASES[name]
    for fixture in fixtures:
        shutil.copyfile(DATA_DIR / fixture, workdir / fixture)
    (workdir / OUTPUT_DIR).mkdir()
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            main(argv)
    finally:
        os.chdir(cwd)
    outputs = {"stdout": stdout.getvalue().encode("utf-8")}
    for path in sorted((workdir / OUTPUT_DIR).iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    expected = {path.name: path.read_bytes() for path in (GOLDEN_DIR / name).iterdir()}
    actual = run_case(name, tmp_path)
    assert sorted(actual) == sorted(expected)
    for file_name, data in expected.items():
        assert actual[file_name] == data, f"{name}/{file_name} differs from the golden copy"


if __name__ == "__main__":
    import tempfile

    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            target = GOLDEN_DIR / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file_name, data in run_case(case, Path(tmp)).items():
                (target / file_name).write_bytes(data)
        print(f"wrote {target}")
