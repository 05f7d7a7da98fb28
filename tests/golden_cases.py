"""The golden cases: CLI runs on the bundled fixtures whose outputs are kept in ``tests/data/golden/<case>/``.

``tests/test_golden.py`` runs each case in process and
``scripts/cross_version_check.py`` through ``python -m depmetrics``, both in
a directory holding only the case's fixtures, with relative paths, and
compare stdout (stored as a file named ``stdout``) and every file written
into ``OUTPUT_DIR``. Both also run each single-table command on the inputs
of each report case, which must write that case's tables of the command
and its ``meta.json``, with what :func:`single_table_case` changes. Neither
pytest nor hypothesis is needed here.
"""

from __future__ import annotations

import json
from pathlib import Path

from depmetrics.report import json_text

from .command_flags import COMMAND_TABLES

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

# report case -> its inputs, and the settings beside --output-dir, which go into a config file
# since a single-table command may lack their flags
REPORT_INPUTS_AND_SETTINGS: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {
    "report_conllu": (("sample_ud.conllu", "mixed.conllu"), {}),
    "report_cabocha_lexicon": (("sample.cabocha",), {"valency_mode": "lexicon", "lexicon_path": "lexicon.tsv"}),
}


def golden_files(case: str) -> dict[str, bytes]:
    """The stdout and every written file of a golden case, by name."""
    return {path.name: path.read_bytes() for path in (GOLDEN_DIR / case).iterdir()}


def single_table_case(case: str, command: str) -> tuple[list[str], dict[str, str], dict[str, bytes]]:
    """A single-table command run on the inputs and settings of a report case, beside the case's fixtures.

    Returns its CLI arguments, the files to write into its directory (the
    config file), and what it must write: that case's tables of the
    command, the case's ``meta.json`` with the command's name and its
    additions to the metadata, and one ``wrote`` line each on stdout.
    """
    inputs, settings = REPORT_INPUTS_AND_SETTINGS[case]
    argv = [command, *inputs, "--config", "run.json", "--output-dir", OUTPUT_DIR]
    golden = GOLDEN_DIR / case
    expected = {name: (golden / name).read_bytes() for name in COMMAND_TABLES[command]}
    meta = json.loads((golden / "meta.json").read_bytes())
    report = json.loads((golden / "report.json").read_bytes())
    meta["command"] = command
    if command == "trend":
        meta["crossings"] = report["crossings"]
    if command == "valency":
        meta["lexicon_misses"] = report["valency"]["lexicon_misses"]
    expected["meta.json"] = json_text(meta).encode()
    expected["stdout"] = "".join(f"wrote {OUTPUT_DIR}/{name}\n" for name in expected).encode()
    return argv, {"run.json": json.dumps(settings)}, expected
