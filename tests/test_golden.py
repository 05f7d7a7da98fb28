"""Golden-output regression test: CLI runs on the bundled fixtures must keep
writing the same bytes.

Each case of ``tests/golden_cases.py`` copies its fixtures into an empty
directory, runs the CLI there with relative paths (so ``meta.json`` and the
``wrote ...`` lines do not depend on where the test runs) and compares
stdout and every written file with ``tests/data/golden/<case>/``. ``stdout`` is stored as a file of that
name. The ``metrics_jsonl`` case also runs in a child process through the
package's ``__main__``, which must freeze the heap before ``main`` starts.
To regenerate the files after an intended output change, run

    PYTHONPATH=src python -m tests.test_golden

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import depmetrics
from depmetrics.cli import SETTING_FLAGS, build_config, build_parser, main
from depmetrics.report import TABLES, compute_analyses, load_corpus, output_names, render_outputs

from .command_flags import COMMAND_FLAGS, COMMAND_TABLES, WINDOW
from .golden_cases import (
    CASES, DATA_DIR, GOLDEN_DIR, OUTPUT_DIR, REPORT_INPUTS_AND_SETTINGS, golden_files, single_table_case,
)


def run_case(name: str, workdir: Path, argv: list[str] | None = None) -> dict[str, bytes]:
    """Run one case, or ``argv`` on its fixtures, in ``workdir``; return stdout and every written file by name."""
    fixtures, case_argv = CASES[name]
    argv = argv or case_argv
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
    expected = golden_files(name)
    actual = run_case(name, tmp_path)
    assert sorted(actual) == sorted(expected)
    for file_name, data in expected.items():
        assert actual[file_name] == data, f"{name}/{file_name} differs from the golden copy"


@pytest.mark.parametrize("command", ["dist", "entropy", "trend", "corr", "valency"])
@pytest.mark.parametrize("case", sorted(REPORT_INPUTS_AND_SETTINGS))
def test_single_table_command_writes_the_report_golden_tables(case, command, tmp_path):
    argv, files, expected = single_table_case(case, command)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    actual = run_case(case, tmp_path, argv)
    assert actual.pop("stdout") == expected.pop("stdout")
    assert sorted(actual) == sorted(expected)
    for name, data in expected.items():
        assert actual[name] == data, f"{command} {name} differs from {case}"


@pytest.mark.parametrize("case", sorted(REPORT_INPUTS_AND_SETTINGS))
def test_report_is_the_union_of_the_registry_entries(case, tmp_path, monkeypatch):
    actual = run_case(case, tmp_path)
    monkeypatch.chdir(tmp_path)
    config = build_config(build_parser().parse_args(CASES[case][1]))
    corpus = load_corpus(config)
    results = compute_analyses(config, corpus)
    entry_keys = set().union(*(table.report_json(config, results[name]) for name, table in TABLES.items()))
    report_keys = set(json.loads(actual["report.json"]))
    assert report_keys == entry_keys | {"meta", "length_histogram", "gated", "rejections"}
    for command, tables in COMMAND_TABLES.items():
        rest = ("report.json", "meta.json") if command == "report" else ("meta.json",)
        assert tuple(render_outputs(config, corpus, command, results)) == (*tables, *rest), command
        assert output_names(command) == [*tables, *rest], command
    assert sorted(actual) == sorted([*COMMAND_TABLES["report"], "report.json", "meta.json", "stdout"])
    # each entry's settings map to the flags of tests/command_flags.py beyond the window's
    every_setting = [setting for table in TABLES.values() for setting in table.settings]
    for command, settings in [*((name, table.settings) for name, table in TABLES.items()),
                              ("report", tuple(dict.fromkeys(every_setting)))]:
        flags = tuple(SETTING_FLAGS[setting][0] for setting in settings)
        assert flags == tuple(flag for flag in COMMAND_FLAGS[command] if flag not in WINDOW), command


# Runs the package's __main__ as ``python -m depmetrics`` does, with cli.main
# wrapped to report how many objects were frozen before it started.
ENTRY_POINT_SCRIPT = """
import gc, runpy, sys
from depmetrics import cli
main = cli.main
def reporting_main(argv=None):
    print(f"frozen before main: {gc.get_freeze_count()}", file=sys.stderr)
    return main(argv)
cli.main = reporting_main
runpy.run_module("depmetrics", run_name="__main__", alter_sys=True)
"""


def test_process_entry_point_freezes_the_heap_and_writes_the_golden_metrics(tmp_path):
    fixtures, argv = CASES["metrics_jsonl"]
    for fixture in fixtures:
        shutil.copyfile(DATA_DIR / fixture, tmp_path / fixture)
    (tmp_path / OUTPUT_DIR).mkdir()
    src = str(Path(depmetrics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_SCRIPT, *argv], cwd=tmp_path, env=env, capture_output=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN_DIR / "metrics_jsonl" / "stdout").read_bytes()
    frozen = int(result.stderr.decode().splitlines()[0].removeprefix("frozen before main: "))
    assert frozen > 0
    expected = (GOLDEN_DIR / "metrics_jsonl" / "metrics.jsonl").read_bytes()
    assert (tmp_path / OUTPUT_DIR / "metrics.jsonl").read_bytes() == expected


def test_sample_corpus_script_reproduces_the_committed_fixture(tmp_path):
    src = str(Path(depmetrics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = Path(__file__).parents[1] / "scripts" / "make_sample_corpus.py"
    output = tmp_path / "sample_200.jsonl"
    result = subprocess.run([sys.executable, str(script), str(output)], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert output.read_bytes() == (DATA_DIR / "sample_200.jsonl").read_bytes()


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
