"""``python -m depmetrics`` writing into a pipe whose reader has gone.

A command whose stdout is closed under it must exit 141 (128 + SIGPIPE),
print nothing on stderr but the rejection warnings of its inputs, and leave
no temporary file behind. When the interpreter reports the failed write
depends on the Python version and on how the output is cut into writes, so
the cases run in a child process, as a shell pipeline runs them, with the
child's stdout block-buffered (the default for a pipe) or unbuffered
(``PYTHONUNBUFFERED=1``):

* ``metrics`` and ``generate``, whose outputs are larger than a pipe buffer,
  with the reader closing the pipe after the first line;
* ``validate`` and ``metrics`` on a small corpus, into a pipe whose read end
  is closed before the child starts.

``tests/test_cli.py`` and ``scripts/cross_version_check.py`` run them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "tests" / "data"
GENERATE = ["generate", "--n", "40", "--count", "3000", "--seed", "1"]
GENERATED = "generated.jsonl"  # the output of GENERATE, written into the case's directory
REJECTION_WARNING = "WARNING depmetrics.report: skipping sentence at "

# name -> (argv, whether the reader reads one line before it closes the pipe)
CASES = {
    "metrics-closed-after-one-line": (["metrics", GENERATED, "noisy.jsonl"], True),
    "generate-closed-after-one-line": (GENERATE, True),
    "validate-closed-at-start": (["validate", "sample_200.jsonl"], False),
    "metrics-closed-at-start": (["metrics", "sample_200.jsonl"], False),
}


def run_case(name: str, work: Path, buffered: bool = True) -> tuple[int, list[str], list[str]]:
    """Run case ``name`` in the empty directory ``work``, with a buffered or an unbuffered stdout.

    Returns the exit status, the stderr lines other than rejection warnings,
    and the names left in the child's ``TMPDIR``, a fresh directory.
    """
    argv, after_one_line = CASES[name]
    tmpdir = work / "tmp"
    tmpdir.mkdir()
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "depmetrics"]
    if GENERATED in argv:
        subprocess.run([*command, *GENERATE, "-o", str(work / GENERATED)], env=env, check=True)
    command += [str(work / a) if a == GENERATED else str(DATA_DIR / a) if a.endswith(".jsonl") else a
                for a in argv]
    with open(work / "stderr", "w+b") as stderr:
        if after_one_line:
            child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, env=env)
            assert child.stdout is not None
            child.stdout.readline()
            child.stdout.close()
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                child = subprocess.Popen(command, stdout=write_end, stderr=stderr, env=env)
            finally:
                os.close(write_end)
        status = child.wait(timeout=120)
        stderr.seek(0)
        lines = stderr.read().decode("utf-8", "replace").splitlines()
    others = [line for line in lines if not line.startswith(REJECTION_WARNING)]
    return status, others, sorted(os.listdir(tmpdir))
