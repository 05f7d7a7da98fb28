"""Which of the optional modules a CLI run loads, on the running Python.

A command should import only the layers it runs: ``metrics`` and
``validate`` neither the analyses nor the statistics, no corpus command the
random-tree generator, and none of them ``dataclasses``, whose decorators
generate code at import. ``tests/test_startup.py`` and
``scripts/cross_version_check.py`` check each case of ``CASES`` with
:func:`loaded`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = str(ROOT / "tests" / "data" / "sample_200.jsonl")

WATCHED = ("dataclasses", "depmetrics.analysis", "depmetrics.stats", "depmetrics.randtree")

# case -> (CLI arguments, None for the import alone; the watched modules the run loads)
CASES: dict[str, tuple[list[str] | None, set[str]]] = {
    "import depmetrics.cli": (None, set()),
    "metrics": (["metrics", SAMPLE, "-o", "metrics.jsonl"], set()),
    "report": (["report", SAMPLE, "--output-dir", "out"], {"depmetrics.analysis", "depmetrics.stats"}),
    "generate": (["generate", "--n", "5", "--seed", "1", "-o", "trees.jsonl"], {"depmetrics.randtree"}),
}

# The modules of the bare interpreter are taken first; the last line printed
# holds the modules that importing the CLI and running the command added.
PROBE = """\
import sys
bare = set(sys.modules)
from depmetrics import cli
status = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
import json
print(json.dumps([status, sorted(set(sys.modules) - bare)]))
"""


def loaded(argv: list[str] | None, workdir: Path) -> set[str]:
    """The watched modules that a fresh interpreter loads to import the CLI and run ``argv`` in ``workdir``.

    A run that does not exit 0 raises ``RuntimeError``.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", PROBE, *(argv or [])], cwd=workdir, env=env,
                            capture_output=True, text=True)
    if result.returncode != 0 or not result.stdout:
        raise RuntimeError(f"probe exited {result.returncode}: {result.stderr.strip()[-300:]}")
    status, added = json.loads(result.stdout.splitlines()[-1])
    if status != 0:
        raise RuntimeError(f"{argv} exited {status}: {result.stderr.strip()[-300:]}")
    return set(added) & set(WATCHED)
