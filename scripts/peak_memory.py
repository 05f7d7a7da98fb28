"""Peak memory of one ``python -m depmetrics`` run, measured from a small parent process.

    python3 scripts/peak_memory.py report corpus.cabocha --output-dir out

runs ``python -m depmetrics ARGS`` with this checkout's ``src/`` first on
``PYTHONPATH`` and its standard output discarded, and prints two figures,
in MB:

* ``peak_rss_mb``: the CLI process's own high-water mark, ``VmHWM`` in
  ``/proc/<pid>/status``. A process started from a large parent can inherit
  that parent's mark in ``wait4``'s ``ru_maxrss``; ``VmHWM`` is its own.
* ``peak_tree_pss_mb``: the largest sum of ``Pss`` (``/proc/<pid>/smaps_rollup``)
  over the CLI process and every process below it, such as the workers it
  forks. Proportional set size splits the pages that forked processes share,
  so the sum counts each page once.

Both are polled every ``--interval`` seconds until the CLI exits, so growth
in the last interval before it exits can be missed. Linux only. The exit
status of the run is printed and returned. To measure one worker, limit the
CPUs the run may use, e.g. ``taskset -c 0 python3 scripts/peak_memory.py ...``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _field_kb(path: str, name: str) -> int | None:
    """The value in kB of the ``name:`` line of a /proc file, or None once the process is gone."""
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith(name + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return None


def _descendants(pid: int) -> list[int]:
    """``pid`` and every process below it, from the ``children`` files of each thread."""
    found = [pid]
    for parent in found:
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children", encoding="ascii") as handle:
                    found.extend(int(child) for child in handle.read().split())
            except FileNotFoundError:
                continue
    return found


def measure(args: list[str], interval: float) -> tuple[int, float, float]:
    """Run the CLI with ``args``; return its exit status, peak RSS and peak tree PSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "depmetrics", *args]
    process = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    peak_rss = peak_pss = 0
    while process.poll() is None:
        rss = _field_kb(f"/proc/{process.pid}/status", "VmHWM")
        if rss is not None:
            peak_rss = max(peak_rss, rss)
        pss = [_field_kb(f"/proc/{pid}/smaps_rollup", "Pss") for pid in _descendants(process.pid)]
        peak_pss = max(peak_pss, sum(value for value in pss if value is not None))
        time.sleep(interval)
    return process.returncode, peak_rss / 1024, peak_pss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--interval", type=float, default=0.002, help="seconds between polls")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="arguments of python -m depmetrics")
    options = parser.parse_args(argv)
    args = options.args[1:] if options.args[:1] == ["--"] else options.args
    status, rss, pss = measure(args, options.interval)
    print(f"exit_status = {status}")
    print(f"peak_rss_mb = {rss:.1f}")
    print(f"peak_tree_pss_mb = {pss:.1f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
