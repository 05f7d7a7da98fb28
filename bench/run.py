"""Benchmark of the depmetrics CLI on seeded corpora in its three input formats.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from a checkout of the repository: it imports the package from
``src/`` and runs ``python -m depmetrics`` there. The last line of its
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. ``--workload all`` runs every workload
and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "depmetrics" / "__init__.py").is_file():
        print(f"bench: no depmetrics package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure

    return measure.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
