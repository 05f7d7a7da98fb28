"""Check the ``metrics`` output on the running Python, with neither pytest nor hypothesis.

    python scripts/cross_version_check.py [--examples N]

``MetricRecord.json_line`` writes the text of ``json.dumps(...,
sort_keys=True)`` by hand, so float ``repr``, ``round`` and json's ASCII
string encoder must behave alike on every supported Python version. The
script compares the writer with the ``json.dumps`` reference of
``tests/reference_metrics.py`` on N seeded random trees of 2-60 nodes with
random ids (quotes, backslashes, control characters, non-ASCII and
non-BMP characters, lone surrogates, U+2028/U+2029), and on trees whose
histogram keys pass the writer's 1,024-key table. It then runs the
``metrics_jsonl`` golden case through ``python -m depmetrics`` and compares
the bytes. It prints one line per check and exits 0 when all of them pass.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from depmetrics.metrics import metric_record  # noqa: E402
from depmetrics.randtree import GeneratorConfig, chain_heads, random_tree, star_heads  # noqa: E402
from depmetrics.treebank import Sentence, validate_tree  # noqa: E402
from tests import reference_metrics  # noqa: E402

SPECIAL_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029",
                 "\ud800", "\udfff", "\U0001f600", "\u00e9"]
GOLDEN = ROOT / "tests" / "data" / "golden" / "metrics_jsonl"
GOLDEN_ARGV = ["metrics", "sample_200.jsonl", "noisy.jsonl", "-o", "out/metrics.jsonl"]


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


def golden_metrics_matches() -> bool:
    """Whether ``python -m depmetrics`` writes the golden ``metrics_jsonl`` bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("sample_200.jsonl", "noisy.jsonl"):
            shutil.copyfile(ROOT / "tests" / "data" / name, Path(tmp) / name)
        (Path(tmp) / "out").mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                         os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-m", "depmetrics", *GOLDEN_ARGV],
                                cwd=tmp, env=env, capture_output=True)
        return (
            result.returncode == 0
            and result.stdout == (GOLDEN / "stdout").read_bytes()
            and (Path(tmp) / "out" / "metrics.jsonl").read_bytes() == (GOLDEN / "metrics.jsonl").read_bytes()
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=2000, help="random trees to compare (default 2000)")
    args = parser.parse_args()
    print(f"python {sys.version.split()[0]}")
    compared, bad = writer_mismatches(args.examples)
    print(f"json_line vs json.dumps: {compared - len(bad)} of {compared} agree"
          + (f"; differ: {', '.join(bad[:5])}" if bad else ""))
    golden = golden_metrics_matches()
    print(f"metrics_jsonl golden via python -m depmetrics: {'identical' if golden else 'DIFFERS'}")
    return 0 if golden and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
