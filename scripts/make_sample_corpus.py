#!/usr/bin/env python3
"""Regenerate tests/data/sample_200.jsonl: 10 uniform random trees per size 2..21.

    PYTHONPATH=src python scripts/make_sample_corpus.py [OUTPUT]

The file is committed so tests and README examples have a stable corpus;
rerunning this script reproduces it byte for byte. OUTPUT defaults to the
committed file.
"""

import sys
from pathlib import Path

from depmetrics.randtree import RNG_NAME, GeneratorConfig, generate
from depmetrics.report import TOOL_NAME
from depmetrics.treebank import serialize_canonical

SEED = 777
SIZES = range(2, 22)
PER_SIZE = 10
# The version that wrote the committed file. Its header is input data, not
# run metadata: the golden outputs pin the file's SHA-256.
MADE_BY_VERSION = "0.1.0"

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "sample_200.jsonl"


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    lines = [
        f"# {TOOL_NAME} {MADE_BY_VERSION} sample corpus: "
        f"{PER_SIZE} uniform random trees per size in {SIZES.start}..{SIZES.stop - 1}, "
        f"seed {SEED}, rng {RNG_NAME} (scripts/make_sample_corpus.py)"
    ]
    for n in SIZES:
        config = GeneratorConfig(n=n, seed=SEED, count=PER_SIZE)
        lines.extend(serialize_canonical(sentence) for sentence in generate(config))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {out} ({len(lines) - 1} sentences)")


if __name__ == "__main__":
    main()
