"""The flags of ``RunConfig`` settings that each corpus command takes: those its outputs read.

Besides these, every corpus command takes ``PATH...``, ``--format`` and
``--config``, and ``metrics`` takes ``-o/--output``. ``tests/test_cli.py``
and ``scripts/cross_version_check.py`` check the command line against this
table, which the README's table of flags gives as well.

``COMMAND_TABLES`` gives the tables each table command writes, in order;
``tests/test_golden.py`` checks the outputs against it.
"""

WINDOW = ("--drop-punct", "--sl-min", "--sl-max", "--output-dir")

COMMAND_FLAGS: dict[str, tuple[str, ...]] = {
    "validate": ("--drop-punct",),
    "metrics": ("--drop-punct",),
    "dist": (*WINDOW, "--dist-sls"),
    "entropy": (*WINDOW, "--min-bucket", "--entropy-base"),
    "trend": WINDOW,
    "corr": (*WINDOW, "--min-bucket"),
    "valency": (*WINDOW, "--valency-mode", "--lexicon", "--log-base"),
    "report": (*WINDOW, "--dist-sls", "--min-bucket", "--entropy-base", "--valency-mode", "--lexicon",
               "--log-base"),
}

RUN_CONFIG_FLAGS = COMMAND_FLAGS["report"]

# command -> the CSV tables it writes into --output-dir, in order; each also writes meta.json,
# and report writes report.json between its tables and meta.json
COMMAND_TABLES: dict[str, tuple[str, ...]] = {
    "dist": ("dist.csv",),
    "entropy": ("entropy.csv", "entropy_gated.csv"),
    "trend": ("trend.csv",),
    "corr": ("corr.csv", "corr_gated.csv"),
    "valency": ("valency.csv", "valency_fit.csv"),
    "report": ("dist.csv", "entropy.csv", "entropy_gated.csv", "trend.csv", "corr.csv", "corr_gated.csv",
               "valency.csv", "valency_fit.csv"),
}
