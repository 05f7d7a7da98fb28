"""Command-line surface.

Subcommands: validate, metrics, dist, entropy, trend, corr, valency, report,
generate. Settings come from flags or a single JSON config file; explicit
flags override the file. Each corpus command takes only the flags of the
settings its outputs read (``build_parser``), so argparse refuses any other
(exit 2); the config file is shared by every command and may set any
setting. Exit codes: 0 success, 1 input error, 2 config or usage error, 3
internal error, 141 (128 + SIGPIPE) when stdout is closed before the output
is written, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import logging
import os
import sys
import tempfile
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import __version__
from .errors import INPUT_ERRORS, ConfigError
from .metrics import metric_record
from .report import (
    ENTROPY_BASES,
    LOG_BASES,
    TABLES,
    TOOL_NAME,
    VALENCY_MODES,
    CountOnly,
    RunConfig,
    compute_analyses,
    load_corpus,
    render_outputs,
    run_meta,
    table_commands,
    write_files,
    write_outputs,
)
from .treebank import FORMATS, Sentence, _ascii_int, serialize_canonical

_EXTENSION_FORMATS = {
    ".conllu": "conllu",
    ".conll": "conllu",
    ".cabocha": "cabocha",
    ".cab": "cabocha",
    ".jsonl": "canonical",
    ".ndjson": "canonical",
}

# Config-file keys are the RunConfig settings; a value must have the type of the setting's default.
_CONFIG_ANNOTATIONS: dict[str, str] = RunConfig.__annotations__


def infer_format(path: str) -> str:
    suffix = Path(path).suffix.lower()
    if suffix not in _EXTENSION_FORMATS:
        raise ConfigError(
            f"cannot infer format of {path!r} from its extension; pass --format"
        )
    return _EXTENSION_FORMATS[suffix]


def integer(text: str) -> int:
    """The type of every integer flag: an optional '-' and then ASCII digits, not all that int() reads."""
    if text.startswith("-"):
        return -_ascii_int(text[1:])
    return _ascii_int(text)


def _parse_dist_sls(value: str) -> tuple[int, ...]:
    """The type of ``--dist-sls``: integers as :func:`integer`, comma-separated, with spaces around each."""
    try:
        return tuple(integer(part.strip()) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a comma-separated integer list, got {value!r}") from None


def _is_input_entry(entry: object) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("path"), str)
        and isinstance(entry.get("format", ""), (str, type(None)))
    )


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the optional JSON config file, and explicit flags; at least one input is required."""
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:  # bad UTF-8, integer digit limit, nesting depth
            raise ConfigError(f"{args.config}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
        for key, value in raw.items():
            if key not in _CONFIG_ANNOTATIONS:
                raise ConfigError(f"{args.config}: unknown config key {key!r}")
            expected = _CONFIG_ANNOTATIONS[key]
            if key == "inputs":
                expected = 'a list of {"path": str, "format"?: str} objects'
                ok = isinstance(value, list) and all(map(_is_input_entry, value))
                for entry_key in chain.from_iterable(value if ok else []):
                    if entry_key not in ("path", "format"):
                        raise ConfigError(f"{args.config}: unknown input entry key {entry_key!r}")
            elif key == "dist_sls":  # a JSON list for the tuple
                ok = isinstance(value, list) and all(type(sl) is int for sl in value)
            elif key == "lexicon_path":  # a path, or null as by default
                ok = value is None or type(value) is str
            else:  # exact: a bool is no int, an int no float
                ok = type(value) is type(getattr(RunConfig, key))
            if not ok:
                raise ConfigError(f"{args.config}: {key!r} must be {expected}, got {json.dumps(value)}")
            values[key] = value
        if "dist_sls" in values:
            values["dist_sls"] = tuple(values["dist_sls"])

    for key in _CONFIG_ANNOTATIONS:
        flag = getattr(args, key, None)
        if key != "inputs" and flag is not None:
            values[key] = flag

    if getattr(args, "inputs", None):
        fmt = getattr(args, "format", None)
        values["inputs"] = [(path, fmt or infer_format(path)) for path in args.inputs]
    elif "inputs" in values:
        values["inputs"] = [
            (entry["path"], entry.get("format") or infer_format(entry["path"]))
            for entry in values["inputs"]
        ]

    config = RunConfig(**values)  # type: ignore[arg-type]
    config.validate()
    if not config.inputs:
        raise ConfigError("no input files given (pass paths or a config file with 'inputs')")
    return config


def cmd_validate(args: argparse.Namespace) -> int:
    config = build_config(args)
    corpus = load_corpus(config, CountOnly)
    print("# " + json.dumps(run_meta(config, corpus, "validate"), sort_keys=True))
    for summary in corpus.inputs:
        print(f"{summary.path}: {summary.accepted} accepted, {summary.rejected} rejected")
    for rejection in corpus.rejections:
        print(f"  {rejection.source}: {rejection.reason}")
    print(f"TOTAL: {corpus.accepted} accepted, {len(corpus.rejections)} rejected")
    return 0 if corpus.accepted else 1


METRIC_BATCH = 1 << 10  # metric lines a fold holds before it writes them to a file


class MetricLines:
    """The fold of ``metrics``: one JSON metric record per sentence, in input order.

    A fold writes its lines to temporary files in ``directory``,
    ``METRIC_BATCH`` at a time, so that no process holds them all. ``merge``
    lists the other fold's files after this fold's, and :meth:`texts` reads
    them all back in that order.
    """

    __slots__ = ("directory", "files", "lines")

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.files: list[str] = []
        self.lines: list[str] = []  # the lines after the files

    def add(self, sentence: Sentence) -> None:
        self.lines.append(metric_record(sentence).json_line())
        if len(self.lines) >= METRIC_BATCH:
            self._write_lines()

    def merge(self, other: MetricLines) -> None:
        self._write_lines()
        self.files += other.files
        self.lines = list(other.lines)

    def _write_lines(self) -> None:
        if self.lines:
            with tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", newline="", suffix=".jsonl", dir=self.directory, delete=False
            ) as handle:
                handle.write("".join(line + "\n" for line in self.lines))
            self.files.append(handle.name)
            self.lines = []

    def texts(self) -> Iterator[str]:
        """Every line, with its LF, in pieces of at most ``METRIC_BATCH`` lines."""
        for path in self.files:
            with open(path, encoding="utf-8", newline="") as handle:
                yield handle.read()
        yield "".join(line + "\n" for line in self.lines)


def cmd_metrics(args: argparse.Namespace) -> int:
    config = build_config(args)
    if args.output and os.path.exists(args.output):
        for path, _ in config.inputs:
            if os.path.exists(path) and os.path.samefile(path, args.output):
                raise ConfigError(
                    f"the output {args.output!r} is the input {path!r}; writing it would replace the corpus")
    with tempfile.TemporaryDirectory(prefix="depmetrics-") as directory:
        corpus = load_corpus(config, partial(MetricLines, directory))
        header = "# " + json.dumps(run_meta(config, corpus, "metrics"), sort_keys=True)
        _write_text(args.output, chain([header + "\n"], corpus.fold.texts()))
    return 0


def _write_text(output: str | None, pieces: Iterable[str]) -> None:
    """Write the pieces to the ``-o`` file, replacing it only once all are written, or to stdout, if any."""
    if output:
        write_files({Path(output): pieces})
    elif sys.stdout is not None:  # None when the process started without fd 1, where print() writes nothing
        sys.stdout.writelines(pieces)


def cmd_tables(args: argparse.Namespace, command: str) -> int:
    """Write the files of table command ``command`` (``report.render_outputs``)."""
    config = build_config(args)
    corpus = load_corpus(config)
    files = render_outputs(config, corpus, command, compute_analyses(config, corpus, command))
    for path in write_outputs(config.output_dir, files):
        print(f"wrote {path}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .randtree import RNG_NAME, GeneratorConfig, generate

    constraint = args.constraint
    if args.max_root_out_degree is not None:
        if constraint is not None:
            raise ConfigError("--constraint and --max-root-out-degree are mutually exclusive")
        constraint = "max_root_out_degree"
    settings = {
        "n": args.n,
        "seed": args.seed,
        "count": args.count,
        "constraint": constraint,
        "max_root_out_degree": args.max_root_out_degree,
    }
    try:
        gen_config = GeneratorConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    echo = {**settings, "tool": TOOL_NAME, "version": __version__, "command": "generate", "rng": RNG_NAME}
    header = "# " + json.dumps(echo, sort_keys=True) + "\n"
    trees = (serialize_canonical(sentence) + "\n" for sentence in generate(gen_config))
    _write_text(args.output, chain([header], trees))
    return 0


def _add_corpus_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("inputs", nargs="*", metavar="PATH", help="input corpus files")
    sub.add_argument(
        "--format",
        choices=sorted(FORMATS),
        help="format of all inputs (default: infer from file extension)",
    )
    sub.add_argument("--config", help="JSON config file; explicit flags override it")
    sub.add_argument("--drop-punct", action="store_true", default=None,
                     help="drop PUNCT nodes (CoNLL-U inputs only)")


# The flag of each setting that only tables read; a table command takes those of _EVERY_TABLE
# and of the settings of the TABLES entries it runs.
SETTING_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    "sl_min": ("--sl-min", {"type": integer}),
    "sl_max": ("--sl-max", {"type": integer}),
    "output_dir": ("--output-dir", {}),
    "dist_sls": ("--dist-sls", {"type": _parse_dist_sls,
                                "help": "comma-separated lengths for conditional distributions"}),
    "min_bucket": ("--min-bucket", {"type": integer,
                                    "help": "minimum sentences per length for entropy/correlation points"}),
    "valency_mode": ("--valency-mode", {"choices": VALENCY_MODES}),
    "lexicon_path": ("--lexicon", {"help": "valency lexicon TSV (lemma<TAB>class) for --valency-mode "
                                           "lexicon"}),
    "entropy_base": ("--entropy-base", {"choices": tuple(ENTROPY_BASES)}),
    "log_base": ("--log-base", {"choices": tuple(LOG_BASES)}),
}
_EVERY_TABLE = ("sl_min", "sl_max", "output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Dependency distance / hierarchical distance metrics over parsed corpora.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("validate", help="check inputs and report accepted/rejected counts")
    _add_corpus_args(sub)
    sub.set_defaults(func=cmd_validate)
    sub = subparsers.add_parser("metrics", help="dump per-sentence metric records as JSONL")
    _add_corpus_args(sub)
    sub.add_argument("-o", "--output", help="write to a file instead of stdout")
    sub.set_defaults(func=cmd_metrics)
    helps = {name: table.help for name, table in TABLES.items()}
    for name, help_text in (*helps.items(), ("report", "write every table plus report.json")):
        sub = subparsers.add_parser(name, help=help_text)
        _add_corpus_args(sub)
        settings = chain(_EVERY_TABLE, *(TABLES[entry].settings for entry in table_commands(name)))
        for setting in dict.fromkeys(settings):
            flag, options = SETTING_FLAGS[setting]
            sub.add_argument(flag, dest=setting, **options)
        sub.set_defaults(func=partial(cmd_tables, command=name))

    sub = subparsers.add_parser("generate", help="generate a random-tree corpus (canonical JSONL)")
    sub.add_argument("--n", type=integer, required=True, help="nodes per sentence")
    sub.add_argument("--count", type=integer, default=1, help="number of sentences")
    sub.add_argument("--seed", type=integer, required=True)
    sub.add_argument("--constraint", choices=("chain", "star"))
    sub.add_argument("--max-root-out-degree", type=integer, dest="max_root_out_degree")
    sub.add_argument("-o", "--output", help="write to a file instead of stdout")
    sub.set_defaults(func=cmd_generate)
    return parser


EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE: what a shell reports for `yes | head -1`


def main(argv: list[str] | None = None) -> int:
    """Run one command; its output is flushed before it returns, so that a closed stdout shows here."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return status
    except BrokenPipeError:  # the reader of stdout has gone: nothing to tell it
        return EXIT_CLOSED_STDOUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def entry_point() -> int:
    """Run :func:`main` as the process: ``python -m depmetrics`` and the ``depmetrics`` script.

    It first calls ``gc.freeze``, which moves every object the imports made
    to the permanent generation: no later collection walks them, here or in
    the workers this process forks, and the interpreter does not deallocate
    them at exit. ``main`` itself never freezes, because a process that
    calls it many times would keep the garbage of each call.

    A strict stdout is switched to ``backslashreplace``, as stderr already
    is: a character that its encoding lacks, in a path or a rejection
    reason, is written as ``\\uXXXX``. When stdout was closed under the
    command, fd 1 then points at the null device, so that the interpreter's
    last flush at exit stays silent. ``main`` touches neither the stream
    nor fd 1, since it may run inside another program.
    """
    gc.freeze()
    # None when the process started without fd 1; a handler other than strict was chosen on purpose
    if isinstance(sys.stdout, io.TextIOWrapper) and sys.stdout.errors == "strict":
        sys.stdout.reconfigure(errors="backslashreplace")
    status = main()
    if status == EXIT_CLOSED_STDOUT:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(entry_point())
