"""Outside-in per-layer tracing of depmetrics, with no edit to the package.

``Tracer.install`` wraps the public functions of each layer (the package's
modules) by replacing every module attribute that holds them, which is what
their callers look up at call time. Each wrapper records calls, busy time
and self time (busy time minus the time of wrapped calls made inside it)
and lets every exception through, so skip-mode parsing still sees its
``InvalidTree``. A function that a later version removes or renames is
listed as absent instead of failing the run.

Run as a script, it is the traced CLI run:

    python bench/layertrace.py SRC_DIR TRACE_JSON -- report a.conllu ...

It times ``import depmetrics.cli``, installs the wrappers and a
``gc.callbacks`` hook, calls ``cli.main(argv)`` in this process and writes
the spans to TRACE_JSON.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import sys
import time
from typing import Callable

PACKAGE = "depmetrics"
RENDER = (
    "render_dist_csv", "render_entropy_csv", "render_entropy_gated_csv", "render_trend_csv",
    "render_corr_csv", "render_corr_gated_csv", "render_valency_csv", "render_valency_fit_csv",
    "report_json_dict", "run_meta", "json_text",
)
ANALYSES = (
    "length_histogram", "pooled_distribution", "conditional_distributions", "entropy_by_sl",
    "mean_metric_by_sl", "find_intersection", "spearman_by_sl", "valency_conditioned_counts",
    "fit_valency_models",
)
STATS = ("entropy", "spearman", "ols_fit")
LAYERS = {
    "cli": ("main",),
    "report": ("load_corpus", "compute_analyses", "write_outputs", *RENDER),
    "treebank": ("parse", "validate_tree"),
    "metrics": ("metric_record", "node_depths"),
    "analysis": ANALYSES,
    "stats": STATS,
    "randtree": ("generate",),
}


def _count_parse(counts: dict, args: tuple, kwargs: dict, result: object) -> None:
    # load_corpus passes a fresh rejections list per file
    counts["accepted"] += len(result)  # type: ignore[arg-type]
    counts["rejected"] += len(kwargs["rejections"])


def _count_validate(counts: dict, args: tuple, kwargs: dict) -> None:
    counts["nodes_in"] += len(args[0].nodes)


# Counters read from a call's arguments or result. ``before`` hooks also see
# calls that raise, such as a tree that fails validation.
AFTER: dict[str, Callable] = {"treebank.parse": _count_parse}
BEFORE: dict[str, Callable] = {"treebank.validate_tree": _count_validate}
HOOK_COUNTS = {"treebank.parse": ("accepted", "rejected"), "treebank.validate_tree": ("nodes_in",)}


class Tracer:
    """Per-function spans: name -> [calls, busy seconds, self seconds]."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: list[list[float]] = []
        self._gc_start = 0.0
        self._broken_hooks: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def install(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
        for layer, names in layers.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._replace(original, self._wrap(f"{layer}.{name}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _replace(self, original: object, wrapper: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _hook(self, name: str, hook: Callable, args: tuple, kwargs: dict, *result: object) -> None:
        if name in self._broken_hooks:
            return
        try:
            hook(self.counts, args, kwargs, *result)
        except (AttributeError, KeyError, TypeError, IndexError):
            # the call no longer has the shape the counter reads: drop the counter
            self._broken_hooks.add(name)
            for key in HOOK_COUNTS[name]:
                self.counts.pop(key, None)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        self.spans[name] = [0, 0.0, 0.0]
        for key in HOOK_COUNTS.get(name, ()):
            self.counts[key] = 0
        before, after = BEFORE.get(name), AFTER.get(name)
        span, stack, clock = self.spans[name], self._stack, time.perf_counter

        def timed(call: Callable, *args: object, **kwargs: object) -> object:
            frame = [0.0]  # time spent in wrapped calls made from inside this one
            stack.append(frame)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span[1] += elapsed
                span[2] += elapsed - frame[0]

        def wrapper(*args: object, **kwargs: object) -> object:
            span[0] += 1
            if before is not None:
                self._hook(name, before, args, kwargs)
            result = timed(fn, *args, **kwargs)
            if after is not None:
                self._hook(name, after, args, kwargs, result)
            return result

        def generator_wrapper(*args: object, **kwargs: object):
            span[0] += 1
            iterator = timed(fn, *args, **kwargs)
            while True:
                try:
                    item = timed(next, iterator)
                except StopIteration:
                    return
                self.counts[name] = self.counts.get(name, 0) + 1
                yield item

        return functools.wraps(fn)(generator_wrapper if inspect.isgeneratorfunction(fn) else wrapper)

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def to_json_dict(self) -> dict[str, object]:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "absent": self.absent,
            "gc": {"pause_s": self.gc_pause_s, "collections": self.gc_collections},
        }


def main(argv: list[str]) -> int:
    src, out_path, separator, *cli_argv = argv
    if separator != "--":
        print("usage: layertrace.py SRC_DIR TRACE_JSON -- CLI_ARG...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    start = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    gc.callbacks.append(tracer.on_gc)
    start = time.perf_counter()
    try:
        exit_code = cli.main(cli_argv)
    finally:
        gc.callbacks.remove(tracer.on_gc)
    main_s = time.perf_counter() - start
    result = {"exit_code": exit_code, "import_s": import_s, "main_s": main_s, **tracer.to_json_dict()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
