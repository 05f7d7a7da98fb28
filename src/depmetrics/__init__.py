"""depmetrics: dependency-treebank distance metrics and corpus analyses.

The names in ``__all__`` are imported from their modules on first use
(PEP 562), so that ``import depmetrics.cli`` loads only the layers a
command runs.
"""

__version__ = "0.2.0"

# Each public name and the module that defines it.
_HOMES = {
    "CorrelationResult": "stats",
    "Distribution": "stats",
    "MetricRecord": "metrics",
    "Node": "treebank",
    "RegressionResult": "stats",
    "Sentence": "treebank",
    "ValencyLexicon": "treebank",
    "entropy": "stats",
    "metric_record": "metrics",
    "ols_fit": "stats",
    "parse": "treebank",
    "serialize_canonical": "treebank",
    "spearman": "stats",
    "validate_tree": "treebank",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
