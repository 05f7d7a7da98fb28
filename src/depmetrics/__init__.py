"""depmetrics: dependency-treebank distance metrics and corpus analyses."""

__version__ = "0.2.0"

from .metrics import MetricRecord, metric_record
from .stats import (
    CorrelationResult,
    Distribution,
    RegressionResult,
    entropy,
    ols_fit,
    spearman,
)
from .treebank import (
    Node,
    Sentence,
    ValencyLexicon,
    parse,
    serialize_canonical,
    validate_tree,
)

__all__ = [
    "__version__",
    "CorrelationResult",
    "Distribution",
    "MetricRecord",
    "Node",
    "RegressionResult",
    "Sentence",
    "ValencyLexicon",
    "entropy",
    "metric_record",
    "ols_fit",
    "parse",
    "serialize_canonical",
    "spearman",
    "validate_tree",
]
