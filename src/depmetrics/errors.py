"""Exception taxonomy for the toolkit.

Parsers raise the ingestion errors per sentence; callers may instead run in
skip mode and collect them as rejections (see ``treebank``).
"""


class DepMetricsError(Exception):
    """Base class for all toolkit errors."""


# --- ingestion ---------------------------------------------------------


class InvalidEncoding(DepMetricsError):
    """Input bytes that are not UTF-8; the message names the input and the byte offset."""


class MalformedLine(DepMetricsError):
    """An input line that cannot be interpreted in the declared format."""


class MalformedChunkHeader(DepMetricsError):
    """A CaboCha chunk header line that does not match '* IDX HEADD ...'."""


class MissingEOS(DepMetricsError):
    """CaboCha stream ended with a partial sentence (no terminating EOS)."""


class InvalidTree(DepMetricsError):
    """The head relation of a sentence does not form a single rooted tree."""


class MultipleRoots(InvalidTree):
    pass


class NoRoot(InvalidTree):
    pass


class CycleDetected(InvalidTree):
    pass


class SelfLoop(InvalidTree):
    pass


# --- metrics ------------------------------------------------------------


class TooShort(DepMetricsError):
    """Sentence has fewer than 2 nodes, so mean distances are undefined."""


# --- stats --------------------------------------------------------------


class EmptyDistribution(DepMetricsError):
    pass


class DegenerateInput(DepMetricsError):
    """Constant or too-small sample where a statistic is undefined."""


class NonPositiveX(DepMetricsError):
    """Log-linear regression received a regressor value <= 0."""


# --- analysis -----------------------------------------------------------


class EmptySelection(DepMetricsError):
    """No sentences matched the requested length window."""


class EmptyLexicon(DepMetricsError):
    pass


# --- generation ---------------------------------------------------------


class ConstraintUnsatisfiable(DepMetricsError):
    pass


# --- cli ----------------------------------------------------------------


class ConfigError(DepMetricsError):
    pass


#: Errors that indicate bad input data rather than bad configuration or a bug.
INPUT_ERRORS = (
    InvalidEncoding,
    MalformedLine,
    MalformedChunkHeader,
    MissingEOS,
    InvalidTree,
    EmptySelection,
    EmptyLexicon,
    OSError,
)
