"""Exception taxonomy for the toolkit.

Parsers raise the ingestion errors per sentence; callers may instead run in
skip mode and collect them as rejections (see ``treebank``). The class of an
error decides the CLI's exit status: 1 for an :class:`InputError` (and an
``OSError``), 2 for a :class:`ConfigError`, 3 for any other error.
"""


class DepMetricsError(Exception):
    """Base class for all toolkit errors."""


class InputError(DepMetricsError):
    """Bad input data, rather than bad configuration or a bug."""


# --- ingestion ---------------------------------------------------------


class InvalidEncoding(InputError):
    """Input bytes that are not UTF-8; the message names the input and the byte offset."""


class MalformedLine(InputError):
    """An input line that cannot be interpreted in the declared format."""


class MalformedChunkHeader(InputError):
    """A CaboCha chunk header line that does not match '* IDX HEADD ...'."""


class MissingEOS(InputError):
    """CaboCha stream ended with a partial sentence (no terminating EOS)."""


class InvalidTree(InputError):
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


class EmptySelection(InputError):
    """No sentences matched the requested length window."""


class EmptyLexicon(InputError):
    pass


# --- cli ----------------------------------------------------------------


class ConfigError(DepMetricsError):
    pass


# --- generation ---------------------------------------------------------


class ConstraintUnsatisfiable(ConfigError):
    pass


#: Errors that indicate bad input data rather than bad configuration or a bug.
INPUT_ERRORS = (InputError, OSError)
