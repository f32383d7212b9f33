"""Exception types shared across the package."""


class QnrouteError(Exception):
    """Base class for all package errors."""


class GenerationFailedError(QnrouteError):
    """Graph generator failed to produce a connected graph."""


class UnreachableError(QnrouteError):
    """No path exists between the requested endpoints."""


class NeighborhoodSizeError(QnrouteError):
    """Requested e-neighborhood size is not smaller than the node count."""


class ChainViolationError(QnrouteError):
    """An inequality in the stretch-bound derivation failed on a concrete path.

    Carries the evaluated trace so callers can inspect which step broke.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DepletedLinkError(QnrouteError):
    """A path segment has no entangled pairs left to consume."""


class MetricError(QnrouteError):
    """A metric name is not registered, or its parameters do not fit it."""


class UnknownMetricError(MetricError, KeyError):
    """No metric is registered under the requested name."""

    def __str__(self) -> str:
        # KeyError would quote the message
        return str(self.args[0])


class PartitionCountError(QnrouteError):
    """More partitions requested than there are members to split."""


class ConfigError(QnrouteError):
    """Experiment configuration is invalid; message names the offending field."""


class MismatchedSeedsError(QnrouteError):
    """Paired comparison requires both configurations to share seeds."""


class DuplicateEntryError(QnrouteError):
    """A routing table already holds an entry for the peer being added."""


class InvalidRequestError(QnrouteError):
    """A route or lookup request names an unknown node or a degenerate pair."""


class InputFileError(QnrouteError):
    """An input file cannot be read or is not valid JSON."""


class GraphFileError(InputFileError, ValueError):
    """A graph file has a bad header or a malformed edge line."""


class SchemeDocumentError(QnrouteError):
    """A scheme document has another schema version, a missing or unknown field, or an
    invalid value."""
