"""Exception types shared across the package, the one call that reads an
input file, and the calls that make or check an output path."""

import os


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
    """An input file cannot be read, is not UTF-8 text, or is not valid JSON."""


class EdgeListError(QnrouteError, ValueError):
    """An edge list breaks a rule of ``topology.graph_from_edges``. ``position``
    is the bad edge's index, or None when the list has too few edges."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class GraphFileError(InputFileError, ValueError):
    """A graph file has a bad header or a malformed edge line."""


class SchemeDocumentError(QnrouteError):
    """A scheme document has another schema version, a missing or unknown field, or an
    invalid value."""


class OutputPathError(QnrouteError):
    """An output file or directory cannot be made where its path points."""


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; an ``InputFileError`` naming it
    if it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputFileError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise InputFileError(f"{path} is not UTF-8: {err.reason} at byte {err.start}") from None


def open_output(path, newline=None):
    """``path`` opened for writing text; an ``OutputPathError`` naming it if
    it cannot be."""
    try:
        return open(path, "w", newline=newline)
    except OSError as err:
        raise OutputPathError(f"cannot write {path}: {err.strerror}") from None


def make_output_dir(path) -> None:
    """Make the directory ``path`` and its parents unless it exists; an
    ``OutputPathError`` naming it if it cannot be made."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise OutputPathError(f"cannot make directory {path}: {err.strerror}") from None


def check_output_dir(path) -> None:
    """An ``OutputPathError`` naming ``path`` unless the directory it would be
    written in exists, so that a command can refuse it before any work."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OutputPathError(f"cannot write {path}: {parent} is not a directory")
