"""Exception hierarchy for the iotrisk package.

Everything raised on purpose derives from :class:`IotRiskError` so callers can
catch package failures with a single except clause.  Graph-validity findings
are *not* exceptions (see :mod:`iotrisk.graph`); these classes cover contract
violations and unusable inputs.
"""

from __future__ import annotations


class IotRiskError(Exception):
    """Base class for all iotrisk errors."""


class InvalidArgument(IotRiskError, ValueError):
    """A library call got an argument outside its documented range, such as
    a sample count below 1.  It is also a :class:`ValueError`, so callers
    that catch the built-in keep working."""


# ---------------------------------------------------------------- graph layer

class UnknownNode(IotRiskError):
    """A node id was referenced that does not exist in the graph/model."""


class CyclicGraph(IotRiskError):
    """An operation requiring an acyclic graph found a cycle."""


# ------------------------------------------------------------ inference layer

class ModelError(IotRiskError):
    """A model is structurally unusable (bad CPT shape, invalid graph, ...)."""


class MissingCpt(ModelError):
    """An operation requiring a fully specified model found a node without
    a conditional probability table."""


class InvalidDistribution(ModelError):
    """A probability vector does not sum to 1 (tolerance 1e-12) or has
    entries outside [0, 1]."""


class IncompleteAssignment(IotRiskError):
    """A joint-probability query did not assign a state to every node."""


class UnknownState(IotRiskError):
    """A state label is not part of the node's state domain."""


class ImpossibleEvidence(IotRiskError):
    """The supplied evidence has probability zero under the model."""


# ------------------------------------------------------------- temporal layer

class InvalidHorizon(IotRiskError):
    """A time-slice horizon is out of range (< 1, beyond the model's
    ``max_horizon``, or a query index is inconsistent)."""


class ObservationBeyondHorizon(IotRiskError):
    """An observation is timestamped after the query's last usable slice."""


# ------------------------------------------------- uncontrollable-state layer

class NotUncontrollable(IotRiskError):
    """A catalogue/resolution operation targeted a node that has a CPT."""


class UnresolvableNode(IotRiskError):
    """An uncontrollable node cannot be resolved because a dependent of it
    also lacks a CPT."""


# ------------------------------------------------------------- scoring layer

class InvalidMetricValue(IotRiskError):
    """A vulnerability-score vector contains an unknown metric or value."""


class OutOfRange(IotRiskError):
    """A numeric argument is outside its documented range."""


# -------------------------------------------------------------- roadmap layer

class DuplicateId(IotRiskError):
    """Two roadmap entries (or graph nodes) share an id."""


class EmptyGoal(IotRiskError):
    """A control goal has no objectives, or an objective has no elements."""


class MissingAssignment(IotRiskError):
    """A tier assignment does not cover every control element."""


class UnknownTierLabel(IotRiskError):
    """A tier label is not part of the declared tier scale."""


class NotMeasurable(IotRiskError):
    """A model binding targeted a control element that is not measurable."""


# -------------------------------------------------------------- document I/O

class DocumentError(IotRiskError):
    """Base class for model-document load failures."""


class ModelSyntaxError(DocumentError):
    """The document text is not parseable at all (malformed JSON)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaVersionMismatch(DocumentError):
    """The document declares a schema version this build does not read."""


class ValidationFailed(DocumentError):
    """The document parsed but failed structural/semantic validation.

    ``issues`` holds (path, message) pairs where path is a JSON-pointer-like
    location such as ``$.cpts.B.rows[0]``.
    """

    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = list(issues)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.issues)
        super().__init__(f"{len(self.issues)} validation issue(s): {lines}")
