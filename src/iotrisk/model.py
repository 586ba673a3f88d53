"""Conditional probability tables and the probabilistic model wrapper.

A :class:`BayesianModel` pairs a valid :class:`~iotrisk.graph.DependencyGraph`
with one CPT per node.  Nodes *without* a CPT are legal -- they are the
"uncontrollable" components handled by :mod:`iotrisk.uncontrollable` -- but
every declared CPT is checked hard at construction time: its parent list must
equal the graph's (sorted) parents, every parent-state combination must have
exactly one row, and every row must sum to 1 within ``ROW_SUM_TOL``.  Rows
that fail the tolerance are an error; nothing is silently renormalized.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InvalidArgument,
    InvalidDistribution,
    MissingCpt,
    UnknownState,
    ValidationFailed,
)
from .graph import DependencyGraph, _check_states, validate

# Tolerance for CPT row sums and reported distributions.
ROW_SUM_TOL = 1e-12

# Longest time axis a temporal query may span (slices 0 .. max_horizon - 1).
# Queries cost O(t) by interface passes; the guard still bounds every query
# and the ``temporal.unroll`` oracle, whose VE cost can grow exponentially
# with slice count.  Kept here, so a document's default needs no temporal code.
DEFAULT_MAX_HORIZON = 64


@dataclass(frozen=True)
class Cpt:
    """P(node | parents) as an explicit table.

    ``rows`` maps a tuple of parent states (one per entry of ``parent_order``)
    to the distribution over the node's states, in domain order.  A root node
    has a single row keyed by the empty tuple.
    """

    node: str
    parent_order: tuple[str, ...]
    rows: dict

    def __init__(self, node: str, parent_order, rows):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "parent_order", tuple(parent_order))
        normalized = {}
        for key, dist in dict(rows).items():
            key = tuple(key)
            if len(key) != len(self.parent_order):
                raise InvalidDistribution(
                    f"cpt[{node!r}]: row key {key!r} has {len(key)} entries, "
                    f"expected {len(self.parent_order)}")
            dist = tuple(float(p) for p in dist)
            check_distribution(dist, f"cpt[{node!r}] row {key!r}")
            normalized[key] = dist
        if not normalized:
            raise InvalidDistribution(f"cpt[{node!r}] has no rows")
        object.__setattr__(self, "rows", normalized)

    @classmethod
    def prior(cls, node: str, dist) -> "Cpt":
        """Root-node table: a single unconditional distribution."""
        return cls(node, (), {(): tuple(dist)})

    def row(self, parent_states: tuple[str, ...]) -> tuple[float, ...]:
        return self.rows[tuple(parent_states)]

    def __hash__(self):
        return hash((self.node, self.parent_order, tuple(sorted(self.rows.items()))))


def check_distribution(dist, where: str) -> None:
    """Raise InvalidDistribution unless ``dist`` is a probability vector."""
    if any(not math.isfinite(p) or p < 0.0 or p > 1.0 for p in dist):
        raise InvalidDistribution(f"{where}: entries must be finite and in [0, 1]: {dist}")
    total = math.fsum(dist)
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise InvalidDistribution(f"{where}: sums to {total!r}, expected 1 within {ROW_SUM_TOL}")


def _is_int(value) -> bool:
    """True for a Python or numpy integer, but not a ``bool`` (JSON ``true``)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(value, what: str, minimum=None, error=InvalidArgument) -> int:
    """``value`` as an ``int`` if it is an integer >= ``minimum``, else ``error``."""
    if not _is_int(value):
        raise error(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value}")
    return operator.index(value)


@dataclass(frozen=True, slots=True)
class Marginal:
    """A distribution over one node's states, in domain order."""

    node: str
    states: tuple[str, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        check_distribution(self.probabilities, f"marginal[{self.node!r}]")

    def p(self, state: str) -> float:
        try:
            return self.probabilities[self.states.index(state)]
        except ValueError:
            raise UnknownState(f"node {self.node!r} has no state {state!r}") from None

    def as_dict(self) -> dict:
        return dict(zip(self.states, self.probabilities))

    @classmethod
    def indicator(cls, node: str, states, observed: str) -> "Marginal":
        states = tuple(states)
        if observed not in states:
            raise UnknownState(f"node {node!r} has no state {observed!r}")
        return cls(node, states, tuple(1.0 if s == observed else 0.0 for s in states))


@dataclass(frozen=True)
class BayesianModel:
    """A dependency graph plus CPTs; immutable and safe to share.

    ``cpts`` may be partial: nodes without an entry are uncontrollable.
    Construction validates the graph (raising :class:`ValidationFailed` with
    every finding) and every declared CPT against the graph.  The numeric
    form the queries read, :attr:`compiled`, is built on first use.
    """

    graph: DependencyGraph
    cpts: dict

    def __init__(self, graph: DependencyGraph, cpts):
        report = validate(graph)
        issues = [("$.graph", v.message) for v in report.violations]
        cpts = dict(cpts)
        if not issues:
            issues.extend(_check_cpts(graph, cpts))
        if issues:
            raise ValidationFailed(issues)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "cpts", cpts)

    @cached_property
    def compiled(self):
        """This model's :class:`~iotrisk.inference.CompiledModel`, built by
        the first numeric query and kept; needs every CPT.

        Not a field: equality and hashing ignore it, and a model built by
        :meth:`with_cpts` or ``dataclasses.replace`` compiles its own.
        """
        from .inference import compile_model

        return compile_model(self)

    # ------------------------------------------------------------- accessors

    def cpt(self, node_id: str) -> Cpt:
        self.graph.node(node_id)
        try:
            return self.cpts[node_id]
        except KeyError:
            raise MissingCpt(f"node {node_id!r} has no CPT (uncontrollable)") from None

    def domain(self, node_id: str):
        return self.graph.node(node_id).domain

    def is_fully_specified(self) -> bool:
        return all(n.id in self.cpts for n in self.graph.nodes)

    def require_fully_specified(self) -> None:
        missing = [n.id for n in self.graph.nodes if n.id not in self.cpts]
        if missing:
            raise MissingCpt(f"model is not fully specified; missing CPTs for {missing}")

    def with_cpts(self, extra) -> "BayesianModel":
        """A copy with additional/replacement CPTs."""
        merged = dict(self.cpts)
        merged.update(extra)
        return BayesianModel(self.graph, merged)

    def validate_evidence(self, evidence) -> dict:
        """Check node ids and state labels; returns a plain dict copy."""
        return _check_states(self.graph, evidence)


def _check_cpts(graph: DependencyGraph, cpts: dict):
    """Yield (path, message) issues for CPTs inconsistent with the graph."""
    issues = []
    for node_id, cpt in sorted(cpts.items()):
        path = f"$.cpts.{node_id}"
        if node_id not in graph:
            issues.append((path, f"CPT declared for unknown node {node_id!r}"))
            continue
        issues.extend(_table_issues(graph, cpt, node_id, graph.parents(node_id), path))
    return issues


def _table_issues(graph: DependencyGraph, cpt: Cpt, node_id: str, parents: tuple,
                  path: str, parents_are: str = "graph parents") -> list:
    """(path, message) issues for ``cpt`` as ``node_id``'s table over
    ``parents`` (ascending; ``parents_are`` names them): one issue for a wrong
    node or parent order, else those of :func:`check_cpt_rows`."""
    if cpt.node != node_id:
        return [(path, f"CPT is for node {cpt.node!r}, keyed as {node_id!r}")]
    if cpt.parent_order != parents:
        return [(path, f"parent order {cpt.parent_order!r} != {parents_are} "
                       f"{parents!r} (sorted ascending)")]
    return check_cpt_rows(graph, cpt, path)


def check_cpt_rows(graph: DependencyGraph, cpt: Cpt, path: str):
    """(path, message) issues for a CPT whose rows do not cover its parents'
    state combinations exactly, or whose distributions have the wrong length.

    Parents are taken from ``cpt.parent_order`` and must be nodes of ``graph``.
    """
    issues = []
    domains = [tuple(graph.node(p).domain) for p in cpt.parent_order]
    node_card = len(graph.node(cpt.node).domain)
    expected_rows = set(itertools.product(*domains))
    got_rows = set(cpt.rows)
    for combo in sorted(expected_rows - got_rows):
        issues.append((path, f"missing row for parent states {combo!r}"))
    for combo in sorted(got_rows - expected_rows):
        issues.append((path, f"unexpected row key {combo!r}"))
    for combo in sorted(got_rows & expected_rows):
        if len(cpt.rows[combo]) != node_card:
            issues.append((f"{path}.rows{list(combo)!r}",
                           f"distribution has {len(cpt.rows[combo])} entries, "
                           f"domain has {node_card}"))
    return issues
