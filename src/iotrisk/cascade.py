"""Incident-scenario analysis over a dependency model.

An :class:`IncidentScenario` fixes one or more origin nodes to an impaired
state.  Treating those origins as *evidence* (observed compromise, not a
causal intervention), this module answers three questions:

* which nodes the impairment can reach (:func:`impact_set`, pure reachability),
* how strongly each node's state distribution shifts
  (:func:`impact_probabilities`, exact posterior inference), and
* which candidate origin would hurt the service goals most
  (:func:`rank_criticality`).

Because origins are evidence, the ancestors of an origin update too -- that is
diagnostic reasoning, useful but distinct from the forward cascade.  Reports
keep the two apart: ``impact_set`` is strictly downstream, and each node entry
carries a relation tag (origin / impacted / upstream / unrelated).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import ImpossibleEvidence, InvalidArgument, UnknownNode
from .graph import DependencyGraph, _assignment, _bfs, _check_states
from .inference import _observed, _plan, _reduce_factor, _run, eliminate_marginal, posterior_update
from .model import BayesianModel, Marginal


class EventLevel(enum.Enum):
    """Role of a node within one incident scenario."""

    ATOMIC = "atomic"           # origin of the abnormal activity
    PROPAGATION = "propagation" # conduit between an origin and a service goal
    SERVICE = "service"         # where the system's final function lives


class NodeRelation(enum.Enum):
    """How a node stands relative to the scenario origins."""

    ORIGIN = "origin"
    IMPACTED = "impacted"     # downstream of an origin
    UPSTREAM = "upstream"     # ancestor of an origin (diagnostic update only)
    UNRELATED = "unrelated"


@dataclass(frozen=True)
class IncidentScenario:
    """Origin nodes mapped to the impaired state observed on each."""

    origins: dict

    def __init__(self, origins):
        origins = _assignment(origins, "scenario origins")
        if not origins:
            raise InvalidArgument("scenario needs at least one origin")
        object.__setattr__(self, "origins", origins)

    def check_against(self, graph: DependencyGraph) -> None:
        _check_states(graph, self.origins)


@dataclass(frozen=True)
class LevelClassification:
    """Per-node event levels plus the nodes no level applies to."""

    levels: dict
    unclassified: frozenset


@dataclass(frozen=True, slots=True)
class NodeImpact:
    """One node's entry in an impact report."""

    distribution: Marginal
    dependency_order: int | None  # shortest influence distance from an origin
    level: EventLevel | None
    relation: NodeRelation


@dataclass(frozen=True, slots=True)
class CriticalityEntry:
    node: str
    impaired_state: str
    score: float | None
    error: str | None = None


@dataclass(frozen=True)
class ImpactReport:
    scenario: IncidentScenario
    per_node: dict
    impact_set: frozenset
    ranking: tuple | None = None


def _service_nodes(graph: DependencyGraph) -> tuple[str, ...]:
    """Flagged service goals, or every sink when nothing is flagged."""
    flagged = graph.service_goals()
    return flagged if flagged else graph.sinks()


def _check_scenario(graph: DependencyGraph, scenario) -> None:
    """``scenario`` checked against ``graph``; one that is not an
    :class:`IncidentScenario` raises :class:`InvalidArgument`."""
    if not isinstance(scenario, IncidentScenario):
        raise InvalidArgument(f"scenario must be an IncidentScenario, got {scenario!r}")
    scenario.check_against(graph)


def classify_levels(graph: DependencyGraph, scenario: IncidentScenario) -> LevelClassification:
    """Assign each node its event level for the scenario.

    Origins are atomic (this wins every tie).  Service goals -- the flagged
    nodes, or all sinks when none are flagged -- are service level.  Everything
    else sitting on a directed path from an origin to a service node is
    propagation.  Nodes on no such path are reported as unclassified.  A
    ``scenario`` that is not an :class:`IncidentScenario` raises
    :class:`InvalidArgument`.
    """
    _check_scenario(graph, scenario)
    return _classify_levels(graph, scenario.origins, _bfs(graph, scenario.origins))


def _classify_levels(graph: DependencyGraph, origins, downstream) -> LevelClassification:
    """:func:`classify_levels` for checked ``origins``, given every node
    ``downstream`` of them (origins included)."""
    service = set(_service_nodes(graph))
    feeds_service = _bfs(graph, service, upward=True)

    levels: dict[str, EventLevel] = {}
    unclassified = []
    for node in graph.nodes:
        nid = node.id
        if nid in origins:
            levels[nid] = EventLevel.ATOMIC
        elif nid in service:
            levels[nid] = EventLevel.SERVICE
        elif nid in downstream and nid in feeds_service:
            levels[nid] = EventLevel.PROPAGATION
        else:
            unclassified.append(nid)
    return LevelClassification(levels, frozenset(unclassified))


def impact_set(graph: DependencyGraph, scenario: IncidentScenario) -> frozenset:
    """Union of the origins' descendants; the origins themselves excluded.
    A ``scenario`` that is not an :class:`IncidentScenario` raises
    :class:`InvalidArgument`."""
    _check_scenario(graph, scenario)
    return frozenset(_bfs(graph, scenario.origins)).difference(scenario.origins)


def impact_probabilities(model: BayesianModel, scenario: IncidentScenario) -> ImpactReport:
    """Posterior state distributions for every node under the scenario.

    The origins enter as evidence, so the report covers the whole graph:
    downstream nodes show the forward cascade, ancestors show the diagnostic
    update, and nodes sharing no ancestry with any origin keep their priors.
    Each entry carries the shortest influence distance from an origin (0 for
    origins themselves).  A ``scenario`` that is not an
    :class:`IncidentScenario` raises :class:`InvalidArgument`.
    """
    graph = model.graph
    _check_scenario(graph, scenario)
    distances = _bfs(graph, scenario.origins)
    classification = _classify_levels(graph, scenario.origins, distances)
    posteriors = posterior_update(model, scenario.origins)
    upstream = _bfs(graph, scenario.origins, upward=True)
    affected = frozenset(distances).difference(scenario.origins)

    per_node = {}
    for node in graph.nodes:
        nid = node.id
        if nid in scenario.origins:
            order: int | None = 0
            relation = NodeRelation.ORIGIN
        else:
            order = distances.get(nid)
            if nid in affected:
                relation = NodeRelation.IMPACTED
            elif nid in upstream:
                relation = NodeRelation.UPSTREAM
            else:
                relation = NodeRelation.UNRELATED
        per_node[nid] = NodeImpact(posteriors[nid], order,
                                   classification.levels.get(nid), relation)
    return ImpactReport(scenario, per_node, affected)


def default_degraded_states(model: BayesianModel, node_id: str) -> frozenset:
    """When no degraded state is declared, the domain's last state is degraded."""
    return frozenset({tuple(model.domain(node_id))[-1]})


def _collection(value, what: str, of: str) -> list:
    """``value``, a collection other than a string, as a list; else
    InvalidArgument naming ``what`` and what it holds, ``of``."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise InvalidArgument(f"{what} must be a collection of {of}, got {value!r}")
    return list(value)


def rank_criticality(model: BayesianModel, candidates, service_nodes=None,
                     degraded_states=None, aggregate: str = "mean",
                     weights=None) -> tuple:
    """Order candidate origins by how badly they degrade the service goals.

    Each candidate ``(node, impaired_state)`` is scored as the aggregated
    probability, over the service nodes, of landing in a degraded state given
    the candidate's impairment.  ``aggregate`` is ``"mean"`` (default),
    ``"max"``, or ``"weighted"``.  ``"weighted"`` needs ``weights``, a mapping
    that gives every service node a finite weight >= 0, with a finite sum
    above 0; each score is then the weight-normalised sum.
    ``service_nodes`` and each node's collection in ``degraded_states`` (a
    mapping of service node -> states; the domain's last state where none
    is given) are sets: a node or state named twice counts once, so every
    score is a probability, and a node's degraded states are summed in
    domain order, so the order they are given in moves no bit.
    Candidates whose evidence is impossible get an error entry instead of a
    score and sort last.  Ties break by ascending node id.

    Each score is bit for bit that of one full elimination, every node
    summed out, per (candidate, service node) pair.  A point
    :func:`~iotrisk.inference.eliminate_marginal` sums out only the
    requisite nodes and may differ in the last bits, within ``ORACLE_TOL``.

    Per service node, one evidence-free pass, the node's prior marginal with
    every node summed out, runs the steps the pairs share.  A candidate's
    evidence reduces the factors that hold it, its own and its children's,
    so its elimination repeats the pass's steps up to the first over one of
    those factors.  Its run resumes inside the pass, from the pass's live
    factors there, those factors reduced (see
    :func:`~iotrisk.inference._run`), and checks its own total, so the pass
    keeps no table it has consumed.  The pass stops at the last candidate's
    start, which it visits after its last step.

    Raises :class:`InvalidArgument` (a ``ValueError``) for candidates or
    service nodes that are not a collection, no candidates, a candidate that
    is not a pair, an unknown ``aggregate``, bad weights, or
    ``degraded_states`` that map anything but service nodes to collections
    of states,
    :class:`UnknownNode` for no or unknown service, candidate or degraded nodes,
    and :class:`UnknownState` for a candidate or degraded state the node lacks
    -- all before any elimination.
    """
    candidates = _collection(candidates, "candidates", "(node, state) pairs")
    if not candidates:
        raise InvalidArgument("at least one candidate is required")
    graph = model.graph
    if service_nodes is None:
        service_nodes = _service_nodes(graph)
    service_nodes = _collection(service_nodes, "service_nodes", "node ids")
    if not service_nodes:
        raise UnknownNode("no service nodes: flag is_service_goal or pass service_nodes")
    for s in service_nodes:
        graph.node(s)
    service_nodes = sorted(set(service_nodes))
    degraded_states = _assignment(degraded_states or {}, "degraded_states")
    for node_id, states in degraded_states.items():
        graph.node(node_id)
        if node_id not in service_nodes:
            raise InvalidArgument(f"degraded_states names {node_id!r}, not a service node")
        states = _collection(states, f"degraded_states[{node_id!r}]", "states")
        for state in states:
            _check_states(graph, {node_id: state})
        degraded_states[node_id] = tuple([state for state in model.domain(node_id).states
                                          if state in states])
    for s in service_nodes:
        degraded_states.setdefault(s, default_degraded_states(model, s))

    if aggregate not in ("mean", "max", "weighted"):
        raise InvalidArgument(f"unknown aggregate {aggregate!r}")
    if aggregate == "weighted":
        if not weights or not isinstance(weights, Mapping):
            raise InvalidArgument("aggregate='weighted' requires weights per service node "
                                  f"as a mapping, got {weights!r}")
        for s in service_nodes:
            try:
                valid = math.isfinite(weights[s]) and weights[s] >= 0
            except (KeyError, TypeError):
                valid = False
            if not valid:
                raise InvalidArgument(f"weights[{s!r}] must be a finite number >= 0, "
                                      f"got {weights.get(s)!r}")
        total = sum(weights[s] for s in service_nodes)
        if not 0 < total < math.inf:
            raise InvalidArgument(
                f"weights of the service nodes must sum to a finite number > 0, got {total!r}")
        norm = {s: weights[s] / total for s in service_nodes}

    for candidate in candidates:
        if not isinstance(candidate, (tuple, list)) or len(candidate) != 2:
            raise InvalidArgument(f"candidate must be a (node, state) pair, got {candidate!r}")
        graph.node(candidate[0])
        _check_states(graph, {candidate[0]: candidate[1]})

    compiled = model.compiled
    order = compiled.elimination
    position = {v: i for i, v in enumerate(order)}
    runs = [_observed(model, {node_id: state}) for node_id, state in candidates]
    # The variables of the factors each candidate's evidence reduces: its
    # own and its children's, the factors that hold it.
    touched = [set().union(*[f.vars for f in compiled.factors if compiled.index[nid] in f.vars])
               for nid, _ in candidates]
    per_service = [[] for _ in candidates]
    errors = [None] * len(candidates)
    broadcasts: dict = {}  # shared by the plans of every run: one model's axes
    for s in service_nodes:
        var = compiled.index[s]
        starts: dict = {}  # position -> the candidates that resume there
        for i, scope in enumerate(touched):
            if errors[i] is None:
                start = min([position[v] for v in scope if v != var], default=0)
                starts.setdefault(start, []).append(i)

        def visit(at: int, live: list) -> None:
            for i in starts.pop(at, ()):
                evidence, observed = runs[i]
                try:
                    marg = eliminate_marginal(model, s, lambda: evidence, _pass=(
                        observed, order[at:], [_reduce_factor(f, observed) for f in live],
                        broadcasts))
                except ImpossibleEvidence as exc:
                    errors[i] = str(exc)
                    continue
                per_service[i].append(sum(marg.p(d) for d in degraded_states[s]))

        plan = _plan(compiled.factors, order[:max(starts, default=0)], (var,), broadcasts)
        _run(plan._replace(live=()), compiled.factors, visit)

    entries = []
    for (node_id, state), ps, error in zip(candidates, per_service, errors):
        if error is not None:
            entries.append(CriticalityEntry(node_id, state, None, error))
            continue
        if aggregate == "mean":
            score = sum(ps) / len(ps)
        elif aggregate == "max":
            score = max(ps)
        else:
            score = sum(norm[s] * p for s, p in zip(service_nodes, ps))
        entries.append(CriticalityEntry(node_id, state, score))

    entries.sort(key=lambda e: (e.score is None, -(e.score or 0.0), e.node))
    return tuple(entries)
