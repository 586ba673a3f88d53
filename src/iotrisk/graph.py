"""Layered dependency graphs.

A :class:`DependencyGraph` holds components of a layered IoT system (perception
-> network -> application is the typical stack) plus directed influence edges.
Edges point provider -> dependent: the arrow direction matches how impacts
travel, so "B functionally depends on A" is stored as the edge A -> B.

Graphs are immutable after construction and deliberately *representable in an
invalid state*: :func:`validate` reports cycles, dangling endpoints, duplicate
ids and undersized state domains as data rather than raising, so that loaders
can show every problem at once.  Operations that require a valid graph state
that precondition and raise.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from .errors import CyclicGraph, InvalidArgument, UnknownNode, UnknownState

# Built-in layer names; any other non-empty string is a custom layer label.
PERCEPTION = "perception"
NETWORK = "network"
APPLICATION = "application"
BUILTIN_LAYERS = (PERCEPTION, NETWORK, APPLICATION)


@dataclass(frozen=True)
class StateDomain:
    """Ordered, distinct state labels of a node.

    Order is significant: it indexes CPT distributions, so serialization and
    reporting must never reorder it.  Content rules (>= 2 states) are checked
    by :func:`validate`, not here, so malformed inputs can still be reported.
    """

    states: tuple[str, ...]

    def __init__(self, states):
        object.__setattr__(self, "states", tuple(states))
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"duplicate state labels in domain {self.states!r}")
        if any(not isinstance(s, str) or not s for s in self.states):
            raise ValueError("state labels must be non-empty strings")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __contains__(self, state: str) -> bool:
        return state in self.states

    def index(self, state: str) -> int:
        return self.states.index(state)


@dataclass(frozen=True)
class ComponentNode:
    """One component, service or goal in the dependency graph."""

    id: str
    layer: str
    domain: StateDomain
    is_service_goal: bool = False
    description: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("node id must be a non-empty string")
        if not self.layer:
            raise ValueError(f"node {self.id!r}: layer label must be non-empty")


@dataclass(frozen=True)
class InfluenceEdge:
    """Directed influence from ``source`` (provider) to ``target`` (dependent)."""

    source: str
    target: str

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"self-edge on {self.source!r} is not allowed")


@dataclass(frozen=True)
class Violation:
    """One validity finding: ``kind`` is a stable machine tag."""

    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class DependencyGraph:
    """Immutable directed graph over `ComponentNode`s.

    Node and edge tuples are stored sorted by id so every derived ordering
    (parents, successors, reports) is reproducible bit-for-bit.
    """

    nodes: tuple[ComponentNode, ...]
    edges: tuple[InfluenceEdge, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False)
    # The adjacency index: node id -> ascending ids of its edge sources
    # (_parents) or targets (_children).  Dangling endpoints are indexed too,
    # so an invalid graph still answers for what its edges say.
    _parents: dict = field(init=False, repr=False, compare=False, hash=False)
    _children: dict = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, nodes, edges=()):
        object.__setattr__(self, "nodes", tuple(sorted(nodes, key=lambda n: n.id)))
        object.__setattr__(self, "edges", tuple(sorted(set(edges),
                                                       key=lambda e: (e.source, e.target))))
        by_id: dict[str, ComponentNode] = {}
        for node in self.nodes:
            by_id.setdefault(node.id, node)
        object.__setattr__(self, "_by_id", by_id)
        parents: dict[str, list[str]] = {}
        children: dict[str, list[str]] = {}
        for e in self.edges:  # sorted by (source, target)
            children.setdefault(e.source, []).append(e.target)
            parents.setdefault(e.target, []).append(e.source)
        object.__setattr__(self, "_parents", {k: tuple(v) for k, v in parents.items()})
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})

    # ------------------------------------------------------------- accessors

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def node(self, node_id: str) -> ComponentNode:
        try:
            return self._by_id[node_id]
        except (KeyError, TypeError):  # a TypeError for an unhashable id
            raise UnknownNode(f"unknown node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        try:
            return node_id in self._by_id
        except TypeError:  # an unhashable value names no node
            return False

    def parents(self, node_id: str) -> tuple[str, ...]:
        """Direct providers of ``node_id``, ascending by id."""
        self.node(node_id)
        return self._parents.get(node_id, ())

    def children(self, node_id: str) -> tuple[str, ...]:
        """Direct dependents of ``node_id``, ascending by id."""
        self.node(node_id)
        return self._children.get(node_id, ())

    def layers(self) -> tuple[str, ...]:
        return tuple(sorted({n.layer for n in self.nodes}))

    def service_goals(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.is_service_goal)

    def sinks(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.id not in self._children)


# ---------------------------------------------------------------- operations

def validate(graph: DependencyGraph) -> ValidationReport:
    """Check structural validity; findings are returned, never raised.

    Violations: duplicate node ids, dangling edge endpoints, state domains
    with fewer than two states, and directed cycles (one witness each).
    Edges from the application layer back into the perception layer are
    reported as warnings only -- unusual, but the layering is advisory.
    """
    violations: list[Violation] = []
    warnings: list[Violation] = []

    seen: set[str] = set()
    for node in graph.nodes:
        if node.id in seen:
            violations.append(Violation("duplicate-id", f"duplicate node id {node.id!r}"))
        seen.add(node.id)
        if len(node.domain) < 2:
            violations.append(Violation(
                "state-domain",
                f"node {node.id!r} has {len(node.domain)} state(s); at least 2 required"))

    for edge in graph.edges:
        for endpoint in (edge.source, edge.target):
            if endpoint not in seen:
                violations.append(Violation(
                    "dangling-edge",
                    f"edge {edge.source!r}->{edge.target!r} references missing node {endpoint!r}"))
        if (edge.source in seen and edge.target in seen
                and graph.node(edge.source).layer == APPLICATION
                and graph.node(edge.target).layer == PERCEPTION):
            warnings.append(Violation(
                "layer-direction",
                f"edge {edge.source!r}->{edge.target!r} points application->perception"))

    witness = _find_cycle(graph)
    if witness is not None:
        path = "->".join(witness + (witness[0],))
        violations.append(Violation("cycle", f"cycle: {path}"))

    return ValidationReport(tuple(violations), tuple(warnings))


def _find_cycle(graph: DependencyGraph) -> tuple[str, ...] | None:
    """Return one directed cycle as a node tuple, deterministically, or None."""
    succ = {nid: [c for c in graph._children.get(nid, ()) if c in graph]
            for nid in graph._by_id}

    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in succ}
    for start in sorted(succ):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        path: list[str] = []
        color[start] = GREY
        path.append(start)
        while stack:
            node, idx = stack[-1]
            if idx < len(succ[node]):
                stack[-1] = (node, idx + 1)
                nxt = succ[node][idx]
                if color[nxt] == GREY:
                    cycle = path[path.index(nxt):]
                    pivot = cycle.index(min(cycle))
                    return tuple(cycle[pivot:] + cycle[:pivot])
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def topological_order(graph: DependencyGraph) -> tuple[str, ...]:
    """Node ids with every provider before its dependents.

    Ties are broken by ascending node id, making the order unique and stable.
    Raises :class:`CyclicGraph` on cycles and :class:`UnknownNode` on edges
    whose endpoints are not in the graph.
    """
    for e in graph.edges:
        if e.source not in graph or e.target not in graph:
            raise UnknownNode(
                f"edge {e.source!r}->{e.target!r} references a node not in the graph")
    indegree = {nid: len(graph._parents.get(nid, ())) for nid in graph._by_id}
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for nxt in graph._children.get(nid, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(graph.nodes):
        witness = _find_cycle(graph)
        path = "->".join(witness + (witness[0],)) if witness else "unknown"
        raise CyclicGraph(f"graph has a cycle: {path}")
    return tuple(order)


def _bfs(graph: DependencyGraph, sources, upward: bool = False) -> dict[str, int]:
    """Breadth-first distances from ``sources`` (each at 0) to every id they
    reach along edges, or against them when ``upward``; ids unchecked."""
    index = graph._parents if upward else graph._children
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        nid = queue.popleft()
        for nxt in index.get(nid, ()):
            if nxt not in dist:
                dist[nxt] = dist[nid] + 1
                queue.append(nxt)
    return dist


def _requisite(graph: DependencyGraph, query: str, observed) -> set[str]:
    """The ids whose tables can change P(query | ``observed`` ids): the
    nodes Bayes-Ball (Shachter 1998) marks on top, starting at ``query`` as
    if from a child; ids unchecked.

    A ball from a child passes through an unobserved node to its parents and
    children, and stops at an observed one.  A ball from a parent passes
    through an unobserved node to its children, and bounces off an observed
    one back to its parents.  A node that sends to its parents is marked on
    top, and its table can change the answer.  So every requisite node is an
    ancestor of the query or of an observed node, and every unobserved
    parent of one is requisite too.
    """
    top: set[str] = set()
    bottom: set[str] = set()
    queue = deque([(query, True)])  # (id, reached from a child)
    while queue:
        nid, from_child = queue.popleft()
        is_observed = nid in observed
        # To the parents: from a child through an unobserved node, or from a
        # parent bounced off an observed one.
        if from_child != is_observed and nid not in top:
            top.add(nid)
            queue.extend((p, True) for p in graph._parents.get(nid, ()))
        if not is_observed and nid not in bottom:
            bottom.add(nid)
            queue.extend((c, False) for c in graph._children.get(nid, ()))
    return top


def _assignment(value, what: str) -> dict:
    """``value`` as a plain dict, or InvalidArgument naming ``what``."""
    try:
        return dict(value)
    except (TypeError, ValueError):
        raise InvalidArgument(f"{what} must map node ids to states, got {value!r}") from None


def _check_states(graph: DependencyGraph, assignment) -> dict:
    """``assignment`` (node id -> state label) as a plain dict; raises as
    :func:`_assignment`, or :class:`UnknownNode` or :class:`UnknownState`
    for a label ``graph`` lacks."""
    checked = _assignment(assignment, "evidence")
    for node_id, state in checked.items():
        domain = graph.node(node_id).domain
        if state not in domain:
            raise UnknownState(
                f"node {node_id!r} has no state {state!r}; domain is {tuple(domain)}")
    return checked


def descendants(graph: DependencyGraph, origin: str) -> frozenset[str]:
    """All nodes reachable from ``origin`` by one or more edges (origin excluded)."""
    graph.node(origin)
    return frozenset(_bfs(graph, (origin,))) - {origin}


def ancestors(graph: DependencyGraph, node_id: str) -> frozenset[str]:
    """All nodes from which ``node_id`` is reachable (node itself excluded)."""
    graph.node(node_id)
    return frozenset(_bfs(graph, (node_id,), upward=True)) - {node_id}


def dependency_distances(graph: DependencyGraph, origins) -> dict[str, int]:
    """Shortest directed-path length from the nearest of ``origins`` to every
    node reachable from them, by one breadth-first search; origins map to 0."""
    origins = tuple(origins)
    for origin in origins:
        graph.node(origin)
    return _bfs(graph, origins)


def dependency_order(graph: DependencyGraph, provider: str, dependent: str) -> int | None:
    """Length of the shortest directed path provider -> dependent.

    1 means a first-order (direct) dependency, >= 2 a higher-order one; None
    when the dependent is unreachable from the provider.  In an acyclic graph
    a node never reaches itself, so ``provider == dependent`` yields None.
    """
    graph.node(provider)
    graph.node(dependent)
    return dependency_distances(graph, (provider,)).get(dependent) or None
