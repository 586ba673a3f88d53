"""Graph structure, validity findings, orderings and reachability."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotrisk.errors import CyclicGraph, UnknownNode
from iotrisk.graph import (
    ComponentNode,
    DependencyGraph,
    InfluenceEdge,
    StateDomain,
    ancestors,
    dependency_distances,
    dependency_order,
    descendants,
    topological_order,
    validate,
)

TF = StateDomain(["T", "F"])


def node(nid: str, layer: str = "network", service: bool = False) -> ComponentNode:
    return ComponentNode(nid, layer, TF, service)


def graph_of(ids, edges) -> DependencyGraph:
    return DependencyGraph([node(i) for i in ids],
                           [InfluenceEdge(a, b) for a, b in edges])


class TestValidate:
    def test_single_node_no_edges_is_valid(self):
        assert validate(graph_of("A", [])).ok

    def test_two_cycle_reported_with_witness(self):
        report = validate(graph_of("AB", [("A", "B"), ("B", "A")]))
        assert not report.ok
        [violation] = [v for v in report.violations if v.kind == "cycle"]
        assert violation.message == "cycle: A->B->A"

    def test_three_chain_is_valid(self):
        # exhaustive cycle search on the 3-node chain finds nothing
        assert validate(graph_of("ABC", [("A", "B"), ("B", "C")])).ok

    def test_dangling_edge_reported(self):
        graph = DependencyGraph([node("A")], [InfluenceEdge("A", "ghost")])
        report = validate(graph)
        kinds = [v.kind for v in report.violations]
        assert kinds == ["dangling-edge"]
        assert "ghost" in report.violations[0].message

    def test_duplicate_node_id_reported(self):
        graph = DependencyGraph([node("A"), node("A")], [])
        report = validate(graph)
        assert [v.kind for v in report.violations] == ["duplicate-id"]

    def test_undersized_domain_reported(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", StateDomain(["only"]))], [])
        report = validate(graph)
        assert [v.kind for v in report.violations] == ["state-domain"]

    def test_application_to_perception_edge_warns_only(self):
        graph = DependencyGraph(
            [ComponentNode("app", "application", TF),
             ComponentNode("sensor", "perception", TF)],
            [InfluenceEdge("app", "sensor")])
        report = validate(graph)
        assert report.ok
        assert [w.kind for w in report.warnings] == ["layer-direction"]

    def test_self_edge_rejected_at_construction(self):
        with pytest.raises(ValueError):
            InfluenceEdge("A", "A")


class TestTopologicalOrder:
    def test_chain_is_forced(self):
        assert topological_order(graph_of("ABC", [("A", "B"), ("B", "C")])) == ("A", "B", "C")

    def test_isolated_nodes_tie_break_by_id(self):
        assert topological_order(graph_of("BA", [])) == ("A", "B")

    def test_diamond_unique_order(self):
        # Of the 24 permutations only [A,B,C,D] and [A,C,B,D] respect the
        # edges; the id tie-break picks the first.
        graph = graph_of("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        assert topological_order(graph) == ("A", "B", "C", "D")

    def test_cycle_raises(self):
        with pytest.raises(CyclicGraph):
            topological_order(graph_of("AB", [("A", "B"), ("B", "A")]))

    def test_dangling_edge_raises_unknown_node(self):
        graph = DependencyGraph([node("A")], [InfluenceEdge("A", "ghost")])
        with pytest.raises(UnknownNode):
            topological_order(graph)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_respects_edges_and_is_permutation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        ids = [f"n{i:02d}" for i in range(n)]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        edges = [(shuffled[i], shuffled[j])
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        graph = graph_of(ids, edges)
        order = topological_order(graph)
        assert sorted(order) == sorted(ids)
        position = {nid: k for k, nid in enumerate(order)}
        for a, b in edges:
            assert position[a] < position[b]


class TestReachability:
    def test_isolated_node_has_no_descendants(self):
        assert descendants(graph_of("A", []), "A") == frozenset()

    def test_chain_descendants(self):
        graph = graph_of("ABC", [("A", "B"), ("B", "C")])
        assert descendants(graph, "B") == {"C"}
        assert descendants(graph, "A") == {"B", "C"}

    def test_origin_never_included(self):
        graph = graph_of("ABC", [("A", "B"), ("B", "C")])
        for nid in "ABC":
            assert nid not in descendants(graph, nid)

    def test_descendants_equal_successor_fixed_point(self):
        rng = random.Random(7)
        ids = [f"n{i}" for i in range(8)]
        edges = [(ids[i], ids[j]) for i in range(8) for j in range(i + 1, 8)
                 if rng.random() < 0.3]
        graph = graph_of(ids, edges)
        succ = {i: {b for a, b in edges if a == i} for i in ids}
        for origin in ids:
            expanded = set(succ[origin])
            while True:
                grown = expanded | {c for nid in expanded for c in succ[nid]}
                if grown == expanded:
                    break
                expanded = grown
            assert descendants(graph, origin) == expanded - {origin}

    def test_unknown_origin_raises(self):
        with pytest.raises(UnknownNode):
            descendants(graph_of("A", []), "nope")

    def test_ancestors_inverse_of_descendants(self):
        graph = graph_of("ABCD", [("A", "B"), ("B", "C"), ("B", "D")])
        assert ancestors(graph, "C") == {"A", "B"}
        assert ancestors(graph, "A") == frozenset()


class TestDependencyOrder:
    def test_direct_edge_is_first_order(self):
        assert dependency_order(graph_of("AB", [("A", "B")]), "A", "B") == 1

    def test_two_hop_is_second_order(self):
        assert dependency_order(graph_of("ABC", [("A", "B"), ("B", "C")]), "A", "C") == 2

    def test_shortcut_wins_in_diamond(self):
        # breadth-first search over all paths gives 1 via the direct edge
        graph = graph_of("ABCD", [("A", "B"), ("B", "D"), ("A", "C"),
                                  ("C", "D"), ("A", "D")])
        assert dependency_order(graph, "A", "D") == 1

    def test_unreachable_is_none(self):
        graph = graph_of("AB", [("A", "B")])
        assert dependency_order(graph, "B", "A") is None

    def test_self_is_none_in_dag(self):
        graph = graph_of("AB", [("A", "B")])
        assert dependency_order(graph, "A", "A") is None

    def test_first_order_iff_edge_exists(self):
        rng = random.Random(21)
        ids = [f"n{i}" for i in range(7)]
        edges = [(ids[i], ids[j]) for i in range(7) for j in range(i + 1, 7)
                 if rng.random() < 0.35]
        graph = graph_of(ids, edges)
        edge_set = set(edges)
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                assert (dependency_order(graph, a, b) == 1) == ((a, b) in edge_set)


class TestDeterminism:
    def test_nodes_and_edges_stored_sorted(self):
        graph = DependencyGraph([node("B"), node("A")],
                                [InfluenceEdge("B", "A"), InfluenceEdge("A", "B")])
        assert graph.node_ids == ("A", "B")
        assert [(e.source, e.target) for e in graph.edges] == [("A", "B"), ("B", "A")]

    def test_parents_sorted(self):
        graph = graph_of("ABC", [("C", "A"), ("B", "A")])
        assert graph.parents("A") == ("B", "C")


def _scan_reach(edges, start, forward=True):
    """Reachability by rescanning every edge: the reference for the index."""
    reached, frontier = set(), {start}
    while frontier:
        step = {b if forward else a for a, b in edges
                if (a if forward else b) in frontier} - reached
        reached |= step
        frontier = step
    return reached - {start}


class TestAdjacencyIndex:
    """The index built at construction answers as a scan of the edge list does,
    also on graphs with cycles and dangling endpoints."""

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_edge_scan(self, seed):
        rng = random.Random(seed)
        ids = sorted({f"n{rng.randint(0, 20)}" for _ in range(rng.randint(1, 10))})
        pool = ids + ["ghost"] * (seed % 2)
        edges = {tuple(rng.sample(pool, 2)) for _ in range(rng.randint(0, 15))
                 if len(pool) > 1}
        graph = graph_of(ids, edges)
        assert graph.sinks() == tuple(i for i in ids if all(a != i for a, _ in edges))
        for nid in ids:
            assert graph.parents(nid) == tuple(sorted(a for a, b in edges if b == nid))
            assert graph.children(nid) == tuple(sorted(b for a, b in edges if a == nid))
            assert descendants(graph, nid) == _scan_reach(edges, nid)
            assert ancestors(graph, nid) == _scan_reach(edges, nid, forward=False)
            dist = dependency_distances(graph, [nid])
            assert set(dist) == _scan_reach(edges, nid) | {nid}
            for other in ids:
                assert dependency_order(graph, nid, other) == (dist.get(other) or None)

    def test_multi_source_distance_is_nearest_origin(self):
        graph = graph_of("ABCDE", [("A", "B"), ("B", "C"), ("C", "D"), ("E", "D")])
        assert dependency_distances(graph, ["A", "E"]) == {
            "A": 0, "E": 0, "B": 1, "D": 1, "C": 2}

    def test_unknown_origin_raises(self):
        with pytest.raises(UnknownNode):
            dependency_distances(graph_of("A", []), ["nope"])
