"""Incident scenarios: level classification, impact sets, posteriors, ranking."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from iotrisk import cascade, inference
from iotrisk import graph as graph_module
from iotrisk.bundled import load_bundled_model
from iotrisk.cascade import (
    EventLevel,
    IncidentScenario,
    NodeRelation,
    classify_levels,
    impact_probabilities,
    impact_set,
    rank_criticality,
)
from iotrisk.errors import ImpossibleEvidence, InvalidArgument, UnknownNode, UnknownState
from iotrisk.graph import (
    ComponentNode,
    DependencyGraph,
    InfluenceEdge,
    StateDomain,
    ancestors,
    dependency_distances,
    dependency_order,
    descendants,
)
from iotrisk.inference import enumerate_marginal, posterior_update
from iotrisk.model import BayesianModel, Cpt

from conftest import full_elimination, make_chain3, random_cpt, random_model

TF = StateDomain(["T", "F"])


def graph_of(ids, edges, service=()):
    return DependencyGraph(
        [ComponentNode(i, "network", TF, is_service_goal=i in service) for i in ids],
        [InfluenceEdge(a, b) for a, b in edges])


def _resume_position(compiled, nid: str, s: str) -> int:
    """The position in ``compiled.elimination`` at which ranking resumes the
    pair of candidate ``nid`` and service node ``s``: that of the first
    variable, but ``s``, of a factor that holds ``nid``."""
    position = {v: i for i, v in enumerate(compiled.elimination)}
    v, var = compiled.index[nid], compiled.index[s]
    touched = {u for f in compiled.factors if v in f.vars for u in f.vars}
    return min([position[u] for u in touched if u != var], default=0)


def _resumed_steps(model, nid: str, s: str, steps: list) -> int:
    """The steps that ``nid`` impaired, ``s`` queried, makes at or after its
    resume position, as the ``steps`` fixture's list counts them."""
    compiled = model.compiled
    position = {v: i for i, v in enumerate(compiled.elimination)}
    start = _resume_position(compiled, nid, s)
    full_elimination(model, s, {nid: "impaired"})
    return sum(1 for u in steps if position[u] >= start)


@pytest.fixture(scope="module")
def layered():
    return load_bundled_model("layered_iot")


class TestClassifyLevels:
    def test_chain_forced_levels(self):
        graph = graph_of("ABC", [("A", "B"), ("B", "C")])
        out = classify_levels(graph, IncidentScenario({"A": "F"}))
        assert out.levels == {"A": EventLevel.ATOMIC, "B": EventLevel.PROPAGATION,
                              "C": EventLevel.SERVICE}
        assert out.unclassified == frozenset()

    def test_layered_example_classification(self, layered):
        out = classify_levels(layered.graph, IncidentScenario({"a14": "impaired"}))
        assert out.levels["a14"] is EventLevel.ATOMIC
        for nid in ("a12", "a10", "a7", "a6"):
            assert out.levels[nid] is EventLevel.PROPAGATION
        for nid in ("a4", "a3", "a2", "a1"):
            assert out.levels[nid] is EventLevel.SERVICE
        assert out.unclassified == frozenset()

    def test_origin_that_is_a_sink_stays_atomic(self):
        graph = graph_of("AB", [("A", "B")])
        out = classify_levels(graph, IncidentScenario({"B": "F"}))
        assert out.levels["B"] is EventLevel.ATOMIC

    def test_flagged_service_goal_beats_sink_rule(self):
        graph = graph_of("ABC", [("A", "B"), ("B", "C")], service=("B",))
        out = classify_levels(graph, IncidentScenario({"A": "F"}))
        assert out.levels["B"] is EventLevel.SERVICE
        # C is a sink but unflagged while a flag exists elsewhere, and it
        # cannot reach any service node: unclassified
        assert "C" in out.unclassified

    def test_node_off_any_origin_service_path_is_unclassified(self):
        graph = graph_of("ABCD", [("A", "B"), ("D", "B")])
        out = classify_levels(graph, IncidentScenario({"A": "F"}))
        assert out.levels["B"] is EventLevel.SERVICE
        assert "D" in out.unclassified

    def test_total_and_deterministic(self):
        graph = graph_of("ABCD", [("A", "B"), ("B", "C"), ("B", "D")])
        first = classify_levels(graph, IncidentScenario({"A": "F"}))
        second = classify_levels(graph, IncidentScenario({"A": "F"}))
        assert first == second
        assert len(first.levels) + len(first.unclassified) == 4


class TestImpactSet:
    def test_layered_example_impact_set(self, layered):
        out = impact_set(layered.graph, IncidentScenario({"a14": "impaired"}))
        assert out == {"a12", "a10", "a7", "a6", "a4", "a3", "a2", "a1"}

    def test_sink_origin_has_empty_impact(self, layered):
        assert impact_set(layered.graph, IncidentScenario({"a1": "impaired"})) == frozenset()

    def test_two_origins_union_without_duplicates(self):
        graph = graph_of("ABCD", [("A", "C"), ("B", "C"), ("C", "D")])
        scenario = IncidentScenario({"A": "F", "B": "F"})
        expected = (descendants(graph, "A") | descendants(graph, "B")) - {"A", "B"}
        assert impact_set(graph, scenario) == expected == {"C", "D"}

    def test_unknown_origin_raises(self, layered):
        with pytest.raises(UnknownNode):
            impact_set(layered.graph, IncidentScenario({"ghost": "impaired"}))
        with pytest.raises(UnknownState):
            impact_set(layered.graph, IncidentScenario({"a14": "melted"}))


class TestImpactProbabilities:
    def test_chain_posterior_reads_cpt_row(self, chain2):
        report = impact_probabilities(chain2, IncidentScenario({"A": "T"}))
        assert report.per_node["B"].distribution.p("T") == pytest.approx(0.9, abs=1e-12)
        assert report.per_node["A"].dependency_order == 0
        assert report.per_node["B"].dependency_order == 1
        assert report.per_node["A"].relation is NodeRelation.ORIGIN
        assert report.per_node["B"].relation is NodeRelation.IMPACTED

    def test_dependency_order_is_nearest_origin(self):
        # Orders, relations, levels and the impact set all agree with their
        # definitions as unions of per-origin (and per-service-node) reach.
        rng = random.Random(5)
        flagged_seen = set()
        for _ in range(6):
            model = random_model(rng, max_nodes=8, max_joint=2 ** 10)
            graph = model.graph
            ids = graph.node_ids
            origins = {nid: tuple(model.domain(nid))[-1]
                       for nid in rng.sample(ids, rng.randint(1, 3))}
            report = impact_probabilities(model, IncidentScenario(origins))
            downstream = set().union(*(descendants(graph, o) for o in origins))
            upstream = set().union(*(ancestors(graph, o) for o in origins))
            service = graph.service_goals() or graph.sinks()
            flagged_seen.add(bool(graph.service_goals()))
            feeds_service = set().union(*(ancestors(graph, s) for s in service))
            assert report.impact_set == downstream - set(origins)
            for nid in ids:
                orders = [dependency_order(graph, o, nid) for o in origins]
                orders = [o for o in orders if o is not None]
                want = 0 if nid in origins else (min(orders) if orders else None)
                entry = report.per_node[nid]
                assert entry.dependency_order == want
                if nid in origins:
                    relation, level = NodeRelation.ORIGIN, EventLevel.ATOMIC
                else:
                    relation = (NodeRelation.IMPACTED if nid in downstream
                                else NodeRelation.UPSTREAM if nid in upstream
                                else NodeRelation.UNRELATED)
                    level = (EventLevel.SERVICE if nid in service
                             else EventLevel.PROPAGATION
                             if nid in downstream and nid in feeds_service
                             else None)
                assert entry.relation is relation
                assert entry.level is level
        assert flagged_seen == {True, False}

    def test_one_downstream_walk_per_report(self, layered, monkeypatch):
        walks = []
        bfs = graph_module._bfs

        def recorded(graph, sources, upward=False):
            walks.append((tuple(sorted(sources)), upward))
            return bfs(graph, sources, upward)

        monkeypatch.setattr(graph_module, "_bfs", recorded)
        monkeypatch.setattr(cascade, "_bfs", recorded)
        scenario = IncidentScenario({"a14": "impaired"})
        report = impact_probabilities(layered.model, scenario)
        assert walks == [(("a14",), False), (("a1", "a2", "a3", "a4"), True),
                         (("a14",), True)]

        monkeypatch.undo()
        levels = classify_levels(layered.graph, scenario).levels
        distances = dependency_distances(layered.graph, scenario.origins)
        posteriors = posterior_update(layered.model, scenario.origins)
        assert {nid: (e.distribution, e.dependency_order, e.level)
                for nid, e in report.per_node.items()} == {
            nid: (posteriors[nid], distances.get(nid), levels.get(nid))
            for nid in layered.graph.node_ids}
        assert report.impact_set == frozenset(distances) - {"a14"}

    def test_d_separated_nodes_keep_priors(self):
        # With evidence only on the origin, a node is independent of it
        # exactly when the two share no ancestor (each counting as its own):
        # any common ancestor opens a collider-free path.
        rng = random.Random(11)
        for _ in range(8):
            model = random_model(rng, max_nodes=7, max_joint=2 ** 10)
            origin = model.graph.nodes[0].id
            state = tuple(model.domain(origin))[-1]
            report = impact_probabilities(model, IncidentScenario({origin: state}))
            origin_ancestry = ancestors(model.graph, origin) | {origin}
            for node in model.graph.nodes:
                node_ancestry = ancestors(model.graph, node.id) | {node.id}
                if node_ancestry & origin_ancestry:
                    continue  # d-connected: a common ancestor exists
                prior = enumerate_marginal(model, node.id)
                got = report.per_node[node.id].distribution
                assert got.probabilities == pytest.approx(prior.probabilities, abs=1e-9)
                assert report.per_node[node.id].relation is NodeRelation.UNRELATED

    def test_deterministic_chain_propagates_indicators(self):
        graph = graph_of("ABC", [("A", "B"), ("B", "C")])
        det = {("T",): (1.0, 0.0), ("F",): (0.0, 1.0)}
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (0.5, 0.5)),
            "B": Cpt("B", ("A",), dict(det)),
            "C": Cpt("C", ("B",), dict(det)),
        })
        report = impact_probabilities(model, IncidentScenario({"A": "F"}))
        assert report.per_node["B"].distribution.probabilities == (0.0, 1.0)
        assert report.per_node["C"].distribution.probabilities == (0.0, 1.0)

    def test_ancestors_flagged_upstream(self, chain2):
        report = impact_probabilities(chain2, IncidentScenario({"B": "T"}))
        assert report.per_node["A"].relation is NodeRelation.UPSTREAM
        assert report.per_node["A"].distribution.p("T") == pytest.approx(27 / 34, abs=1e-12)
        assert "A" not in report.impact_set

    def test_impact_set_matches_reachability(self, layered):
        scenario = IncidentScenario({"a10": "impaired"})
        report = impact_probabilities(layered.model, scenario)
        assert report.impact_set == impact_set(layered.graph, scenario)


class TestRankCriticality:
    @pytest.fixture
    def fresh(self):
        """layered_iot's model, not compiled yet: a check made after the
        first compile or elimination shows in the ``work`` fixture."""
        return load_bundled_model("layered_iot").model

    def test_single_candidate(self, layered):
        ranking = rank_criticality(layered.model, [("a14", "impaired")])
        assert len(ranking) == 1
        assert ranking[0].node == "a14"
        assert 0.0 <= ranking[0].score <= 1.0

    def test_ancestor_outranks_disconnected(self):
        graph = graph_of("ABZ", [("A", "B")], service=("B",))
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (0.7, 0.3)),
            "B": Cpt("B", ("A",), {("T",): (0.95, 0.05), ("F",): (0.2, 0.8)}),
            "Z": Cpt.prior("Z", (0.5, 0.5)),
        })
        ranking = rank_criticality(model, [("Z", "F"), ("A", "F")])
        assert [e.node for e in ranking] == ["A", "Z"]
        # the disconnected candidate's score equals the service prior P(B=F)
        prior = enumerate_marginal(model, "B").p("F")
        assert ranking[1].score == pytest.approx(prior, abs=1e-9)

    def test_equal_scores_tie_break_by_id(self):
        graph = graph_of("XYS", [("X", "S"), ("Y", "S")], service=("S",))
        symmetric = {("T", "T"): (0.9, 0.1), ("T", "F"): (0.4, 0.6),
                     ("F", "T"): (0.4, 0.6), ("F", "F"): (0.1, 0.9)}
        model = BayesianModel(graph, {
            "X": Cpt.prior("X", (0.5, 0.5)),
            "Y": Cpt.prior("Y", (0.5, 0.5)),
            "S": Cpt("S", ("X", "Y"), symmetric),
        })
        ranking = rank_criticality(model, [("Y", "F"), ("X", "F")])
        assert [e.node for e in ranking] == ["X", "Y"]
        assert ranking[0].score == pytest.approx(ranking[1].score, abs=1e-12)

    def test_impossible_candidate_reported_not_fatal(self):
        graph = graph_of("AB", [("A", "B")], service=("B",))
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (1.0, 0.0)),
            "B": Cpt("B", ("A",), {("T",): (0.8, 0.2), ("F",): (0.1, 0.9)}),
        })
        ranking = rank_criticality(model, [("A", "F"), ("A", "T")])
        by_state = {e.impaired_state: e for e in ranking}
        assert by_state["F"].score is None and by_state["F"].error
        assert by_state["T"].score is not None
        assert ranking[-1].impaired_state == "F"  # errored candidates sort last

    def test_aggregate_knobs(self, layered):
        candidates = [("a14", "impaired")]
        service = ("a1", "a4")
        mean = rank_criticality(layered.model, candidates, service)[0].score
        peak = rank_criticality(layered.model, candidates, service,
                                aggregate="max")[0].score
        weighted = rank_criticality(layered.model, candidates, service,
                                    aggregate="weighted",
                                    weights={"a1": 1.0, "a4": 3.0})[0].score
        assert peak >= mean
        assert 0.0 <= weighted <= 1.0
        p1 = enumerate_marginal(layered.model, "a1", {"a14": "impaired"}).p("impaired")
        p4 = enumerate_marginal(layered.model, "a4", {"a14": "impaired"}).p("impaired")
        assert mean == pytest.approx((p1 + p4) / 2, abs=1e-9)
        assert peak == pytest.approx(max(p1, p4), abs=1e-9)
        assert weighted == pytest.approx((p1 + 3 * p4) / 4, abs=1e-9)
        # a zero weight is allowed and drops its node from the score
        only_a4 = rank_criticality(layered.model, candidates, service,
                                   aggregate="weighted",
                                   weights={"a1": 0, "a4": 2})[0].score
        assert only_a4 == pytest.approx(p4, abs=1e-9)

    def test_a_repeated_degraded_state_counts_once(self, layered):
        candidates = [("a1", "impaired")]
        once = rank_criticality(layered.model, candidates, ["a2"], {"a2": ["impaired"]})
        twice = rank_criticality(layered.model, candidates, ["a2"],
                                 {"a2": ["impaired", "impaired"]})
        assert twice == once
        assert 0.0 <= once[0].score <= 1.0
        # Three states of four, given in any order or as a set (whose order
        # follows the string hash), sum in domain order: the same bits.
        model = random_model(random.Random(5), min_nodes=8, max_nodes=8,
                             min_states=4, max_states=4)
        ids = model.graph.node_ids
        states = model.domain(ids[-1]).states[:3]
        candidates = [(nid, model.domain(nid).states[0]) for nid in ids[:-1]]
        want = rank_criticality(model, candidates, [ids[-1]], {ids[-1]: states})
        for given in (states[::-1], set(states), [*states, states[0]]):
            assert rank_criticality(model, candidates, [ids[-1]], {ids[-1]: given}) == want

    def test_a_repeated_service_node_counts_once(self, layered):
        candidates = [("a1", "impaired")]
        service = ["a1", "a2", "a3", "a4"]  # layered_iot's service goals
        once = rank_criticality(layered.model, candidates)
        assert rank_criticality(layered.model, candidates, service) == once
        for aggregate, weights in (("mean", None), ("max", None),
                                   ("weighted", {s: 1.0 + k for k, s in enumerate(service)})):
            want = rank_criticality(layered.model, candidates, service, None, aggregate, weights)
            got = rank_criticality(layered.model, candidates, service + ["a1", "a3"], None,
                                   aggregate, weights)
            assert got == want, aggregate

    @pytest.mark.parametrize("candidates, kwargs, message", [
        ([], {}, "at least one candidate"),
        (None, {"aggregate": "median"}, "unknown aggregate 'median'"),
        (None, {"aggregate": "weighted"}, "requires weights"),
        (None, {"aggregate": "weighted", "weights": {"a1": 1.0}},
         "weights['a4'] must be a finite number >= 0, got None"),
        (None, {"aggregate": "weighted", "weights": {"a1": 0, "a4": 0.0}},
         "must sum to a finite number > 0, got 0.0"),
        (None, {"aggregate": "weighted", "weights": {"a1": -1, "a4": 2}},
         "weights['a1'] must be a finite number >= 0, got -1"),
        (None, {"aggregate": "weighted", "weights": {"a1": 1, "a4": float("nan")}},
         "weights['a4'] must be a finite number >= 0, got nan"),
        (None, {"aggregate": "weighted", "weights": {"a1": float("inf"), "a4": 1}},
         "weights['a1'] must be a finite number >= 0, got inf"),
        (None, {"aggregate": "weighted", "weights": {"a1": "1", "a4": 1}},
         "weights['a1'] must be a finite number >= 0, got '1'"),
        (None, {"aggregate": "weighted", "weights": {"a1": 1e308, "a4": 1e308}},
         "must sum to a finite number > 0, got inf"),
        (None, {"aggregate": "weighted", "weights": [1, 2]},
         "requires weights per service node as a mapping, got [1, 2]"),
        (None, {"aggregate": "weighted", "weights": "ab"},
         "requires weights per service node as a mapping, got 'ab'"),
        (None, {"aggregate": "weighted", "weights": 5},
         "requires weights per service node as a mapping, got 5"),
        (["a14"], {}, "candidate must be a (node, state) pair, got 'a14'"),
        (None, {"service_nodes": "a1"},
         "service_nodes must be a collection of node ids, got 'a1'"),
    ])
    def test_invalid_arguments_raise_before_elimination(self, fresh, work,
                                                        candidates, kwargs, message):
        if candidates is None:
            candidates = [("a14", "impaired")]
        with pytest.raises(InvalidArgument) as err:
            rank_criticality(fresh, candidates, **{"service_nodes": ("a1", "a4"), **kwargs})
        assert isinstance(err.value, ValueError)
        assert message in str(err.value)
        assert work == []

    def test_bad_candidate_raises_before_elimination(self, fresh, work):
        with pytest.raises(UnknownState):
            rank_criticality(fresh, [("a14", "impaired"), ("a12", "melted")])
        with pytest.raises(UnknownNode):
            rank_criticality(fresh, [("a14", "impaired"), ("ghost", "impaired")])
        assert work == []

    @pytest.mark.parametrize("degraded,error,message", [
        ({"ghost": {"x"}}, UnknownNode, "ghost"),
        ({"a14": {"impaired"}}, InvalidArgument, "degraded_states names 'a14', not a service node"),
        ({"a4": {"melted"}}, UnknownState, "node 'a4' has no state 'melted'"),
        ({"a1": "impaired"}, InvalidArgument,
         "degraded_states['a1'] must be a collection of states, got 'impaired'"),
    ], ids=["unknown-node", "not-a-service-node", "unknown-state", "states-as-a-string"])
    def test_bad_degraded_states_raise_before_elimination(self, fresh, work,
                                                          degraded, error, message):
        with pytest.raises(error) as err:
            rank_criticality(fresh, [("a14", "impaired"), ("a12", "impaired")],
                             degraded_states=degraded)
        assert message in str(err.value)
        assert work == []

    @staticmethod
    def _pair_cases():
        """``(model, service, degraded, candidates, weights)`` cases for
        :meth:`test_scores_equal_one_elimination_per_pair`."""
        rng = random.Random(20260810)
        for _ in range(60):
            model = random_model(rng, max_nodes=12, max_states=4, max_joint=2 ** 16)
            graph = model.graph
            ids = graph.node_ids
            root = next(nid for nid in ids if not graph.parents(nid))
            states = model.domain(root).states
            model = model.with_cpts(
                {root: Cpt.prior(root, (1.0,) + (0.0,) * (len(states) - 1))})
            service = sorted(rng.sample(ids, rng.randint(1, len(ids))))
            degraded = {s: set(rng.sample(model.domain(s).states, 2)) for s in service
                        if rng.random() < 0.5}
            candidates = [(nid, rng.choice(model.domain(nid).states))
                          for nid in rng.sample(ids, rng.randint(1, len(ids)))]
            candidates.append((root, states[-1]))
            weights = {s: rng.uniform(0.0, 2.0) for s in service}
            weights[service[0]] += 1.0
            yield model, service, degraded, candidates, weights
        # The candidate of probability 0 is the only service node: its
        # resumed run must still check the total.
        model = make_chain3().with_cpts({"A": Cpt.prior("A", (1.0, 0.0))})
        yield model, ["A"], {}, [("A", "F"), ("B", "T"), ("C", "F")], {"A": 1.0}
        # The service node S comes first in the elimination order, so the
        # pass's first step is S's, with no operands: candidates whose
        # evidence touches only S's own factor resume at the visit before
        # it, and with no other candidate that visit is the pass's last.
        model = BayesianModel(graph_of("S", []), {"S": Cpt.prior("S", (0.4, 0.6))})
        yield model, ["S"], {}, [("S", "T"), ("S", "F")], {"S": 1.0}
        model = BayesianModel(graph_of("ABS", [("A", "B")]), {
            "A": Cpt.prior("A", (0.3, 0.7)),
            "B": Cpt("B", ("A",), {("T",): (0.9, 0.1), ("F",): (0.2, 0.8)}),
            "S": Cpt.prior("S", (1.0, 0.0)),
        })
        assert model.compiled.elimination[0] == model.compiled.index["S"]
        yield model, ["S"], {}, [("S", "T"), ("S", "F"), ("A", "F"), ("B", "T")], {"S": 1.0}
        model = load_bundled_model("layered_iot").model
        service = ["a1", "a2", "a3", "a4"]
        yield (model, service, {}, [(nid, "impaired") for nid in model.graph.node_ids],
               {s: 1.0 + k for k, s in enumerate(service)})

    def test_scores_equal_one_elimination_per_pair(self):
        # On the acceptance suite's random models, every score is == the one
        # the per-(candidate, service node) full eliminations give,
        # candidates that are service nodes too, a candidate of probability
        # 0 and a lone candidate included; then on a candidate of
        # probability 0 that is the only service node, and on layered_iot
        # with every node a candidate.
        seen_service_candidate = False
        for model, service, degraded, candidates, weights in self._pair_cases():
            seen_service_candidate |= any(nid in service for nid, _ in candidates)
            total = sum(weights[s] for s in service)
            for aggregate in ("mean", "max", "weighted"):
                got = {(e.node, e.impaired_state): e for e in rank_criticality(
                    model, candidates, service, degraded, aggregate, weights)}
                assert len(got) == len(set(candidates))
                # A lone candidate, whose pass ends where its run resumes, too.
                lone = candidates[0]
                assert rank_criticality(model, [lone], service, degraded, aggregate,
                                        weights) == (got[lone],)
                for nid, state in candidates:
                    entry = got[nid, state]
                    try:
                        ps = [sum(full_elimination(model, s, {nid: state}).p(d)
                                  for d in degraded.get(s, (model.domain(s).states[-1],)))
                              for s in service]
                    except ImpossibleEvidence as exc:
                        assert (entry.score, entry.error) == (None, str(exc))
                        continue
                    want = (sum(ps) / len(ps) if aggregate == "mean" else
                            max(ps) if aggregate == "max" else
                            sum(weights[s] / total * p for s, p in zip(service, ps)))
                    assert entry.score == want, (nid, state, aggregate)
                    assert entry.error is None
        assert seen_service_candidate

    def test_ranking_peaks_near_a_lone_candidate(self):
        # 40 binary nodes, each the child of the 10 before it: each step of
        # the pass makes a table of 2^11 entries and consumes the one before.
        # Candidates resume inside the pass, which holds only its live
        # tables, so several peak within a small multiple of a lone one.
        ids = [f"x{i:02d}" for i in range(40)]
        graph = graph_of(ids, [(ids[j], ids[i]) for i in range(40)
                               for j in range(max(0, i - 10), i)])
        rng = random.Random(7)
        model = BayesianModel(graph, {nid: random_cpt(rng, graph, nid) for nid in ids})
        compiled = model.compiled
        peaks = []
        for candidates in ([("x00", "F")], [(nid, "F") for nid in ids[::6]]):
            tracemalloc.start()
            try:
                rank_criticality(model, candidates, ["x39"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        plan = inference._plan(compiled.factors, compiled.elimination, (compiled.index["x39"],))
        made = sum(8 * 2 ** len(step[4]) for step in plan.steps if step[1])
        assert made > 3 * peaks[0]  # so a ranking that holds every table fails the bound
        assert peaks[1] <= 2 * peaks[0], peaks

    def test_ranking_shares_elimination_steps(self, layered, steps):
        # Per service node, one evidence-free pass; each candidate's run
        # resumes from its state before the first step over a factor the
        # candidate's evidence reduces.  So ranking makes at most the passes'
        # steps and each pair's own from its resume position on: fewer than
        # one full elimination per pair.
        model = layered.model
        ids = model.graph.node_ids
        service = ("a1", "a2", "a3", "a4")

        def count(call, *args) -> int:
            steps.clear()
            call(*args)
            return len(steps)

        def per_pair(candidates, service_nodes):
            for nid, state in candidates:
                for s in service_nodes:
                    full_elimination(model, s, {nid: state})

        def resumed(nid: str, s: str) -> int:
            steps.clear()
            return _resumed_steps(model, nid, s, steps)

        candidates = [(nid, "impaired") for nid in ids]
        shared = count(rank_criticality, model, candidates, service)
        single = count(per_pair, candidates, service)
        assert single > 0  # the fixture counts steps
        bound = sum(count(full_elimination, model, s) for s in service) + \
            sum(resumed(nid, s) for nid, _ in candidates for s in service)
        assert shared <= bound, (shared, bound)
        assert shared < single, (shared, single)
        # A lone candidate's pass and resumed runs make the per-pair steps.
        candidates = [("a14", "impaired")]
        assert count(rank_criticality, model, candidates, service) == \
            count(per_pair, candidates, service)

    def test_ranking_pass_ends_at_its_last_resume(self, layered, steps):
        # Per service node, the pass makes its steps before the latest
        # resume position and none after; each pair then makes its own from
        # its resume position on.  So ranking makes exactly those steps.
        model = layered.model
        compiled = model.compiled
        service = ("a1", "a2", "a3", "a4")
        candidates = [(nid, "impaired") for nid in model.graph.node_ids]
        want = 0
        for s in service:
            plan = inference._plan(compiled.factors, compiled.elimination,
                                   (compiled.index[s],))
            last = max(_resume_position(compiled, nid, s) for nid, _ in candidates)
            assert any(step[1] for step in plan.steps[last:])  # a whole pass makes more
            want += sum(1 for step in plan.steps[:last] if step[1])
            for nid, _ in candidates:
                steps.clear()
                want += _resumed_steps(model, nid, s, steps)
        steps.clear()
        rank_criticality(model, candidates, service)
        assert len(steps) == want

    def test_empty_scenario_is_an_invalid_argument(self):
        with pytest.raises(InvalidArgument) as err:
            IncidentScenario({})
        assert isinstance(err.value, ValueError)
