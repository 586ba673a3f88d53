"""Exact inference: worked values, oracle agreement, and error contracts.

Expected numbers were derived by hand and double-checked with an independent
brute-force enumeration before being frozen here (0.03, 0.34, 27/34, 0.404).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotrisk.errors import (
    ImpossibleEvidence,
    IncompleteAssignment,
    MissingCpt,
    UnknownNode,
    UnknownState,
    ValidationFailed,
)
from iotrisk import inference, temporal
from iotrisk.bundled import load_bundled_model
from iotrisk.cascade import IncidentScenario, impact_probabilities, rank_criticality
from iotrisk.graph import (
    ComponentNode,
    DependencyGraph,
    InfluenceEdge,
    StateDomain,
    topological_order,
)
from iotrisk.inference import (
    ORACLE_TOL,
    compile_model,
    eliminate_marginal,
    enumerate_marginal,
    enumerate_posteriors,
    joint_probability,
    posterior_update,
)
from iotrisk.model import BayesianModel, Cpt, Marginal
from iotrisk.sampling import monte_carlo_sample
from iotrisk.temporal import (
    ObservationSeries,
    filter_marginals,
    predict_marginals,
    smooth_marginals,
)

from conftest import (
    brute_posteriors,
    full_elimination,
    per_node_slice_posteriors,
    random_evidence,
    random_model,
    random_temporal_model,
    run_capped,
    wide_model,
)

TF = StateDomain(["T", "F"])

# Evidence-free point queries on every node of the wide model, one JSON
# object of node id -> probabilities.
WIDE_QUERIES = """
import json
from conftest import wide_model
from iotrisk.inference import eliminate_marginal
model = wide_model()
print(json.dumps({nid: eliminate_marginal(model, nid).probabilities
                  for nid in model.graph.node_ids}))
"""

# Filter at t = 1 on sys.argv[1] independent binary device chains, nothing
# observed; prints the first chain's probabilities.
CHAINS_FILTER = """
import json, sys
from iotrisk.graph import ComponentNode, DependencyGraph, StateDomain
from iotrisk.model import BayesianModel, Cpt
from iotrisk.temporal import (ObservationSeries, SliceTemplate, TemporalEdge,
                              TemporalModel, filter_marginals)
TF = StateDomain(["T", "F"])
ids = [f"d{i:02d}" for i in range(int(sys.argv[1]))]
template = BayesianModel(DependencyGraph([ComponentNode(n, "perception", TF) for n in ids], []),
                         {n: Cpt.prior(n, (0.9, 0.1)) for n in ids})
stay = {("T",): (0.8, 0.2), ("F",): (0.05, 0.95)}
model = TemporalModel(SliceTemplate(template),
                      [TemporalEdge(n, n, Cpt(n, (n,), stay)) for n in ids])
print(json.dumps(filter_marginals(model, ObservationSeries(), 1)[ids[0]].probabilities))
"""


def acceptance_models():
    """The models and evidence of acceptance criterion 1, drawn alike."""
    rng = random.Random(20260810)
    for _ in range(500):
        model = random_model(rng, max_nodes=12, max_states=4, max_joint=2 ** 16)
        yield model, random_evidence(rng, model)
    for seed in (101, 202, 303):
        rng2 = random.Random(seed)
        model = random_model(rng2, max_nodes=12, min_nodes=12, max_states=4,
                             min_states=4, max_joint=4 ** 12, edge_p=0.25)
        yield model, random_evidence(rng2, model)


class TestJointProbability:
    def test_chain_product(self, chain2):
        assert joint_probability(chain2, {"A": "T", "B": "F"}) == pytest.approx(0.03, abs=1e-15)

    def test_deterministic_prior(self):
        graph = DependencyGraph([ComponentNode("A", "network", TF)], [])
        model = BayesianModel(graph, {"A": Cpt.prior("A", (1.0, 0.0))})
        assert joint_probability(model, {"A": "T"}) == 1.0

    def test_joint_sums_to_one(self, chain2):
        total = math.fsum(
            joint_probability(chain2, {"A": a, "B": b})
            for a, b in itertools.product("TF", repeat=2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_assignment_raises(self, chain2):
        with pytest.raises(IncompleteAssignment):
            joint_probability(chain2, {"A": "T"})

    def test_unknown_state_raises(self, chain2):
        with pytest.raises(UnknownState):
            joint_probability(chain2, {"A": "T", "B": "maybe"})

    def test_missing_cpt_raises(self, chain2):
        partial = BayesianModel(chain2.graph, {"A": chain2.cpts["A"]})
        with pytest.raises(MissingCpt):
            joint_probability(partial, {"A": "T", "B": "T"})


class TestEnumerateMarginal:
    def test_chain_prior_marginal(self, chain2):
        assert enumerate_marginal(chain2, "B").p("T") == pytest.approx(0.34, abs=1e-12)

    def test_conditioning_on_self_gives_indicator(self, chain2):
        marginal = enumerate_marginal(chain2, "A", {"A": "T"})
        assert marginal.probabilities == (1.0, 0.0)

    def test_three_chain_marginal(self, chain3):
        assert enumerate_marginal(chain3, "C").p("T") == pytest.approx(0.404, abs=1e-12)

    def test_agrees_with_pure_python_summation(self, chain3):
        # chain-rule consistency: the numpy joint equals the literal sum of
        # joint_probability over completions
        for evidence in ({}, {"A": "T"}, {"C": "F"}, {"A": "F", "C": "T"}):
            brute = brute_posteriors(chain3, evidence)
            out = enumerate_posteriors(chain3, evidence)
            for nid, states in brute.items():
                for state, p in states.items():
                    assert out[nid].p(state) == pytest.approx(p, abs=1e-12)

    def test_impossible_evidence_raises(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF)],
            [InfluenceEdge("A", "B")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (1.0, 0.0)),
            "B": Cpt("B", ("A",), {("T",): (1.0, 0.0), ("F",): (0.0, 1.0)}),
        })
        with pytest.raises(ImpossibleEvidence):
            enumerate_marginal(model, "A", {"B": "F"})

    def test_unknown_query_raises(self, chain2):
        with pytest.raises(UnknownNode):
            enumerate_marginal(chain2, "Z")


class TestEliminateMarginal:
    def test_reproduces_enumeration_examples(self, chain2, chain3):
        assert eliminate_marginal(chain2, "B").p("T") == pytest.approx(0.34, abs=1e-12)
        assert eliminate_marginal(chain2, "A", {"A": "T"}).probabilities == (1.0, 0.0)
        assert eliminate_marginal(chain3, "C").p("T") == pytest.approx(0.404, abs=1e-12)

    def test_disconnected_node_keeps_prior_under_unrelated_evidence(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF),
             ComponentNode("Z", "network", TF)],
            [InfluenceEdge("A", "B")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (0.3, 0.7)),
            "B": Cpt("B", ("A",), {("T",): (0.9, 0.1), ("F",): (0.1, 0.9)}),
            "Z": Cpt.prior("Z", (0.25, 0.75)),
        })
        marginal = eliminate_marginal(model, "Z", {"B": "T"})
        assert marginal.probabilities == pytest.approx((0.25, 0.75), abs=1e-12)

    def test_matches_enumeration_on_random_models(self):
        rng = random.Random(2024)
        for _ in range(40):
            model = random_model(rng, max_nodes=8, max_joint=2 ** 12)
            evidence = random_evidence(rng, model)
            expected = enumerate_posteriors(model, evidence)
            for node in model.graph.nodes:
                got = eliminate_marginal(model, node.id, evidence)
                for state, p in zip(got.states, got.probabilities):
                    assert p == pytest.approx(expected[node.id].p(state), abs=1e-9)

    def test_pruned_agrees_with_full_elimination_and_enumeration(self):
        # Only the requisite nodes are summed out; the other tables only
        # scale the result, so the answers move by last bits at most.
        for model, evidence in acceptance_models():
            oracle = enumerate_posteriors(model, evidence)
            for nid in model.graph.node_ids:
                got = eliminate_marginal(model, nid, evidence).probabilities
                for want in (full_elimination(model, nid, evidence), oracle[nid]):
                    assert got == pytest.approx(want.probabilities, abs=ORACLE_TOL), nid

    def test_evidence_free_root_makes_no_step(self, chain3, steps):
        assert eliminate_marginal(chain3, "A").probabilities == (0.3, 0.7)
        assert steps == []
        # B's query sums out A alone, not the barren C.
        eliminate_marginal(chain3, "B")
        assert steps == [chain3.compiled.index["A"]]
        # No observed state reaches A's step, so B's plan ran it when it was
        # built, and a plan hit makes no step.
        steps.clear()
        assert eliminate_marginal(chain3, "A").probabilities == (0.3, 0.7)
        assert steps == []
        eliminate_marginal(chain3, "B")
        assert steps == []

    def test_wide_model_answers_every_point_query(self):
        # The full elimination's 2^29-entry factors raise MemoryError under
        # the child's 1.5 GiB cap; each node's ancestors fit.
        proc = run_capped("-c", WIDE_QUERIES)
        assert proc.returncode == 0, proc.stderr[-2000:]
        got = json.loads(proc.stdout)
        model = wide_model()
        assert tuple(got) == model.graph.node_ids
        for nid, probabilities in got.items():
            assert math.fsum(probabilities) == pytest.approx(1.0, abs=ORACLE_TOL), nid
            if not model.graph.parents(nid):
                assert probabilities == pytest.approx(model.cpt(nid).row(()), abs=ORACLE_TOL)

    def test_impossible_evidence_raised_by_both_paths(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF)],
            [InfluenceEdge("A", "B")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (1.0, 0.0)),
            "B": Cpt("B", ("A",), {("T",): (1.0, 0.0), ("F",): (0.0, 1.0)}),
        })
        with pytest.raises(ImpossibleEvidence):
            eliminate_marginal(model, "A", {"B": "F"})
        with pytest.raises(ImpossibleEvidence):
            eliminate_marginal(model, "B", {"B": "F"})


def _answer(model, query, evidence):
    """``eliminate_marginal``'s answer, or the type and text of its error."""
    try:
        return eliminate_marginal(model, query, evidence)
    except ImpossibleEvidence as exc:
        return type(exc), str(exc)


def _cold(model, query, evidence):
    """The answer of a twin of ``model`` that has memoized no plan."""
    return _answer(dataclasses.replace(model, cpts=dict(model.cpts)), query, evidence)


def _whole_plan(model, var, observed) -> tuple:
    """``(plan, order, factors)``: the whole plan of ``var``'s memoized point
    plan under ``observed`` (variable -> state index), every step included,
    which the memo does not keep, and the order and reduced factors it
    eliminates."""
    compiled = model.compiled
    kept = compiled.plans[(var, frozenset(observed))].kept
    factors = [inference._reduce_factor(compiled.factors[i], observed) for i in kept]
    members = set(kept)
    order = tuple([v for v in compiled.elimination if v in members])
    return inference._plan(factors, order, (var,)), order, factors


def _states(model, observed, rng):
    return {nid: rng.choice(model.domain(nid).states) for nid in observed}


class TestPointPlans:
    """eliminate_marginal's plans, memoized per (query, observed set)."""

    def test_answers_track_the_states_of_one_observed_set(self):
        rng = random.Random(41)
        for _ in range(20):
            model = random_model(rng, min_nodes=5, max_nodes=10)
            ids = model.graph.node_ids
            query = rng.choice(ids)
            observed = rng.sample([nid for nid in ids if nid != query],
                                  rng.randint(1, min(3, len(ids) - 1)))
            for _ in range(12):
                evidence = _states(model, observed, rng)
                assert _answer(model, query, evidence) == _cold(model, query, evidence)
                # Another key in between: another query, another observed set.
                other = rng.choice(ids)
                evidence = random_evidence(rng, model)
                assert _answer(model, other, evidence) == _cold(model, other, evidence)

    def test_hits_agree_with_enumeration(self):
        # Each node's plan is built under the drawn evidence, then replayed
        # under new states of the same observed nodes.
        rng = random.Random(43)
        for model, evidence in acceptance_models():
            ids = model.graph.node_ids
            for nid in ids:
                _answer(model, nid, evidence)
            evidence = _states(model, evidence, rng)
            try:
                oracle = enumerate_posteriors(model, evidence)
            except ImpossibleEvidence:
                for nid in ids:
                    with pytest.raises(ImpossibleEvidence):
                        eliminate_marginal(model, nid, evidence)
                continue
            for nid in ids:
                got = eliminate_marginal(model, nid, evidence).probabilities
                assert got == pytest.approx(oracle[nid].probabilities, abs=ORACLE_TOL), nid

    def test_hit_walks_no_ancestors(self, monkeypatch):
        walks = []
        bfs = inference._bfs

        def recorded(graph, sources, upward=False):
            walks.append((tuple(sorted(sources)), upward))
            return bfs(graph, sources, upward)

        monkeypatch.setattr(inference, "_bfs", recorded)
        model = load_bundled_model("layered_iot").model
        first = eliminate_marginal(model, "a2", {"a14": "impaired", "a7": "operational"})
        assert walks == [(("a14", "a2", "a7"), True)]
        again = eliminate_marginal(model, "a2", {"a7": "impaired", "a14": "operational"})
        assert walks == [(("a14", "a2", "a7"), True)]
        assert again != first
        assert eliminate_marginal(model, "a2", {"a14": "impaired", "a7": "operational"}) == first
        eliminate_marginal(model, "a1", {"a14": "impaired", "a7": "operational"})
        assert walks == [(("a14", "a2", "a7"), True), (("a1", "a14", "a7"), True)]

    def test_hit_checks_evidence_as_the_first_call(self):
        # A is T for certain and B copies it, so B = F has probability 0.
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF)],
            [InfluenceEdge("A", "B")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (1.0, 0.0)),
            "B": Cpt("B", ("A",), {("T",): (1.0, 0.0), ("F",): (0.0, 1.0)}),
        })
        assert eliminate_marginal(model, "A", {"B": "T"}).probabilities == (1.0, 0.0)
        assert len(model.compiled.plans) == 1
        with pytest.raises(ImpossibleEvidence, match=r"^evidence \{'B': 'F'\} has probability 0$"):
            eliminate_marginal(model, "A", {"B": "F"})
        with pytest.raises(UnknownState):
            eliminate_marginal(model, "A", {"B": "maybe"})
        with pytest.raises(UnknownNode):
            eliminate_marginal(model, "ghost", {"B": "maybe"})
        with pytest.raises(UnknownNode):
            eliminate_marginal(model, "A", {"ghost": "T"})
        assert len(model.compiled.plans) == 1

    def test_table_stays_within_its_cap(self):
        rng = random.Random(47)
        model = random_model(rng, min_nodes=10, max_nodes=10, max_states=2)
        ids = model.graph.node_ids
        keys = [(q, observed) for q in ids
                for observed in itertools.combinations([n for n in ids if n != q], 2)]
        keys += [(q, observed) for q in ids
                 for observed in itertools.combinations([n for n in ids if n != q], 3)]
        assert len(keys) > inference._MAX_PLANS
        plans = model.compiled.plans
        asked = []
        for query, observed in keys[:inference._MAX_PLANS + 40]:
            evidence = _states(model, observed, rng)
            asked.append((query, evidence, _answer(model, query, evidence)))
            assert len(plans) <= inference._MAX_PLANS
        assert len(plans) == inference._MAX_PLANS
        # The first keys' plans were evicted and are built again.
        for query, evidence, answer in asked[:50] + asked[-10:]:
            assert _answer(model, query, evidence) == answer
            assert answer == _cold(model, query, evidence)
            assert len(plans) <= inference._MAX_PLANS

    def test_threads_get_single_threaded_answers(self, monkeypatch):
        # More threads than cores on one model, each under its own evidence,
        # with a cap small enough that insertions evict all the while.
        monkeypatch.setattr(inference, "_MAX_PLANS", 8)
        rng = random.Random(53)
        model = random_model(rng, min_nodes=10, max_nodes=10)
        ids = model.graph.node_ids
        work = [[(rng.choice(ids), random_evidence(rng, model)) for _ in range(40)]
                for _ in range(8)]
        want = [[_cold(model, q, ev) for q, ev in jobs] for jobs in work]
        got = [None] * len(work)

        def ask(n: int) -> None:
            got[n] = [_answer(model, q, ev) for _ in range(5) for q, ev in work[n]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(n,)) for n in range(len(work))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [answers * 5 for answers in want]
        assert len(model.compiled.plans) <= 8


def _chain4(c_rows=None, d_rows=None) -> BayesianModel:
    """A -> B -> C -> D, binary; ``c_rows`` and ``d_rows`` replace the
    tables of C and D."""
    graph = DependencyGraph(
        [ComponentNode(nid, "network", TF) for nid in "ABCD"],
        [InfluenceEdge("A", "B"), InfluenceEdge("B", "C"), InfluenceEdge("C", "D")])
    copy = {("T",): (0.8, 0.2), ("F",): (0.3, 0.7)}
    return BayesianModel(graph, {
        "A": Cpt.prior("A", (0.4, 0.6)),
        "B": Cpt("B", ("A",), {("T",): (0.9, 0.1), ("F",): (0.2, 0.8)}),
        "C": Cpt("C", ("B",), c_rows or copy),
        "D": Cpt("D", ("C",), d_rows or copy),
    })


class TestFoldedPlans:
    """A point plan runs the steps that no observed state reaches once, when
    it is built; every call, cold or a hit, replays the rest."""

    def test_a_hit_replays_only_the_steps_the_evidence_reaches(self, steps):
        model = _chain4()
        a, b, c, d = (model.compiled.index[nid] for nid in "ABCD")
        cold = eliminate_marginal(model, "B", {"D": "T"})
        plan = _whole_plan(model, b, inference._observed(model, {"D": "T"})[1])[0]
        # The cold call makes every step of the plan once: A's, which no
        # observed state reaches, and C's, over D's reduced table.
        assert sorted(steps) == sorted(step[0] for step in plan.steps if step[1])
        assert sorted(steps) == [a, c]
        want = _cold(model, "B", {"D": "F"})
        steps.clear()
        assert eliminate_marginal(model, "B", {"D": "T"}) == cold
        assert steps == [c]
        steps.clear()
        assert eliminate_marginal(model, "B", {"D": "F"}) == want
        assert steps == [c]

    def test_hits_of_a_folded_plan_build_their_own_answers(self, chain3):
        cold = eliminate_marginal(chain3, "B")
        point = chain3.compiled.plans[(chain3.compiled.index["B"], frozenset())]
        assert (point.replay.steps, point.reduce) == ((), ())  # nothing left to run
        first, second = eliminate_marginal(chain3, "B"), eliminate_marginal(chain3, "B")
        assert first is not second
        assert first.probabilities == second.probabilities == cold.probabilities
        assert cold.probabilities == pytest.approx((0.34, 0.66), abs=1e-12)

    def test_a_hit_raises_on_evidence_impossible_in_a_replayed_step(self):
        # C is always T, and D is never F when C is: only the replayed step
        # over C and D's reduced table sees that D = F is impossible.
        model = _chain4(c_rows={("T",): (1.0, 0.0), ("F",): (1.0, 0.0)},
                        d_rows={("T",): (1.0, 0.0), ("F",): (0.5, 0.5)})
        assert eliminate_marginal(model, "B", {"D": "T"}) == _cold(model, "B", {"D": "T"})
        point = model.compiled.plans[(1, frozenset({3}))]
        assert [step[0] for step in point.replay.steps] == [2]
        with pytest.raises(ImpossibleEvidence, match=r"^evidence \{'D': 'F'\} has probability 0$"):
            eliminate_marginal(model, "B", {"D": "F"})
        assert _cold(model, "B", {"D": "F"})[0] is ImpossibleEvidence

    def test_folded_tables_are_read_only_and_bounded(self):
        # At most one folded table per kept factor over no observed
        # variable, each no larger than the plan's largest table.
        for model, evidence in acceptance_models():
            compiled = model.compiled
            _, observed = inference._observed(model, evidence)
            cards = {v: n for f in compiled.factors for v, n in zip(f.vars, f.values.shape)}
            for var, nid in enumerate(compiled.ids):
                _answer(model, nid, evidence)
                point = compiled.plans[(var, frozenset(observed))]
                free = [i for i in point.kept if observed.keys().isdisjoint(compiled.factors[i].vars)]
                assert len(point.folded) <= len(free)
                scopes = [inference._reduce_factor(compiled.factors[i], observed).vars
                          for i in point.kept]
                scopes += [step[4] for step in _whole_plan(model, var, observed)[0].steps
                           if step[1]]
                largest = max([math.prod(cards[v] for v in scope) for scope in scopes], default=1)
                for table in point.folded:
                    assert not table.values.flags.writeable
                    assert table.values.size <= largest

    def test_a_build_logs_once_and_a_hit_not_at_all(self, chain3, caplog):
        caplog.set_level(logging.DEBUG, logger="iotrisk.inference")
        eliminate_marginal(chain3, "A", {"C": "T"})
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("iotrisk.inference", logging.DEBUG,
             "point plan for 'A' given ['C'] observed: keeps ['A', 'B', 'C'], "
             "folds [], replays ['B']")]
        caplog.clear()
        eliminate_marginal(chain3, "A", {"C": "F"})
        eliminate_marginal(chain3, "A", {"C": "T"})
        assert caplog.records == []
        eliminate_marginal(chain3, "C")
        assert [r.getMessage() for r in caplog.records] == [
            "point plan for 'C' given [] observed: keeps ['A', 'B', 'C'], "
            "folds ['B', 'A'], replays []"]


def _with_zeros(rng, model):
    """``model`` with about a third of its CPT rows holding zeros, each such
    row keeping at least one state possible."""
    cpts = {}
    for nid, cpt in model.cpts.items():
        rows = {}
        for key, row in cpt.rows.items():
            if rng.random() < 0.35:
                alive = set(rng.sample(range(len(row)), rng.randint(1, len(row) - 1)))
                row = [p if k in alive else 0.0 for k, p in enumerate(row)]
                total = math.fsum(row)
                row = [p / total for p in row]
            rows[key] = row
        cpts[nid] = Cpt(nid, cpt.parent_order, rows)
    return BayesianModel(model.graph, cpts)


class TestRequisitePlans:
    """Point plans keep the Bayes-Ball requisite factors when every other
    ancestral table is strictly positive, and every ancestral one otherwise."""

    def test_observed_middle_of_a_chain_blocks_its_ancestors(self, chain3):
        compiled = chain3.compiled
        a, b, c = (compiled.index[nid] for nid in "ABC")
        assert eliminate_marginal(chain3, "C", {"B": "T"}).probabilities == (0.8, 0.2)
        assert compiled.plans[(c, frozenset({b}))].kept == (c,)
        # A is requisite above the observed B: its table weighs B's evidence.
        eliminate_marginal(chain3, "A", {"B": "T"})
        assert compiled.plans[(a, frozenset({b}))].kept == (a, b)

    @pytest.mark.parametrize("a_row, b_rows", [
        # B is never F: its own table holds the zero.
        ((0.3, 0.7), {("T",): (1.0, 0.0), ("F",): (1.0, 0.0)}),
        # B copies A, which is never F: A's table holds the zero.
        ((1.0, 0.0), {("T",): (1.0, 0.0), ("F",): (0.0, 1.0)}),
    ])
    def test_a_zero_in_a_dropped_table_keeps_every_ancestor(self, a_row, b_rows):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF),
             ComponentNode("C", "network", TF)],
            [InfluenceEdge("A", "B"), InfluenceEdge("B", "C")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", a_row),
            "B": Cpt("B", ("A",), b_rows),
            "C": Cpt("C", ("B",), {("T",): (0.8, 0.2), ("F",): (0.2, 0.8)}),
        })
        assert eliminate_marginal(model, "C", {"B": "T"}).probabilities == pytest.approx(
            (0.8, 0.2), abs=ORACLE_TOL)
        compiled = model.compiled
        assert compiled.plans[(2, frozenset({1}))].kept == (0, 1, 2)
        # Only the dropped tables say that B = F is impossible.
        for _ in range(2):  # cold, then on the plan
            with pytest.raises(ImpossibleEvidence):
                eliminate_marginal(model, "C", {"B": "F"})

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_impossible_exactly_when_enumeration_says_so(self, seed):
        rng = random.Random(seed)
        model = _with_zeros(rng, random_model(rng, max_nodes=8, max_states=3,
                                              max_joint=2 ** 10))
        ids = model.graph.node_ids
        evidence = random_evidence(rng, model)
        for nid in ids:  # each node's plan, built under the drawn states
            _answer(model, nid, evidence)
        for states in (evidence, _states(model, evidence, rng)):
            try:
                oracle = enumerate_posteriors(model, states)
            except ImpossibleEvidence:
                oracle = None
            for nid in ids:
                for got in (_cold(model, nid, states), _answer(model, nid, states)):
                    if oracle is None:
                        assert got[0] is ImpossibleEvidence, (nid, states)
                    else:
                        assert isinstance(got, Marginal), (nid, states, got)
                        assert got.probabilities == pytest.approx(
                            oracle[nid].probabilities, abs=ORACLE_TOL), (nid, states)


class TestRunMemory:
    """A run frees each table once a step has consumed it."""

    def test_peak_is_a_small_multiple_of_the_largest_live_set(self):
        # A message over k binary variables, and one two-entry table per
        # variable, as a slice's interface meets its transitions: each of
        # the k steps makes a 2^k-entry table, consumed by the next step.
        k = 16
        rng = np.random.default_rng(0)
        factors = [inference._Factor(tuple(range(k)), rng.random((2,) * k))]
        factors += [inference._Factor((i, k + i), rng.random((2, 2))) for i in range(k)]
        plan = inference._plan(factors, tuple(range(k)), ())
        # Entries a run must hold at once: the live tables, the step's
        # product and its result.
        sizes = [f.values.size for f in factors]
        live = set(range(len(factors)))
        largest = made = 0
        for _, operands, shapes, _, scope in plan.steps:
            product = 2 ** (len(scope) + 1) if shapes else 0
            sizes.append(2 ** len(scope))
            largest = max(largest, sum(sizes[s] for s in live) + product + sizes[-1])
            live.difference_update(operands)
            live.add(len(sizes) - 1)
            made += sizes[-1]
        assert made > 3 * largest  # so a run that holds every table fails the bound
        tracemalloc.start()
        try:
            inference._run(plan, factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * largest * 8

    def test_independent_chains_filter_under_the_cap(self):
        # 23 binary chains: filter at t = 1 makes 23 tables of 2^23 entries
        # (64 MiB each) one after the other.  Holding all of them outgrows
        # the child's 1.5 GiB cap; freeing each once consumed needs ~350 MB.
        proc = run_capped("-c", CHAINS_FILTER, "23")
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == pytest.approx([0.725, 0.275], abs=ORACLE_TOL)


class TestPlanShape:
    """Every plan has one step per position of its order, whoever asks."""

    @staticmethod
    def _check(plan, order, keep, factors):
        assert [step[0] for step in plan.steps] == list(order)
        assert all(not step[1] for step in plan.steps if step[0] in keep)
        # A visit sees every position, then the state after the last step,
        # and one that does nothing changes no bit of the result.
        plain = inference._run(plan, factors)
        seen = []
        visited = inference._run(plan, factors, lambda i, live: seen.append(i))
        assert seen == list(range(len(order) + 1))
        assert visited.vars == plain.vars
        assert visited.values.tobytes() == plain.values.tobytes()

    def test_point_and_pass_plans_have_a_step_per_summed_variable(self):
        for model, evidence in acceptance_models():
            compiled = model.compiled
            _, observed, factors = inference._reduced(model, evidence)
            self._check(inference._plan(factors, compiled.elimination, ()),
                        compiled.elimination, (), factors)
            for var, nid in enumerate(compiled.ids):
                try:
                    eliminate_marginal(model, nid, evidence)
                except ImpossibleEvidence:
                    pass
                plan, order, factors = _whole_plan(model, var, observed)
                self._check(plan, order, (var,), factors)


class TestPosteriorUpdate:
    def test_bayes_update_from_child(self, chain2):
        posteriors = posterior_update(chain2, {"B": "T"})
        assert posteriors["A"].p("T") == pytest.approx(27 / 34, abs=1e-12)
        assert posteriors["B"].probabilities == (1.0, 0.0)

    def test_empty_evidence_gives_priors(self, chain2):
        posteriors = posterior_update(chain2)
        assert posteriors["A"].p("T") == pytest.approx(0.3, abs=1e-12)
        assert posteriors["B"].p("T") == pytest.approx(0.34, abs=1e-12)

    def test_evidence_on_root_reads_cpt_row(self, chain2):
        posteriors = posterior_update(chain2, {"A": "T"})
        assert posteriors["B"].p("T") == pytest.approx(0.9, abs=1e-12)

    def test_observed_queries_share_one_indicator(self):
        model = load_bundled_model("layered_iot").model
        first = eliminate_marginal(model, "a14", {"a14": "impaired"})
        again = posterior_update(model, {"a14": "impaired", "a1": "operational"})["a14"]
        assert again is first
        assert first is model.compiled.indicators[model.compiled.index["a14"]][
            model.domain("a14").index("impaired")]
        oracle = enumerate_posteriors(model, {"a14": "impaired"})["a14"]
        assert oracle is not first
        assert oracle == first and hash(oracle) == hash(first)

    def test_marginals_are_normalized_distributions(self):
        rng = random.Random(99)
        for _ in range(10):
            model = random_model(rng, max_nodes=6, max_joint=2 ** 10)
            evidence = random_evidence(rng, model)
            for marginal in posterior_update(model, evidence).values():
                assert all(p >= 0.0 for p in marginal.probabilities)
                assert math.fsum(marginal.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_equals_one_elimination_per_node_bit_for_bit(self):
        for model, evidence in acceptance_models():
            for ev in ({}, evidence):
                got = posterior_update(model, ev)
                assert tuple(got) == model.graph.node_ids
                for nid, marginal in got.items():
                    alone = full_elimination(model, nid, ev)
                    if nid in ev:
                        assert marginal is alone
                    else:
                        # Marginal equality is == on the probability tuples.
                        assert marginal == alone, (nid, ev)

    def test_impossible_evidence_raises_as_one_elimination_per_node(self):
        # A is T for certain and B copies it, so B = F has probability 0.
        graph = DependencyGraph(
            [ComponentNode(nid, "network", TF) for nid in "ABC"],
            [InfluenceEdge("A", "B"), InfluenceEdge("B", "C")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (1.0, 0.0)),
            "B": Cpt("B", ("A",), {("T",): (1.0, 0.0), ("F",): (0.0, 1.0)}),
            "C": Cpt("C", ("B",), {("T",): (0.7, 0.3), ("F",): (0.2, 0.8)}),
        })
        # The second evidence set observes every node, so no node's own
        # elimination is left to find the zero: the shared pass's total does.
        for evidence in ({"B": "F"}, {"C": "T", "B": "F", "A": "T"}):
            with pytest.raises(ImpossibleEvidence) as alone:
                eliminate_marginal(model, "A", evidence)
            with pytest.raises(ImpossibleEvidence) as err:
                posterior_update(model, evidence)
            assert type(err.value) is ImpossibleEvidence
            assert str(err.value) == str(alone.value) == \
                f"evidence {evidence!r} has probability 0"

    def test_all_posteriors_share_one_elimination_prefix(self, steps):
        for seed in (1, 2):
            rng = random.Random(seed)
            model = random_model(rng, min_nodes=80, max_nodes=80, max_states=2,
                                 max_joint=2 ** 80, edge_p=0.02, max_parents=3)
            compiled = model.compiled
            attributes = dict(vars(model))
            fields = {f.name: getattr(compiled, f.name) for f in dataclasses.fields(compiled)}
            index = dict(compiled.index)
            for evidence in ({}, random_evidence(rng, model)):
                steps.clear()
                for nid in model.graph.node_ids:
                    full_elimination(model, nid, evidence)
                one_per_node = len(steps)
                assert one_per_node > 0  # the fixture counts steps
                steps.clear()
                posterior_update(model, evidence)
                assert len(steps) <= 0.6 * one_per_node, (seed, evidence)
            # Nothing outlives the call: no attribute and no cached state.
            assert vars(model).keys() == attributes.keys()
            assert all(vars(model)[k] is v for k, v in attributes.items())
            assert all(getattr(compiled, k) is v for k, v in fields.items())
            assert compiled.index == index

    def test_temporal_slice_shares_one_elimination_prefix(self, steps, monkeypatch):
        # The queried slice's nodes share one pass too, as posterior_update's do.
        sweep = temporal._sweep

        def uncounted_sweep(*args):
            start = len(steps)
            message = sweep(*args)
            del steps[start:]  # count the queried slice's steps only
            return message

        monkeypatch.setattr(temporal, "_sweep", uncounted_sweep)

        def count(query, *args) -> int:
            steps.clear()
            query(*args)
            return len(steps)

        smart_home = load_bundled_model("smart_home").temporal_model()
        obs = ObservationSeries([(1, {"wifi_gateway": "down"})])
        for k, t in ((1, 1), (2, 2), (0, 3)):
            shared = count(smooth_marginals, smart_home, obs, k, t)
            assert shared < count(per_node_slice_posteriors, smart_home, obs, k, t), (k, t)
        assert count(filter_marginals, smart_home, ObservationSeries(), 0) == 15
        assert count(per_node_slice_posteriors, smart_home, ObservationSeries(), 0, 0) == 20

        rng = random.Random(18)
        shared = per_node = 0
        for _ in range(50):
            tm = random_temporal_model(rng, max_template_nodes=8)
            shared += count(filter_marginals, tm, ObservationSeries(), 0)
            per_node += count(per_node_slice_posteriors, tm, ObservationSeries(), 0, 0)
        assert shared < 0.85 * per_node, (shared, per_node)

    def test_observed_slice_node_runs_no_elimination(self, monkeypatch):
        # A node observed at slice k gets its indicator from the shared pass,
        # as in posterior_update: no step is made with it kept.
        keeps, steps = [], []
        eliminate, apply, sweep = inference._eliminate, inference._apply, temporal._sweep

        def tracked(factors, order, keep, broadcasts=None):
            keeps.append(tuple(keep))
            try:
                return eliminate(factors, order, keep, broadcasts)
            finally:
                keeps.pop()

        def counted(step, values):
            # uncounted_sweep drops the steps of the sweeps; the shared
            # pass runs outside _eliminate, so its steps keep None.
            steps.append(keeps[-1] if keeps else None)
            return apply(step, values)

        def uncounted_sweep(*args):
            start = len(steps)
            message = sweep(*args)
            del steps[start:]  # count the queried slice's steps only
            return message

        monkeypatch.setattr(inference, "_eliminate", tracked)
        monkeypatch.setattr(inference, "_apply", counted)
        monkeypatch.setattr(temporal, "_sweep", uncounted_sweep)

        def check(tm, obs, k, t) -> int:
            steps.clear()
            smooth_marginals(tm, obs, k, t)
            index = tm.template.model.compiled.index
            kept = {(index[nid],) for s, nid, _ in obs if s == k}
            assert not kept.intersection(steps), (k, t)
            return len(steps)

        smart_home = load_bundled_model("smart_home").temporal_model()
        obs = ObservationSeries([(0, {"wifi_gateway": "down", "motion_sensor": "faulty"})])
        assert check(smart_home, obs, 0, 0) == 6
        rng = random.Random(19)
        for _ in range(30):
            tm = random_temporal_model(rng, max_template_nodes=6)
            graph = tm.template.model.graph
            obs = ObservationSeries(
                [(s, {n.id: rng.choice(n.domain.states) for n in graph.nodes
                      if rng.random() < 0.4}) for s in range(3)])
            for k in range(3):
                check(tm, obs, k, 2)


class TestCompiledModel:
    """Each model compiles once into the tables every numeric query reads."""

    def models(self):
        rng = random.Random(17)
        return ([load_bundled_model("layered_iot").model]
                + [random_model(rng, max_nodes=8) for _ in range(10)])

    def test_every_entry_is_the_cpt_row_entry(self):
        for model in self.models():
            compiled = compile_model(model)
            assert compiled.ids == model.graph.node_ids
            for i, f in enumerate(compiled.factors):
                node_id = compiled.ids[i]
                cpt = model.cpt(node_id)
                assert f.vars == tuple(sorted(f.vars))
                assert tuple(compiled.ids[v] for v in f.vars) == tuple(
                    sorted(cpt.parent_order + (node_id,)))
                for idx in itertools.product(*(range(k) for k in f.values.shape)):
                    states = {compiled.ids[v]: model.domain(compiled.ids[v]).states[k]
                              for v, k in zip(f.vars, idx)}
                    row = cpt.row(tuple(states[p] for p in cpt.parent_order))
                    assert f.values[idx] == row[model.domain(node_id).index(states[node_id])]

    def test_topological_order_in_integer_ids(self):
        for model in self.models():
            compiled = model.compiled
            assert tuple(compiled.ids[i] for i in compiled.topological) \
                == topological_order(model.graph)

    def test_repeated_queries_build_each_table_once(self, monkeypatch):
        built = []
        cpt_factor = inference._cpt_factor

        def counted(cpt, domain, axes):
            built.append(cpt.node)
            return cpt_factor(cpt, domain, axes)

        monkeypatch.setattr(inference, "_cpt_factor", counted)
        model = random_model(random.Random(5), min_nodes=6, max_nodes=8)
        some = model.graph.nodes[0].id
        for _ in range(3):
            eliminate_marginal(model, some, {})
            posterior_update(model, {some: model.domain(some).states[0]})
            enumerate_posteriors(model)
            monte_carlo_sample(model, 100, seed=0)
        assert sorted(built) == sorted(model.graph.node_ids)
        assert model.compiled is model.compiled

    def test_reduced_equals_reducing_every_table(self):
        rng = random.Random(23)
        for _ in range(40):
            model = random_model(rng, max_nodes=10)
            evidence = random_evidence(rng, model, max_observed=4)
            compiled = model.compiled
            checked, observed, factors = inference._reduced(model, evidence)
            assert checked == evidence
            assert observed == {compiled.index[nid]: model.domain(nid).index(state)
                                for nid, state in evidence.items()}
            assert len(factors) == len(compiled.factors)
            for got, f in zip(factors, compiled.factors):
                want = inference._reduce_factor(f, observed)
                assert got.vars == want.vars
                assert got.values.shape == want.values.shape
                assert got.values.tobytes() == want.values.tobytes()

    def test_missing_cpt_is_the_first_check(self, chain2):
        # compile_model is the one check; each query reads model.compiled
        # before checking its query node, evidence or scenario.
        partial = BayesianModel(chain2.graph, {"A": chain2.cpts["A"]})
        for call in (lambda: eliminate_marginal(partial, "ghost", {"A": "maybe"}),
                     lambda: eliminate_marginal(partial, "B", {"ghost": "T"}),
                     lambda: posterior_update(partial, {"A": "maybe"}),
                     lambda: monte_carlo_sample(partial, 10, 0),
                     lambda: impact_probabilities(partial, IncidentScenario({"A": "T"}))):
            with pytest.raises(MissingCpt) as err:
                call()
            assert str(err.value) == "model is not fully specified; missing CPTs for ['B']"

    def test_cached_tables_are_read_only(self):
        model = load_bundled_model("layered_iot").model
        # smart_home's slice tables: its template's, transition and slice-0 ones.
        initial, later = load_bundled_model("smart_home").temporal_model()._slices.tables
        for f in (*model.compiled.factors, *initial, *later):
            with pytest.raises(ValueError):
                f.values[(0,) * f.values.ndim] = 0.5

    def test_new_models_compile_afresh_and_compare_without_the_cache(self):
        model = load_bundled_model("layered_iot").model
        compiled = model.compiled
        for other in (model.with_cpts({}),
                      dataclasses.replace(model, cpts=dict(model.cpts))):
            assert "compiled" not in vars(other)
            assert other.compiled is not compiled
            assert other == model
            # Equal to an uncompiled twin, and as unhashable (a dict field).
            for m in (model, other):
                with pytest.raises(TypeError):
                    hash(m)
        assert "compiled" not in {f.name for f in dataclasses.fields(BayesianModel)}

    def test_posterior_bits_unchanged(self):
        # SHA-256 over the float.hex of posterior_update on 150 seeded random
        # models, taken from the build that rebuilt every table per query.
        digest = hashlib.sha256()
        for seed in range(150):
            rng = random.Random(seed)
            model = random_model(rng)
            evidence = random_evidence(rng, model)
            for nid, m in sorted(posterior_update(model, evidence).items()):
                digest.update(f"{nid}:{','.join(p.hex() for p in m.probabilities)};"
                              .encode())
        assert digest.hexdigest() == \
            "1627f5c7f5a114df1ff53a283277c2b783e1e4ec4942653810a1469b0541af70"

    def test_temporal_bits_unchanged(self):
        # SHA-256 over the float.hex of filter, smooth and predict on 50
        # seeded random temporal models, taken from the build whose
        # elimination multiplied factor pairs over rescanned factor lists.
        digest = hashlib.sha256()
        for seed in range(50):
            rng = random.Random(seed)
            tm = random_temporal_model(rng)
            t = rng.randint(0, 6)
            graph = tm.template.model.graph
            obs = ObservationSeries(
                [(s, {n.id: rng.choice(tuple(n.domain)) for n in graph.nodes
                      if rng.random() < 0.3}) for s in range(t + 1)])
            k = rng.randint(0, t)
            h = rng.randint(1, 3)
            for name, marginals in (("filter", filter_marginals(tm, obs, t)),
                                    ("smooth", smooth_marginals(tm, obs, k, t)),
                                    ("predict", predict_marginals(tm, obs, t, h))):
                for nid, m in sorted(marginals.items()):
                    digest.update(f"{name}:{nid}:"
                                  f"{','.join(p.hex() for p in m.probabilities)};".encode())
        assert digest.hexdigest() == \
            "9589ee2d75d0c542b172002b039ab0971fcab3e0341b76c97c7b52e0e2ae4d30"

    def test_rank_bits_unchanged(self):
        # SHA-256 over the order and float.hex scores of rank_criticality on
        # 50 seeded random models, every node a candidate and a service node;
        # scores that tie to within an ulp make the order part of the bits.
        digest = hashlib.sha256()
        for seed in range(50):
            model = random_model(random.Random(seed))
            ids = model.graph.node_ids
            candidates = [(nid, model.domain(nid).states[-1]) for nid in ids]
            for entry in rank_criticality(model, candidates, service_nodes=ids):
                digest.update(f"{entry.node}={entry.score.hex()};".encode())
        assert digest.hexdigest() == \
            "8a8d200f38d1f7132f6cbedda866ffbab37973c0f55a999208a703596cb4099b"


class TestCptValidation:
    def test_row_sum_off_by_one_percent_rejected(self):
        with pytest.raises(Exception) as err:
            Cpt.prior("A", (0.66, 0.33))
        assert "sums to" in str(err.value)

    def test_parent_order_must_match_graph(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF),
             ComponentNode("C", "network", TF)],
            [InfluenceEdge("B", "C"), InfluenceEdge("A", "C")])
        bad = Cpt("C", ("B", "A"), {
            ("T", "T"): (0.5, 0.5), ("T", "F"): (0.5, 0.5),
            ("F", "T"): (0.5, 0.5), ("F", "F"): (0.5, 0.5)})
        with pytest.raises(ValidationFailed) as err:
            BayesianModel(graph, {"A": Cpt.prior("A", (0.5, 0.5)),
                                  "B": Cpt.prior("B", (0.5, 0.5)), "C": bad})
        assert any("parent order" in msg for _, msg in err.value.issues)

    def test_missing_row_named_in_error(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF)],
            [InfluenceEdge("A", "B")])
        sparse = Cpt("B", ("A",), {("T",): (0.5, 0.5)})
        with pytest.raises(ValidationFailed) as err:
            BayesianModel(graph, {"A": Cpt.prior("A", (0.5, 0.5)), "B": sparse})
        assert any("missing row" in msg and "'F'" in msg for _, msg in err.value.issues)

    def test_cyclic_graph_rejected_at_model_construction(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF)],
            [InfluenceEdge("A", "B"), InfluenceEdge("B", "A")])
        with pytest.raises(ValidationFailed):
            BayesianModel(graph, {})
