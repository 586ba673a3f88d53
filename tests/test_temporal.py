"""Time-sliced models: unrolling structure and the three temporal queries.

The sensor example's expected values (0.4375, 0.528125, 0.275, 469/667) were
derived by hand with Bayes' rule and verified by independent enumeration of
the unrolled joints before freezing.
"""

from __future__ import annotations

import random

import pytest

from iotrisk import temporal
from iotrisk.bundled import load_bundled_model
from iotrisk.errors import (
    ImpossibleEvidence,
    InvalidHorizon,
    ObservationBeyondHorizon,
    UnknownNode,
    UnknownState,
    ValidationFailed,
)
from iotrisk.graph import ComponentNode, DependencyGraph, InfluenceEdge, StateDomain, validate
from iotrisk.inference import eliminate_marginal, enumerate_posteriors
from iotrisk.model import BayesianModel, Cpt
from iotrisk.temporal import (
    ObservationSeries,
    SliceTemplate,
    TemporalEdge,
    TemporalModel,
    filter_marginals,
    predict_marginals,
    slice_id,
    smooth_marginals,
    unroll,
    unrolled_marginals,
)

from conftest import per_node_slice_posteriors, random_temporal_model


def single_node_dbn(prior=(0.9, 0.1), transition=None) -> TemporalModel:
    graph = DependencyGraph(
        [ComponentNode("X", "perception", StateDomain(["ok", "fail"]))], [])
    template = BayesianModel(graph, {"X": Cpt.prior("X", prior)})
    transition = transition or Cpt("X", ("X",),
                                   {("ok",): (0.8, 0.2), ("fail",): (0.05, 0.95)})
    return TemporalModel(SliceTemplate(template), [TemporalEdge("X", "X", transition)])


class TestUnroll:
    def test_single_slice_is_the_template(self, sensor_dbn):
        flat = unroll(sensor_dbn, 1)
        assert flat.graph.node_ids == ("O@0", "X@0")
        assert [(e.source, e.target) for e in flat.graph.edges] == [("X@0", "O@0")]
        assert flat.cpts["X@0"].rows[()] == (0.9, 0.1)

    def test_single_node_chain_structure(self):
        flat = unroll(single_node_dbn(), 3)
        assert flat.graph.node_ids == ("X@0", "X@1", "X@2")
        assert [(e.source, e.target) for e in flat.graph.edges] == [
            ("X@0", "X@1"), ("X@1", "X@2")]

    def test_two_node_template_two_slices_valid(self, sensor_dbn):
        flat = unroll(sensor_dbn, 2)
        assert len(flat.graph.nodes) == 4
        assert validate(flat.graph).ok

    def test_initial_cpt_used_at_slice_zero_only(self):
        tm = single_node_dbn()
        with_initial = TemporalModel(tm.template, tm.temporal_edges,
                                     {"X": Cpt.prior("X", (0.5, 0.5))})
        flat = unroll(with_initial, 2)
        assert flat.cpts["X@0"].rows[()] == (0.5, 0.5)
        assert flat.cpts["X@1"].rows[("ok",)] == (0.8, 0.2)

    def test_slices_beyond_first_share_parameters(self, sensor_dbn):
        flat = unroll(sensor_dbn, 4)
        for t in range(2, 4):
            for nid in ("X", "O"):
                a = flat.cpts[slice_id(nid, 1)]
                b = flat.cpts[slice_id(nid, t)]
                assert {k[-1:]: v for k, v in a.rows.items()} == \
                       {k[-1:]: v for k, v in b.rows.items()}

    def test_horizon_bounds(self, sensor_dbn):
        with pytest.raises(InvalidHorizon):
            unroll(sensor_dbn, 0)
        with pytest.raises(InvalidHorizon):
            unroll(sensor_dbn, sensor_dbn.max_horizon + 1)

    @pytest.mark.parametrize("max_horizon", [0, -3])
    def test_max_horizon_below_one_rejected(self, sensor_dbn, max_horizon):
        # The document loader's message, for callers that build the model.
        with pytest.raises(ValidationFailed) as err:
            TemporalModel(sensor_dbn.template, sensor_dbn.temporal_edges,
                          max_horizon=max_horizon)
        assert err.value.issues == [
            ("$.temporal.max_horizon", f"expected an integer >= 1, got {max_horizon}")]

    def test_conflicting_transition_tables_rejected(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", StateDomain(["T", "F"])),
             ComponentNode("B", "network", StateDomain(["T", "F"]))], [])
        template = BayesianModel(graph, {"A": Cpt.prior("A", (0.5, 0.5)),
                                         "B": Cpt.prior("B", (0.5, 0.5))})
        cpt1 = Cpt("B", ("A", "B"), {
            ("T", "T"): (0.9, 0.1), ("T", "F"): (0.2, 0.8),
            ("F", "T"): (0.7, 0.3), ("F", "F"): (0.1, 0.9)})
        cpt2 = Cpt("B", ("A", "B"), {
            ("T", "T"): (0.8, 0.2), ("T", "F"): (0.2, 0.8),
            ("F", "T"): (0.7, 0.3), ("F", "F"): (0.1, 0.9)})
        with pytest.raises(ValidationFailed):
            TemporalModel(SliceTemplate(template),
                          [TemporalEdge("A", "B", cpt1), TemporalEdge("B", "B", cpt2)])

    def test_template_id_with_separator_rejected(self):
        graph = DependencyGraph(
            [ComponentNode("X@1", "network", StateDomain(["T", "F"]))], [])
        template = BayesianModel(graph, {"X@1": Cpt.prior("X@1", (0.5, 0.5))})
        with pytest.raises(ValidationFailed):
            SliceTemplate(template)


# Tables for the sensor template (X -> O), which every case below starts from.
STICKY = Cpt("X", ("X",), {("ok",): (0.8, 0.2), ("fail",): (0.05, 0.95)})
ALARM = Cpt("O", ("X",), {("ok",): (0.9, 0.1), ("fail",): (0.3, 0.7)})
EVEN = {("ok",): (0.5, 0.5), ("fail",): (0.5, 0.5)}
TRANSITION = "$.temporal.transition_cpts"
INITIAL = "$.temporal.initial_cpts"

# (temporal edges, initial tables, max_horizon, the exact issues raised).
MODEL_CHECKS = {
    "unknown endpoints": (
        [("X", "X", STICKY), ("ghost", "phantom", STICKY)], {}, 64,
        [("$.temporal.edges[ghost->phantom]", "unknown template node 'ghost'"),
         ("$.temporal.edges[ghost->phantom]", "unknown template node 'phantom'")]),
    "conflicting tables": (
        [("X", "X", STICKY), ("O", "X", Cpt("X", ("O", "X"), {
            (o, x): (0.5, 0.5) for o in ("quiet", "alarm") for x in ("ok", "fail")}))], {}, 64,
        [("$.temporal.edges[X->X]",
          "temporal edges into one target carry different transition tables")]),
    "intra-slice and temporal parent": (
        [("X", "O", ALARM)], {}, 64,
        [(f"{TRANSITION}.O", "['X'] are both intra-slice and temporal parents of 'O'; "
                             "this is not supported")]),
    "transition table for another node": (
        [("X", "X", Cpt("O", ("X",), EVEN))], {}, 64,
        [(f"{TRANSITION}.X", "CPT is for node 'O', keyed as 'X'")]),
    "transition table with wrong parents": (
        [("X", "X", Cpt.prior("X", (0.5, 0.5)))], {}, 64,
        [(f"{TRANSITION}.X", "parent order () != intra-slice and temporal parents "
                             "('X',) (sorted ascending)")]),
    "transition table missing a row": (
        [("X", "X", Cpt("X", ("X",), {("ok",): (0.8, 0.2)}))], {}, 64,
        [(f"{TRANSITION}.X", "missing row for parent states ('fail',)")]),
    "initial table for a non-target": (
        [("X", "X", STICKY)], {"O": ALARM}, 64,
        [(f"{INITIAL}.O", "'O' has no incoming temporal edge; "
                          "initial priors apply only to temporal targets")]),
    "slice-0 table for another node": (
        [("X", "X", STICKY)], {"X": Cpt.prior("O", (0.5, 0.5))}, 64,
        [(f"{INITIAL}.X", "CPT is for node 'O', keyed as 'X'")]),
    "slice-0 table with wrong parents": (
        [("X", "X", STICKY)], {"X": Cpt("X", ("O",), {("quiet",): (0.5, 0.5),
                                                      ("alarm",): (0.5, 0.5)})}, 64,
        [(f"{INITIAL}.X", "parent order ('O',) != intra-slice parents () "
                          "(sorted ascending)")]),
    "every table issue at once": (
        [("X", "X", Cpt.prior("X", (0.5, 0.5)))], {"O": ALARM}, 64,
        [(f"{TRANSITION}.X", "parent order () != intra-slice and temporal parents "
                             "('X',) (sorted ascending)"),
         (f"{INITIAL}.O", "'O' has no incoming temporal edge; "
                          "initial priors apply only to temporal targets")]),
    "bad max_horizon suppresses the table checks": (
        [("X", "X", Cpt.prior("X", (0.5, 0.5)))], {"O": ALARM}, 0,
        [("$.temporal.max_horizon", "expected an integer >= 1, got 0")]),
    "bad max_horizon beside an unknown endpoint": (
        [("ghost", "X", STICKY)], {}, "8",
        [("$.temporal.max_horizon", "expected an integer, got '8'"),
         ("$.temporal.edges[ghost->X]", "unknown template node 'ghost'")]),
}


class TestModelChecks:
    """Every issue :class:`TemporalModel` construction raises, in order."""

    @pytest.mark.parametrize("case", MODEL_CHECKS)
    def test_issue_list(self, sensor_dbn, case):
        edges, initial, max_horizon, expected = MODEL_CHECKS[case]
        with pytest.raises(ValidationFailed) as err:
            TemporalModel(sensor_dbn.template, [TemporalEdge(*e) for e in edges],
                          initial, max_horizon)
        assert err.value.issues == expected

    def test_duplicate_edges_are_dropped(self, sensor_dbn):
        smart_home = load_bundled_model("smart_home").temporal_model()
        for tm in (smart_home, sensor_dbn):
            edges = list(tm.temporal_edges)
            doubled = TemporalModel(tm.template, edges + edges[:1], tm.initial_cpts,
                                    tm.max_horizon)
            assert doubled == tm
            assert doubled.temporal_edges == tm.temporal_edges
        assert len(smart_home.temporal_edges) == 2
        assert len(sensor_dbn.temporal_edges) == 1

    def test_grouping_matches_an_edge_scan(self):
        rng = random.Random(31)
        models = [load_bundled_model("smart_home").temporal_model(), cross_source_dbn()]
        models += [random_temporal_model(rng) for _ in range(20)]
        for tm in models:
            targets = sorted({e.target for e in tm.temporal_edges})
            assert tm.transition_cpts == {e.target: e.cpt for e in tm.temporal_edges}
            assert list(tm.transition_cpts) == targets
            for node_id in tm.template.model.graph.node_ids:
                assert tm.temporal_sources(node_id) == tuple(sorted(
                    {e.source for e in tm.temporal_edges if e.target == node_id}))


class TestObservationSeries:
    def test_times_must_not_decrease(self):
        with pytest.raises(InvalidHorizon):
            ObservationSeries([(2, {"X": "ok"}), (1, {"X": "ok"})])

    def test_duplicate_node_time_rejected(self):
        with pytest.raises(InvalidHorizon):
            ObservationSeries([(0, {"X": "ok"}), (0, {"X": "fail"})])

    def test_unrolled_evidence_suffixes(self):
        series = ObservationSeries([(0, {"X": "ok"}), (2, {"O": "alarm"})])
        assert series.unrolled_evidence() == {"X@0": "ok", "O@2": "alarm"}


class TestFilter:
    def test_alarm_at_zero(self, sensor_dbn):
        obs = ObservationSeries([(0, {"O": "alarm"})])
        assert filter_marginals(sensor_dbn, obs, 0)["X"].p("fail") == \
            pytest.approx(0.4375, abs=1e-9)

    def test_no_observations_gives_slice_zero_priors(self, sensor_dbn):
        out = filter_marginals(sensor_dbn, ObservationSeries(), 0)
        assert out["X"].p("fail") == pytest.approx(0.1, abs=1e-12)

    def test_propagates_one_step(self, sensor_dbn):
        obs = ObservationSeries([(0, {"O": "alarm"})])
        assert filter_marginals(sensor_dbn, obs, 1)["X"].p("fail") == \
            pytest.approx(0.528125, abs=1e-9)

    def test_future_observation_rejected(self, sensor_dbn):
        obs = ObservationSeries([(3, {"O": "alarm"})])
        with pytest.raises(ObservationBeyondHorizon):
            filter_marginals(sensor_dbn, obs, 1)

    def test_unknown_node_and_state_rejected(self, sensor_dbn):
        with pytest.raises(UnknownNode):
            filter_marginals(sensor_dbn, ObservationSeries([(0, {"Z": "ok"})]), 0)
        with pytest.raises(UnknownState):
            filter_marginals(sensor_dbn, ObservationSeries([(0, {"O": "loud"})]), 0)

    def test_oracle_names_template_nodes_before_unrolling(self, sensor_dbn, monkeypatch):
        unrolled = []
        monkeypatch.setattr(temporal, "unroll", lambda *a: unrolled.append(a))
        with pytest.raises(UnknownNode) as err:
            unrolled_marginals(sensor_dbn, ObservationSeries([(1, {"ghost": "x"})]), 0, 3)
        assert str(err.value) == "unknown node 'ghost'"
        with pytest.raises(UnknownState) as err:
            unrolled_marginals(sensor_dbn, ObservationSeries([(1, {"O": "maybe"})]), 0, 3)
        assert str(err.value) == "node 'O' has no state 'maybe'; domain is ('quiet', 'alarm')"
        assert unrolled == []


class TestSmooth:
    def test_frontier_equals_filter(self, sensor_dbn):
        obs = ObservationSeries([(0, {"O": "alarm"})])
        smoothed = smooth_marginals(sensor_dbn, obs, 1, 1)
        filtered = filter_marginals(sensor_dbn, obs, 1)
        for nid in ("X", "O"):
            assert smoothed[nid].probabilities == pytest.approx(
                filtered[nid].probabilities, abs=1e-12)

    def test_no_observations_matches_transition_power(self):
        tm = single_node_dbn()
        out = smooth_marginals(tm, ObservationSeries(), 2, 3)
        # two applications of the transition to the prior, by enumeration
        p1 = 0.9 * 0.2 + 0.1 * 0.95
        p2 = (1 - p1) * 0.2 + p1 * 0.95
        assert out["X"].p("fail") == pytest.approx(p2, abs=1e-9)

    def test_later_alarm_revises_the_past(self, sensor_dbn):
        obs = ObservationSeries([(0, {"O": "alarm"}), (1, {"O": "alarm"})])
        smoothed = smooth_marginals(sensor_dbn, obs, 0, 1)
        assert smoothed["X"].p("fail") == pytest.approx(469 / 667, abs=1e-9)

    def test_k_beyond_t_rejected(self, sensor_dbn):
        with pytest.raises(InvalidHorizon):
            smooth_marginals(sensor_dbn, ObservationSeries(), 2, 1)


class TestPredict:
    def test_one_step_from_prior(self):
        tm = single_node_dbn()
        out = predict_marginals(tm, ObservationSeries(), 0, 1)
        assert out["X"].p("fail") == pytest.approx(0.275, abs=1e-9)

    def test_identity_transition_keeps_prior(self):
        identity = Cpt("X", ("X",), {("ok",): (1.0, 0.0), ("fail",): (0.0, 1.0)})
        tm = single_node_dbn(transition=identity)
        for h in (1, 3, 5):
            out = predict_marginals(tm, ObservationSeries(), 0, h)
            assert out["X"].p("fail") == pytest.approx(0.1, abs=1e-12)

    def test_matches_filter_at_same_slice(self, sensor_dbn):
        obs = ObservationSeries([(0, {"O": "alarm"})])
        predicted = predict_marginals(sensor_dbn, obs, 0, 1)
        assert predicted["X"].p("fail") == pytest.approx(0.528125, abs=1e-9)

    def test_horizon_must_be_positive(self, sensor_dbn):
        with pytest.raises(InvalidHorizon):
            predict_marginals(sensor_dbn, ObservationSeries(), 0, 0)


class TestUnrolledEquivalence:
    """The module's central property: queries == inference on the unrolled model."""

    def test_random_models_match_direct_unrolled_queries(self):
        rng = random.Random(4242)
        horizons = random.Random(4243)
        for _ in range(25):
            tm = random_temporal_model(rng)
            horizon = rng.randint(1, 4)
            t = horizon - 1
            obs = _random_observations(rng, tm, t)
            unrolled = unroll(tm, horizon)
            evidence = obs.unrolled_evidence()

            filtered = filter_marginals(tm, obs, t)
            for nid, marginal in filtered.items():
                direct = eliminate_marginal(unrolled, slice_id(nid, t), evidence)
                assert marginal.probabilities == pytest.approx(
                    direct.probabilities, abs=1e-9)

            k = rng.randint(0, t)
            smoothed = smooth_marginals(tm, obs, k, t)
            for nid, marginal in smoothed.items():
                direct = eliminate_marginal(unrolled, slice_id(nid, k), evidence)
                assert marginal.probabilities == pytest.approx(
                    direct.probabilities, abs=1e-9)

            # Drawn apart so the models and evidence above stay as they were.
            h = horizons.randint(1, 3)
            predicted = predict_marginals(tm, obs, t, h)
            ahead = unroll(tm, t + h + 1)
            for nid, marginal in predicted.items():
                direct = eliminate_marginal(ahead, slice_id(nid, t + h), evidence)
                assert marginal.probabilities == pytest.approx(
                    direct.probabilities, abs=1e-9)

    def test_small_models_match_enumeration_of_unrolled_joint(self):
        rng = random.Random(777)
        for _ in range(10):
            tm = random_temporal_model(rng, max_template_nodes=2, max_states=2)
            t = rng.randint(0, 2)
            obs = _random_observations(rng, tm, t)
            unrolled = unroll(tm, t + 1)
            expected = enumerate_posteriors(unrolled, obs.unrolled_evidence())
            for nid, marginal in filter_marginals(tm, obs, t).items():
                assert marginal.probabilities == pytest.approx(
                    expected[slice_id(nid, t)].probabilities, abs=1e-9)

    def test_barren_future_slices_do_not_change_the_past(self, sensor_dbn):
        # querying slice 1 on a 5-slice unroll equals the filter at t=1
        obs = ObservationSeries([(0, {"O": "alarm"})])
        big = unroll(sensor_dbn, 5)
        direct = eliminate_marginal(big, "X@1", obs.unrolled_evidence())
        filtered = filter_marginals(sensor_dbn, obs, 1)["X"]
        assert direct.probabilities == pytest.approx(filtered.probabilities, abs=1e-12)


def cross_source_dbn() -> TemporalModel:
    """A feeds B across slices (A@t-1 -> B@t) and both feed C within a slice."""
    states = StateDomain(["up", "down"])
    graph = DependencyGraph(
        [ComponentNode(nid, "network", states) for nid in ("A", "B", "C")],
        [InfluenceEdge("A", "C"), InfluenceEdge("B", "C")])
    template = BayesianModel(graph, {
        "A": Cpt.prior("A", (0.7, 0.3)),
        "B": Cpt.prior("B", (0.6, 0.4)),
        "C": Cpt("C", ("A", "B"), {("up", "up"): (0.95, 0.05), ("up", "down"): (0.4, 0.6),
                                   ("down", "up"): (0.3, 0.7),
                                   ("down", "down"): (0.1, 0.9)}),
    })
    transition = Cpt("B", ("A", "B"), {("up", "up"): (0.9, 0.1), ("up", "down"): (0.5, 0.5),
                                       ("down", "up"): (0.2, 0.8),
                                       ("down", "down"): (0.05, 0.95)})
    return TemporalModel(SliceTemplate(template),
                         [TemporalEdge("A", "B", transition),
                          TemporalEdge("B", "B", transition)])


def _assert_matches_unrolled(tm, obs, marginals, k, horizon):
    """``marginals`` (slice k) against VE on the unrolled oracle model."""
    expected = unrolled_marginals(tm, obs, k, horizon)
    assert set(marginals) == set(expected)
    for nid, marginal in marginals.items():
        assert marginal.probabilities == pytest.approx(
            expected[nid].probabilities, abs=1e-9), nid


class TestInterfacePasses:
    """Forward/backward messages over the interface, checked against unroll."""

    @pytest.mark.parametrize("observed", [{"A": "down"}, {"B": "down"},
                                          {"A": "down", "B": "up"}, {"C": "down"}])
    def test_source_observed_at_previous_slice(self, observed):
        # A source observed at t-1 is gone from the forward message, so the
        # next slice's transition table must be reduced on its previous axis.
        tm = cross_source_dbn()
        obs = ObservationSeries([(1, observed)])
        _assert_matches_unrolled(tm, obs, filter_marginals(tm, obs, 2), 2, 3)
        _assert_matches_unrolled(tm, obs, smooth_marginals(tm, obs, 0, 2), 0, 3)
        _assert_matches_unrolled(tm, obs, smooth_marginals(tm, obs, 2, 2), 2, 3)
        _assert_matches_unrolled(tm, obs, predict_marginals(tm, obs, 1, 1), 2, 3)

    def test_smart_home_source_observed_at_previous_slice(self):
        tm = load_bundled_model("smart_home").temporal_model()
        obs = ObservationSeries([(0, {"monitoring_app": "stale"}),
                                 (2, {"wifi_gateway": "down", "motion_sensor": "faulty"}),
                                 (3, {"alarm_service": "degraded"})])
        _assert_matches_unrolled(tm, obs, filter_marginals(tm, obs, 3), 3, 4)
        for k in range(4):
            _assert_matches_unrolled(tm, obs, smooth_marginals(tm, obs, k, 3), k, 4)
        _assert_matches_unrolled(tm, obs, predict_marginals(tm, obs, 3, 2), 5, 6)

    def test_smart_home_at_max_horizon(self):
        tm = load_bundled_model("smart_home").temporal_model()
        t = tm.max_horizon - 1
        obs = ObservationSeries([(s, {"monitoring_app": "stale" if s % 3 else "live"})
                                 for s in range(0, t + 1, 2)])
        filtered = filter_marginals(tm, obs, t)
        results = [filtered, smooth_marginals(tm, obs, t, t),
                   smooth_marginals(tm, obs, t // 2, t),
                   predict_marginals(tm, obs, t - 1, 1)]
        for marginals in results:
            assert set(marginals) == set(tm.template.model.graph.node_ids)
            for marginal in marginals.values():
                assert sum(marginal.probabilities) == pytest.approx(1.0, abs=1e-12)
        for nid, marginal in results[1].items():
            assert filtered[nid].probabilities == pytest.approx(
                marginal.probabilities, abs=1e-12)

    def test_slice_tables_built_once_per_model(self, monkeypatch):
        # Transition and slice-0 tables are built by the first query and
        # kept; later queries on the same model build none.
        built = []
        cpt_factor = temporal._cpt_factor

        def counted(cpt, domain, axes):
            built.append(cpt.node)
            return cpt_factor(cpt, domain, axes)

        monkeypatch.setattr(temporal, "_cpt_factor", counted)
        tm = load_bundled_model("smart_home").temporal_model()
        obs = ObservationSeries([(1, {"wifi_gateway": "down"})])
        filter_marginals(tm, obs, 4)
        smooth_marginals(tm, obs, 0, 4)
        predict_marginals(tm, obs, 4, 3)
        assert sorted(built) == sorted(list(tm.transition_cpts) + list(tm.initial_cpts))

    def test_observed_nodes_share_one_indicator(self):
        tm = load_bundled_model("smart_home").temporal_model()
        obs = ObservationSeries([(2, {"wifi_gateway": "down"})])
        filtered = filter_marginals(tm, obs, 2)["wifi_gateway"]
        assert smooth_marginals(tm, obs, 2, 2)["wifi_gateway"] is filtered
        assert eliminate_marginal(tm.template.model, "wifi_gateway",
                                  {"wifi_gateway": "down"}) is filtered
        assert filtered.probabilities == tuple(
            1.0 if s == "down" else 0.0 for s in filtered.states)

    def test_max_horizon_bounds_every_query(self, sensor_dbn):
        t = sensor_dbn.max_horizon
        with pytest.raises(InvalidHorizon):
            filter_marginals(sensor_dbn, ObservationSeries(), t)
        with pytest.raises(InvalidHorizon):
            smooth_marginals(sensor_dbn, ObservationSeries(), 0, t)
        with pytest.raises(InvalidHorizon):
            predict_marginals(sensor_dbn, ObservationSeries(), t - 1, 1)

    def test_shared_slice_pass_matches_one_elimination_per_node(self):
        rng = random.Random(1818)
        smart_home = load_bundled_model("smart_home").temporal_model()
        cases = [(smart_home, ObservationSeries([(0, {"monitoring_app": "stale"}),
                                                 (2, {"wifi_gateway": "down"}),
                                                 (3, {"alarm_service": "degraded"})]), 3)]
        for _ in range(30):
            tm = random_temporal_model(rng)
            t = rng.randint(0, 3)
            cases.append((tm, _random_observations(rng, tm, t), t))
        for tm, observed, t in cases:
            for obs in (ObservationSeries(), observed):
                k = rng.randint(0, t)
                h = rng.randint(1, 2)
                assert filter_marginals(tm, obs, t) == per_node_slice_posteriors(tm, obs, t, t)
                assert smooth_marginals(tm, obs, k, t) == \
                    per_node_slice_posteriors(tm, obs, k, t)
                assert predict_marginals(tm, obs, t, h) == \
                    per_node_slice_posteriors(tm, obs, t + h, t + h)

    def test_impossible_evidence_raises_in_each_pass(self):
        identity = Cpt("X", ("X",), {("ok",): (1.0, 0.0), ("fail",): (0.0, 1.0)})
        tm = single_node_dbn(transition=identity)
        obs = ObservationSeries([(0, {"X": "ok"}), (2, {"X": "fail"})])
        with pytest.raises(ImpossibleEvidence):
            filter_marginals(tm, obs, 2)       # final slice
        with pytest.raises(ImpossibleEvidence):
            filter_marginals(tm, obs, 3)       # forward message
        with pytest.raises(ImpossibleEvidence):
            smooth_marginals(tm, obs, 0, 2)    # backward message

    def test_unrolled_evidence_is_built_only_to_raise(self, monkeypatch):
        # The unrolled evidence only names the observations in an error, so
        # a query that raises nothing never builds it.
        calls = []
        unrolled = ObservationSeries.unrolled_evidence

        def spy(series):
            calls.append(series)
            return unrolled(series)

        monkeypatch.setattr(ObservationSeries, "unrolled_evidence", spy)
        smart_home = load_bundled_model("smart_home").temporal_model()
        obs = ObservationSeries([(0, {"wifi_gateway": "down"}), (2, {"motion_sensor": "faulty"})])
        filter_marginals(smart_home, obs, 2)
        smooth_marginals(smart_home, obs, 1, 2)
        predict_marginals(smart_home, obs, 2, 2)
        assert calls == []
        identity = Cpt("X", ("X",), {("ok",): (1.0, 0.0), ("fail",): (0.0, 1.0)})
        impossible = ObservationSeries([(0, {"X": "ok"}), (2, {"X": "fail"})])
        with pytest.raises(ImpossibleEvidence) as err:
            filter_marginals(single_node_dbn(transition=identity), impossible, 2)
        assert str(err.value) == "evidence {'X@0': 'ok', 'X@2': 'fail'} has probability 0"
        assert calls == [impossible]


def _random_observations(rng: random.Random, tm: TemporalModel, t: int) -> ObservationSeries:
    graph = tm.template.model.graph
    entries = []
    for slot in range(t + 1):
        evidence = {}
        for node in graph.nodes:
            if rng.random() < 0.3:
                evidence[node.id] = rng.choice(tuple(node.domain))
        if evidence:
            entries.append((slot, evidence))
    return ObservationSeries(entries)
