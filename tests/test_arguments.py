"""One integer rule for every count and time index the library takes.

Each row is one integer argument of one entry point.  A float, a bool, a
numeric string, ``None`` and a value below the argument's minimum must each
raise the entry point's typed error before any table is compiled or any
variable eliminated; a numpy integer must give the answer a plain ``int``
gives, bit for bit.  Three smaller tables pin the typed errors of malformed
evidence entries, of malformed query arguments and of the table builders'
arguments.
"""

from __future__ import annotations

import numpy as np
import pytest

from iotrisk import temporal
from iotrisk.bundled import load_bundled_model
from iotrisk.cascade import (
    IncidentScenario,
    classify_levels,
    impact_probabilities,
    impact_set,
    rank_criticality,
)
from iotrisk.cvss import prior_cpt_from_score
from iotrisk.documents import EvidenceRecord, ingest_evidence
from iotrisk.errors import (
    InvalidArgument,
    InvalidHorizon,
    ObservationBeyondHorizon,
    UnknownNode,
    UnknownState,
    ValidationFailed,
)
from iotrisk.graph import StateDomain
from iotrisk.inference import eliminate_marginal, posterior_update
from iotrisk.sampling import monte_carlo_sample
from iotrisk.temporal import (
    ObservationSeries,
    TemporalModel,
    filter_marginals,
    predict_marginals,
    smooth_marginals,
    unroll,
    unrolled_marginals,
)
from iotrisk.uncontrollable import and_cpt, logic_gate_cpt, or_cpt, resolve_uncontrollable

from conftest import make_chain2, make_sensor_dbn

NON_INTEGERS = (1.9, True, "2", None)
OF = StateDomain(["ok", "fail"])


def _series() -> ObservationSeries:
    return ObservationSeries([(0, {"O": "alarm"}), (2, {"O": "quiet"})])


def _records(first=1000) -> list:
    return [EvidenceRecord(first, "O", "alarm"), EvidenceRecord(2500, "O", "quiet")]


def _with_max_horizon(value) -> dict:
    tm = make_sensor_dbn()
    tm = TemporalModel(tm.template, tm.temporal_edges, max_horizon=value)
    return filter_marginals(tm, _series(), 2)


def _texts(what: str, minimum: int) -> tuple[str, str]:
    return (f"{what} must be an integer, got {{!r}}", f"{what} must be >= {minimum}, got {{}}")


# call(value) -> answer, a valid value, the non-integers refused, a value
# below the minimum, the error, and the two texts formatted with the value.
ROWS = [
    pytest.param(_with_max_horizon, 8, NON_INTEGERS, 0, ValidationFailed,
                 ("$.temporal.max_horizon: expected an integer, got {!r}",
                  "$.temporal.max_horizon: expected an integer >= 1, got {}"),
                 id="TemporalModel-max_horizon"),
    pytest.param(lambda v: ObservationSeries([(v, {"O": "alarm"})]).entries, 1,
                 NON_INTEGERS, -1, InvalidHorizon, _texts("observation time", 0),
                 id="ObservationSeries-time"),
    pytest.param(lambda v: unroll(make_sensor_dbn(), v), 3, NON_INTEGERS, 0, InvalidHorizon,
                 _texts("horizon", 1), id="unroll-horizon"),
    pytest.param(lambda v: unrolled_marginals(make_sensor_dbn(), _series(), v, 3), 1,
                 NON_INTEGERS, -1, InvalidHorizon, _texts("queried slice", 0),
                 id="unrolled_marginals-k"),
    # The series observes slice 2, so horizon 2 leaves that observation outside
    # the unrolled slices: ObservationBeyondHorizon, not InvalidHorizon.
    pytest.param(lambda v: unrolled_marginals(make_sensor_dbn(), _series(), 1, v), 3,
                 NON_INTEGERS, 2, (InvalidHorizon, ObservationBeyondHorizon),
                 ("horizon must be an integer, got {!r}",
                  "observation at time 2 is beyond horizon {} (slices 0..1)"),
                 id="unrolled_marginals-horizon"),
    pytest.param(lambda v: filter_marginals(make_sensor_dbn(), _series(), v), 2,
                 NON_INTEGERS, -1, InvalidHorizon, _texts("time index", 0),
                 id="filter_marginals-t"),
    pytest.param(lambda v: smooth_marginals(make_sensor_dbn(), _series(), v, 2), 1,
                 NON_INTEGERS, -1, InvalidHorizon, _texts("smoothed slice", 0),
                 id="smooth_marginals-k"),
    pytest.param(lambda v: smooth_marginals(make_sensor_dbn(), _series(), 1, v), 2,
                 NON_INTEGERS, 0, InvalidHorizon, _texts("time index", 1),
                 id="smooth_marginals-t"),
    pytest.param(lambda v: predict_marginals(make_sensor_dbn(), _series(), v, 1), 2,
                 NON_INTEGERS, -1, InvalidHorizon, _texts("time index", 0),
                 id="predict_marginals-t"),
    pytest.param(lambda v: predict_marginals(make_sensor_dbn(), _series(), 2, v), 3,
                 NON_INTEGERS, 0, InvalidHorizon, _texts("prediction horizon", 1),
                 id="predict_marginals-h"),
    pytest.param(lambda v: monte_carlo_sample(make_chain2(), v, 0), 500,
                 NON_INTEGERS, 0, InvalidArgument, _texts("sample count", 1),
                 id="monte_carlo_sample-n"),
    pytest.param(lambda v: monte_carlo_sample(make_chain2(), 500, v), 3,
                 NON_INTEGERS, -1, InvalidArgument, _texts("seed", 0),
                 id="monte_carlo_sample-seed"),
    pytest.param(lambda v: ingest_evidence(_records(), v).entries, 1000,
                 NON_INTEGERS, 0, InvalidArgument, _texts("bucket_ms", 1),
                 id="ingest_evidence-bucket_ms"),
    # None is t0's default, and t0 itself has no minimum: a t0 after a
    # record's timestamp is what puts that record out of range.
    pytest.param(lambda v: ingest_evidence(_records(), 500, t0=v).entries, 400,
                 NON_INTEGERS[:3], 2000, InvalidArgument,
                 ("t0 must be an integer, got {!r}",
                  "record timestamp_ms must be >= {}, got 1000"),
                 id="ingest_evidence-t0"),
    pytest.param(lambda v: ingest_evidence(_records(v), 1000, t0=0).entries, 700,
                 NON_INTEGERS, -1, InvalidArgument, _texts("record timestamp_ms", 0),
                 id="ingest_evidence-timestamp_ms"),
]


@pytest.mark.parametrize("call,valid,non_integers,low,error,texts", ROWS)
def test_refused_before_any_work(work, call, valid, non_integers, low, error, texts):
    not_integer, too_low = texts
    for value, text in [(v, not_integer) for v in non_integers] + [(low, too_low)]:
        with pytest.raises(error) as err:
            call(value)
        assert text.format(value) in str(err.value), value
    assert work == []


def test_unrolled_slice_beyond_horizon_refused_before_any_work(work, monkeypatch):
    monkeypatch.setattr(temporal, "unroll", lambda *args: work.append("unroll"))
    for k in (3, 5):
        with pytest.raises(InvalidHorizon, match=rf"^queried slice {k} is beyond horizon 3 "
                                                 r"\(slices 0\.\.2\)$"):
            unrolled_marginals(make_sensor_dbn(), _series(), k, 3)
    assert work == []


# Containers of evidence whose entries have the wrong shape: each raises
# InvalidArgument naming the entry, before any table is compiled.
@pytest.mark.parametrize("call,text", [
    (lambda: ObservationSeries([(0, "x")]),
     "observation entry must be a (time, {node: state}) pair, got (0, 'x')"),
    (lambda: ObservationSeries([(0, {"O": "alarm"}), 1]),
     "observation entry must be a (time, {node: state}) pair, got 1"),
    (lambda: ingest_evidence([("a", 1)], 1000),
     "record must be an EvidenceRecord, got ('a', 1)"),
], ids=["ObservationSeries-evidence", "ObservationSeries-entry", "ingest_evidence-record"])
def test_malformed_entry_refused_before_any_work(work, call, text):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert str(err.value) == text
    assert work == []


# Query arguments of the wrong shape: evidence or origins that map no node
# ids to states are an InvalidArgument, an unhashable node id an
# UnknownNode, each raised before any variable is eliminated.  The model is
# compiled first: a query's first check is that it compiles.
@pytest.mark.parametrize("call,error,text", [
    (lambda m: posterior_update(m, "a1"), InvalidArgument,
     "evidence must map node ids to states, got 'a1'"),
    (lambda m: posterior_update(m, [("a1",)]), InvalidArgument,
     "evidence must map node ids to states, got [('a1',)]"),
    (lambda m: IncidentScenario("a1"), InvalidArgument,
     "scenario origins must map node ids to states, got 'a1'"),
    (lambda m: eliminate_marginal(m, ["a1"]), UnknownNode, "unknown node ['a1']"),
    (lambda m: rank_criticality(m, [(["a1"], "impaired")]), UnknownNode,
     "unknown node ['a1']"),
    (lambda m: rank_criticality(m, [("a14", "impaired")], service_nodes=[["a1"]]),
     UnknownNode, "unknown node ['a1']"),
    (lambda m: rank_criticality(m, None), InvalidArgument,
     "candidates must be a collection of (node, state) pairs, got None"),
    (lambda m: rank_criticality(m, [("a14", "impaired")], service_nodes=5), InvalidArgument,
     "service_nodes must be a collection of node ids, got 5"),
    (lambda m: rank_criticality(m, [("a14", "impaired")], degraded_states=[("a1",)]),
     InvalidArgument,
     "degraded_states must map node ids to states, got [('a1',)]"),
    (lambda m: impact_probabilities(m, {"a14": "impaired"}), InvalidArgument,
     "scenario must be an IncidentScenario, got {'a14': 'impaired'}"),
    (lambda m: classify_levels(m.graph, {"a14": "impaired"}), InvalidArgument,
     "scenario must be an IncidentScenario, got {'a14': 'impaired'}"),
    (lambda m: impact_set(m.graph, {"a14": "impaired"}), InvalidArgument,
     "scenario must be an IncidentScenario, got {'a14': 'impaired'}"),
    (lambda m: filter_marginals(make_sensor_dbn(), "x", 0), InvalidArgument,
     "observations must be an ObservationSeries, got 'x'"),
    (lambda m: smooth_marginals(make_sensor_dbn(), {0: {}}, 0, 0), InvalidArgument,
     "observations must be an ObservationSeries, got {0: {}}"),
    (lambda m: unrolled_marginals(make_sensor_dbn(), None, 0, 1), InvalidArgument,
     "observations must be an ObservationSeries, got None"),
    (lambda m: resolve_uncontrollable(m, ["a1"]), UnknownNode, "unknown node ['a1']"),
], ids=["posterior_update-string", "posterior_update-pair", "IncidentScenario-string",
        "eliminate_marginal-query", "rank_criticality-candidate",
        "rank_criticality-service_nodes", "rank_criticality-no-candidates",
        "rank_criticality-service_nodes-int", "rank_criticality-degraded_states",
        "impact_probabilities-scenario", "classify_levels-scenario", "impact_set-scenario",
        "filter_marginals-obs", "smooth_marginals-obs", "unrolled_marginals-obs",
        "resolve_uncontrollable-node"])
def test_malformed_query_argument_refused_before_any_work(work, call, error, text):
    model = load_bundled_model("layered_iot").model
    model.compiled
    work.clear()
    with pytest.raises(error) as err:
        call(model)
    assert type(err.value) is error
    assert str(err.value) == text
    assert work == []


def test_unhashable_value_is_not_in_graph():
    graph = load_bundled_model("layered_iot").model.graph
    assert "a1" in graph
    assert ["a1"] not in graph


# Arguments of the table builders: a bad gate or domain is an InvalidArgument
# (so still a ValueError), a state the domain lacks an UnknownState.
@pytest.mark.parametrize("call,error,text", [
    (lambda: logic_gate_cpt("G", OF, {"A": OF}, "xor"), InvalidArgument,
     "gate must be 'and' or 'or', got 'xor'"),
    (lambda: and_cpt("G", StateDomain(["a", "b", "c"]), {"A": OF}), InvalidArgument,
     "logic-gate tables require a binary domain; 'G' has 3 states"),
    (lambda: or_cpt("G", OF, {"A": OF}, true_states={"A": "bad"}), UnknownState,
     "'bad' is not a state of 'A'"),
    (lambda: prior_cpt_from_score("dev", StateDomain(["a", "b", "c"]), 5.0), InvalidArgument,
     "score-derived priors require a binary domain; 'dev' has 3"),
    (lambda: prior_cpt_from_score("dev", OF, 5.0, compromised_state="owned"), UnknownState,
     "'owned' is not a state of 'dev'"),
], ids=["logic_gate_cpt-gate", "and_cpt-domain", "or_cpt-true_state",
        "prior_cpt_from_score-domain", "prior_cpt_from_score-compromised_state"])
def test_bad_table_argument_refused(call, error, text):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == text


@pytest.mark.parametrize("call,valid,non_integers,low,error,texts", ROWS)
def test_numpy_integer_gives_the_int_answer(call, valid, non_integers, low, error, texts):
    expected = call(valid)
    for kind in (np.int64, np.int32, np.uint16):
        got = call(kind(valid))
        assert got == expected
        assert repr(got) == repr(expected)
