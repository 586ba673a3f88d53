"""Monte Carlo sampler determinism/accuracy and report/DOT determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from iotrisk.bundled import load_bundled_model
from iotrisk.cascade import EventLevel, IncidentScenario, impact_probabilities, rank_criticality
from iotrisk.errors import InvalidArgument, IotRiskError, MissingCpt
from iotrisk.graph import ComponentNode, DependencyGraph, InfluenceEdge, StateDomain
from iotrisk.inference import enumerate_posteriors
from iotrisk.model import BayesianModel, Cpt
from iotrisk.reporting import emit_report, export_dot, input_digest, to_jsonable
from iotrisk.sampling import monte_carlo_sample
from iotrisk.uncontrollable import CatalogueSource, StateCatalogue

from conftest import make_chain2, random_model

TF = StateDomain(["T", "F"])
SRC = Path(__file__).resolve().parents[1] / "src"


class TestSampler:
    def test_deterministic_model_exact_at_any_n(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", TF), ComponentNode("B", "network", TF)],
            [InfluenceEdge("A", "B")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (1.0, 0.0)),
            "B": Cpt("B", ("A",), {("T",): (0.0, 1.0), ("F",): (1.0, 0.0)}),
        })
        for n in (1, 7, 100):
            freqs = monte_carlo_sample(model, n, seed=3)
            assert freqs["A"].probabilities == (1.0, 0.0)
            assert freqs["B"].probabilities == (0.0, 1.0)

    def test_chain_close_to_exact_at_one_million(self):
        model = make_chain2()
        freqs = monte_carlo_sample(model, 1_000_000, seed=42)
        # 3-sigma binomial bound at n=1e6 is ~0.0014; the contract is 0.002
        assert abs(freqs["B"].p("T") - 0.34) <= 0.002

    def test_same_seed_bitwise_identical(self):
        model = make_chain2()
        a = monte_carlo_sample(model, 5000, seed=7)
        b = monte_carlo_sample(model, 5000, seed=7)
        assert {k: v.probabilities for k, v in a.items()} == \
               {k: v.probabilities for k, v in b.items()}

    def test_different_seeds_differ(self):
        model = make_chain2()
        a = monte_carlo_sample(model, 5000, seed=1)
        b = monte_carlo_sample(model, 5000, seed=2)
        assert a["B"].probabilities != b["B"].probabilities

    def test_multi_state_multi_parent_agreement(self):
        rng = random.Random(17)
        model = random_model(rng, max_nodes=6, max_states=3, max_joint=2 ** 9)
        exact = enumerate_posteriors(model)
        freqs = monte_carlo_sample(model, 200_000, seed=11)
        for nid, marginal in freqs.items():
            for state, p in zip(marginal.states, marginal.probabilities):
                assert abs(p - exact[nid].p(state)) <= 0.01

    def test_partial_model_rejected(self):
        graph = DependencyGraph([ComponentNode("A", "network", TF)], [])
        model = BayesianModel(graph, {})
        with pytest.raises(MissingCpt):
            monte_carlo_sample(model, 10, seed=0)

    def test_frequencies_are_distributions(self):
        model = make_chain2()
        for marginal in monte_carlo_sample(model, 999, seed=5).values():
            assert math.fsum(marginal.probabilities) == pytest.approx(1.0, abs=1e-12)


# State counts of monte_carlo_sample(model, n, seed=0), recorded from the
# sampler that drew every node's n uniforms in one call and gathered whole
# (n, card) threshold matrices.  Frequencies are these counts over n.
GOLDEN_COUNTS = {
    ("layered_iot", 1): {nid: (1, 0) for nid in
                         ("a1", "a10", "a12", "a14", "a2", "a3", "a4", "a6", "a7")},
    ("layered_iot", 2 ** 18 + 1): {
        "a1": (219489, 42656), "a10": (241878, 20267), "a12": (245305, 16840),
        "a14": (249052, 13093), "a2": (223040, 39105), "a3": (227170, 34975),
        "a4": (231569, 30576), "a6": (236689, 25456), "a7": (239044, 23101)},
    ("layered_iot", 10 ** 6): {
        "a1": (838183, 161817), "a10": (923864, 76136), "a12": (935985, 64015),
        "a14": (949828, 50172), "a2": (851764, 148236), "a3": (866993, 133007),
        "a4": (884477, 115523), "a6": (903349, 96651), "a7": (912943, 87057)},
    # smart_home's wifi_gateway is ternary and a parent of alarm_service.
    ("smart_home", 1): {
        "alarm_service": (1, 0), "door_sensor": (1, 0), "monitoring_app": (1, 0),
        "motion_sensor": (1, 0), "wifi_gateway": (1, 0, 0)},
    ("smart_home", 2 ** 18 + 1): {
        "alarm_service": (230988, 31157), "door_sensor": (249052, 13093),
        "monitoring_app": (232065, 30080), "motion_sensor": (235790, 26355),
        "wifi_gateway": (222644, 26199, 13302)},
    ("smart_home", 10 ** 6): {
        "alarm_service": (883073, 116927), "door_sensor": (949828, 50172),
        "monitoring_app": (885585, 114415), "motion_sensor": (900100, 99900),
        "wifi_gateway": (850377, 99643, 49980)},
}

# Same provenance, for a random model whose nodes are mostly ternary and
# whose children read a ternary parent's states.  n = 2^14 + 1 and 300,007
# end one sample into a block and part way through one.
RANDOM_MODEL_COUNTS = {
    2 ** 14 + 1: {
        "n00": (2734, 6324, 7327), "n01": (1426, 10878, 4081),
        "n02": (2768, 3060, 10557), "n03": (3282, 3456, 9647),
        "n04": (7332, 9053), "n05": (3344, 11277, 1764)},
    300_007: {
        "n00": (50601, 117077, 132329), "n01": (25402, 200558, 74047),
        "n02": (50486, 57057, 192464), "n03": (59783, 62836, 177388),
        "n04": (133253, 166754), "n05": (61999, 205234, 32774)},
}


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSamplerBlocks:
    """Block-wise drawing keeps the stream, the frequencies and a memory bound."""

    @pytest.mark.parametrize("name,n", sorted(GOLDEN_COUNTS))
    def test_golden_frequencies(self, name, n):
        model = load_bundled_model(name).completed_model()
        freqs = monte_carlo_sample(model, n, seed=0)
        assert {nid: m.probabilities for nid, m in freqs.items()} == \
               {nid: tuple(c / n for c in counts)
                for nid, counts in GOLDEN_COUNTS[name, n].items()}

    @pytest.mark.parametrize("n", sorted(RANDOM_MODEL_COUNTS))
    def test_golden_frequencies_multi_state(self, n):
        model = random_model(random.Random(17), max_nodes=6, max_states=3,
                             max_joint=2 ** 9)
        freqs = monte_carlo_sample(model, n, seed=0)
        assert {nid: m.probabilities for nid, m in freqs.items()} == \
               {nid: tuple(c / n for c in counts)
                for nid, counts in RANDOM_MODEL_COUNTS[n].items()}

    def test_peak_memory_bounded_at_one_million(self):
        model = load_bundled_model("layered_iot").completed_model()
        peak = traced_peak(lambda: monte_carlo_sample(model, 10 ** 6, seed=0))
        # A few block-sized arrays come to under 0.5 MiB.  Keeping a byte per
        # sample per live node would reach ~8.7 MiB, int64 states ~31 MiB,
        # and a float64 array of n samples per node ~94 MiB.
        assert peak < 16 * 2 ** 20

    def test_peak_memory_independent_of_n(self):
        model = load_bundled_model("layered_iot").completed_model()
        small, large = (traced_peak(lambda: monte_carlo_sample(model, n, seed=0))
                        for n in (10 ** 6, 4 * 10 ** 6))
        # Keeping n bytes per live node would reach ~8.7 MiB and ~16 MiB.
        assert small < 2 ** 20 and large < 2 ** 20
        assert abs(large - small) < 64 * 2 ** 10

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonpositive_count_is_invalid_argument(self, n):
        with pytest.raises(InvalidArgument) as err:
            monte_carlo_sample(make_chain2(), n, seed=0)
        assert isinstance(err.value, IotRiskError)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("n,seed", [(99999999999999999999, 0), (10, -1)])
    def test_unindexable_count_or_negative_seed_is_invalid_argument(self, n, seed):
        # Raised before anything is allocated: numpy would raise a bare
        # ValueError from the array constructor or from the seed sequence.
        with pytest.raises(InvalidArgument):
            monte_carlo_sample(make_chain2(), n, seed=seed)


class TestReports:
    def test_identical_inputs_byte_identical_reports(self):
        doc = load_bundled_model("layered_iot")
        report = impact_probabilities(doc.model, IncidentScenario({"a14": "impaired"}))
        first = emit_report("cascade", report, input_digest(b"x"))
        second = emit_report("cascade", report, input_digest(b"x"))
        assert first == second

    def test_report_envelope_shape(self):
        text = emit_report("gaps", {"gaps": []}, input_digest(b"model"))
        parsed = json.loads(text)
        assert parsed["schema_version"] == 1
        assert parsed["kind"] == "gaps"
        assert parsed["input_digest"].startswith("sha256:")
        assert parsed["result"] == {"gaps": []}

    def test_hashlib_loads_on_the_first_digest(self):
        # hashlib loads OpenSSL; a query that emits no digest should not.
        script = ("import json, sys\n"
                  "import iotrisk\n"
                  "model = iotrisk.load_bundled_model('layered_iot').model\n"
                  "iotrisk.posterior_update(model, {'a14': 'impaired'})\n"
                  "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
                  "from iotrisk.reporting import input_digest\n"
                  "print(json.dumps([loaded, input_digest(b'model', b'stream')]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        # The digest is the one the build that imported hashlib eagerly gave.
        assert json.loads(proc.stdout) == [
            [], "sha256:70835b2fa05ceb51c2c846d0d4ef522efddeea7ddabe50e8ae51309bf8cd5bb9"]

    def test_keys_sorted_in_output(self):
        text = emit_report("x", {"zeta": 1, "alpha": 2}, None)
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_jsonable_covers_marginals_and_sets(self):
        model = make_chain2()
        out = to_jsonable({"m": enumerate_posteriors(model)["B"],
                           "s": frozenset({"b", "a"})})
        assert out == {"m": {"node": "B", "distribution": {"T": 0.34, "F": 0.66}},
                       "s": ["a", "b"]}

    def test_jsonable_enums_and_dataclasses_keep_declaration_order(self):
        @dataclasses.dataclass(frozen=True)
        class Finding:
            zeta: object
            alpha: object

        level = EventLevel.SERVICE
        out = to_jsonable(Finding(level, Finding(frozenset({"b", "a"}), None)))
        assert out == {"zeta": "service", "alpha": {"zeta": ["a", "b"], "alpha": None}}
        assert list(out) == ["zeta", "alpha"]
        assert list(out["alpha"]) == ["zeta", "alpha"]
        catalogue = StateCatalogue("U", (0.25, 0.75), CatalogueSource.DECLARED)
        assert list(to_jsonable(catalogue).items()) == [
            ("node", "U"), ("prior", [0.25, 0.75]), ("source", "declared")]
        with pytest.raises(TypeError):
            to_jsonable(Finding)


class TestSlottedAnswers:
    """The answer types a caller may keep by the thousand carry no
    per-instance ``__dict__``; their behaviour is unchanged."""

    def answers(self):
        model = load_bundled_model("layered_iot").model
        impact = impact_probabilities(model, IncidentScenario({"a14": "impaired"})).per_node
        entry = rank_criticality(model, [("a14", "impaired")])[0]
        return [impact["a1"].distribution, impact["a1"], entry]

    def test_no_instance_dict(self):
        for answer in self.answers():
            assert not hasattr(answer, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(answer, dataclasses.fields(answer)[0].name, None)

    def test_jsonable_equality_and_replace(self):
        for answer, again in zip(self.answers(), self.answers()):
            assert answer == again and hash(answer) == hash(again)
            assert to_jsonable(answer) == to_jsonable(again)
            assert json.dumps(to_jsonable(answer))
            copy = dataclasses.replace(answer)
            assert copy == answer and copy is not answer
        marginal, impact, entry = self.answers()
        assert to_jsonable(marginal)["node"] == "a1"
        assert dataclasses.replace(impact, dependency_order=7).dependency_order == 7
        assert dataclasses.replace(entry, score=None).score is None


class TestDotExport:
    def test_two_node_chain_contains_nodes_and_edge(self):
        model = make_chain2()
        text = export_dot(model)
        assert '"A"' in text and '"B"' in text
        assert '"A" -> "B";' in text

    def test_layered_model_has_three_clusters(self):
        doc = load_bundled_model("layered_iot")
        text = export_dot(doc.model)
        assert text.count("subgraph cluster_") == 3
        for layer in ("application", "network", "perception"):
            assert f'label="{layer}";' in text

    def test_byte_identical_on_repeat(self):
        doc = load_bundled_model("layered_iot")
        assert export_dot(doc.model) == export_dot(doc.model)

    def test_impact_annotations_present_when_report_given(self):
        doc = load_bundled_model("layered_iot")
        report = impact_probabilities(doc.model, IncidentScenario({"a14": "impaired"}))
        text = export_dot(doc.model, report)
        assert "P(impaired)=" in text
        assert "lightcoral" in text    # origin marker
        assert "lightyellow" in text   # impacted marker

    def test_service_goals_marked(self):
        doc = load_bundled_model("layered_iot")
        assert "doubleoctagon" in export_dot(doc.model)
