"""Catalogues and dynamic resolution of nodes lacking probabilistic data.

The 8/9 posterior was derived by hand (Bayes rule on a uniform prior) and
cross-checked by enumeration on the completed model before freezing.
"""

from __future__ import annotations

import pytest

from iotrisk.errors import (
    InvalidDistribution,
    ModelError,
    NotUncontrollable,
    UnresolvableNode,
)
from iotrisk.graph import ComponentNode, DependencyGraph, InfluenceEdge, StateDomain
from iotrisk.inference import enumerate_marginal
from iotrisk.model import BayesianModel, Cpt
from iotrisk.uncontrollable import (
    MAX_GAP_ROWS,
    CatalogueSource,
    and_cpt,
    catalogue,
    complete_model,
    detect_uncontrollable,
    or_cpt,
    resolve_uncontrollable,
)

GB = StateDomain(["good", "bad"])
OF = StateDomain(["ok", "fail"])


def latent_child_model() -> BayesianModel:
    """U (no CPT) -> D with P(D=fail|U=bad)=0.8, P(D=fail|U=good)=0.1."""
    graph = DependencyGraph(
        [ComponentNode("U", "perception", GB), ComponentNode("D", "network", OF)],
        [InfluenceEdge("U", "D")])
    return BayesianModel(graph, {
        "D": Cpt("D", ("U",), {("good",): (0.9, 0.1), ("bad",): (0.2, 0.8)}),
    })


class TestDetect:
    def test_fully_specified_model_has_none(self, chain2):
        assert detect_uncontrollable(chain2) == frozenset()

    def test_single_gap_detected(self):
        assert detect_uncontrollable(latent_child_model()) == {"U"}

    def test_mixed_model_detects_exactly_the_gaps(self):
        ids = "ABCDE"
        graph = DependencyGraph(
            [ComponentNode(i, "network", GB) for i in ids], [])
        cpts = {i: Cpt.prior(i, (0.5, 0.5)) for i in "ACE"}
        model = BayesianModel(graph, cpts)
        declared = frozenset(ids) - set(cpts)
        assert detect_uncontrollable(model) == declared == {"B", "D"}


class TestCatalogue:
    def test_default_is_uniform(self):
        graph = DependencyGraph(
            [ComponentNode("U", "perception", StateDomain(["a", "b", "c"]))], [])
        model = BayesianModel(graph, {})
        cat = catalogue(model, "U")
        assert cat.prior == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert cat.source is CatalogueSource.DEFAULT_UNIFORM

    def test_declared_prior_passes_through(self):
        model = latent_child_model()
        cat = catalogue(model, "U", (0.2, 0.8))
        assert cat.prior == (0.2, 0.8)
        assert cat.source is CatalogueSource.DECLARED

    def test_invalid_distribution_rejected(self):
        model = latent_child_model()
        with pytest.raises(InvalidDistribution):
            catalogue(model, "U", (0.5, 0.6))

    def test_controllable_node_rejected(self):
        model = latent_child_model()
        with pytest.raises(NotUncontrollable):
            catalogue(model, "D")


class TestResolve:
    def test_observed_child_pulls_posterior(self):
        model = latent_child_model()
        out = resolve_uncontrollable(model, "U", {"D": "fail"})
        assert out.p("bad") == pytest.approx(8 / 9, abs=1e-9)

    def test_no_evidence_returns_catalogue_prior(self):
        model = latent_child_model()
        out = resolve_uncontrollable(model, "U")
        assert out.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_declared_catalogue_respected(self):
        model = latent_child_model()
        cat = catalogue(model, "U", (0.9, 0.1))
        out = resolve_uncontrollable(model, "U", {"D": "fail"}, {"U": cat})
        expected = (0.1 * 0.8) / (0.1 * 0.8 + 0.9 * 0.1)
        assert out.p("bad") == pytest.approx(expected, abs=1e-9)

    def test_unrelated_evidence_leaves_prior(self):
        graph = DependencyGraph(
            [ComponentNode("U", "perception", GB), ComponentNode("D", "network", OF),
             ComponentNode("Z", "network", OF)],
            [InfluenceEdge("U", "D")])
        model = BayesianModel(graph, {
            "D": Cpt("D", ("U",), {("good",): (0.9, 0.1), ("bad",): (0.2, 0.8)}),
            "Z": Cpt.prior("Z", (0.3, 0.7)),
        })
        out = resolve_uncontrollable(model, "U", {"Z": "fail"})
        assert out.probabilities == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_resolution_matches_enumeration_on_completed_model(self):
        model = latent_child_model()
        completed = complete_model(model)
        for evidence in ({}, {"D": "fail"}, {"D": "ok"}):
            got = resolve_uncontrollable(model, "U", evidence)
            expected = enumerate_marginal(completed, "U", evidence)
            assert got.probabilities == pytest.approx(expected.probabilities, abs=1e-9)

    def test_cpt_less_child_blocks_resolution(self):
        graph = DependencyGraph(
            [ComponentNode("U", "perception", GB), ComponentNode("D", "network", OF)],
            [InfluenceEdge("U", "D")])
        model = BayesianModel(graph, {})
        with pytest.raises(UnresolvableNode):
            resolve_uncontrollable(model, "U", {})

    def test_controllable_node_rejected(self, chain2):
        with pytest.raises(NotUncontrollable):
            resolve_uncontrollable(chain2, "A", {})


class TestCompleteModel:
    def test_completion_closes_every_gap(self):
        model = latent_child_model()
        assert detect_uncontrollable(complete_model(model)) == frozenset()

    def test_model_without_gaps_is_returned_as_it_is(self):
        model = complete_model(latent_child_model())
        assert complete_model(model) is model

    def test_gap_wider_than_the_limit_raises(self):
        # 17 binary parents: 2^17 combinations, one more power of two than
        # MAX_GAP_ROWS allows.
        roots = [ComponentNode(f"r{i:02d}", "perception", GB) for i in range(17)]
        graph = DependencyGraph(roots + [ComponentNode("U", "network", GB)],
                                [InfluenceEdge(r.id, "U") for r in roots])
        model = BayesianModel(graph, {r.id: Cpt.prior(r.id, (0.5, 0.5)) for r in roots})
        with pytest.raises(ModelError) as err:
            complete_model(model)
        assert str(err.value) == ("uncontrollable node 'U' has 131072 parent-state "
                                  "combinations; a catalogue-backed table may have at most "
                                  f"{MAX_GAP_ROWS}")
        assert MAX_GAP_ROWS == 2 ** 16

    def test_completed_node_independent_of_parents(self):
        # U has a parent but no CPT: the substituted rows repeat the prior,
        # so conditioning the parent must not move U.
        graph = DependencyGraph(
            [ComponentNode("P", "perception", GB), ComponentNode("U", "network", GB)],
            [InfluenceEdge("P", "U")])
        model = BayesianModel(graph, {"P": Cpt.prior("P", (0.7, 0.3))})
        completed = complete_model(model)
        for state in GB:
            out = enumerate_marginal(completed, "U", {"P": state})
            assert out.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_uniform_catalogue_posterior_proportional_to_likelihood_row(self):
        model = latent_child_model()
        out = resolve_uncontrollable(model, "U", {"D": "fail"})
        # likelihoods P(D=fail | U): good 0.1, bad 0.8
        assert out.p("bad") / out.p("good") == pytest.approx(0.8 / 0.1, rel=1e-9)


class TestLogicGates:
    def test_and_gate_rows(self):
        cpt = and_cpt("G", OF, {"A": OF, "B": OF})
        assert cpt.rows[("ok", "ok")] == (1.0, 0.0)
        for combo in (("ok", "fail"), ("fail", "ok"), ("fail", "fail")):
            assert cpt.rows[combo] == (0.0, 1.0)

    def test_or_gate_rows(self):
        cpt = or_cpt("G", OF, {"A": OF, "B": OF})
        assert cpt.rows[("fail", "fail")] == (0.0, 1.0)
        for combo in (("ok", "ok"), ("ok", "fail"), ("fail", "ok")):
            assert cpt.rows[combo] == (1.0, 0.0)

    def test_custom_true_states(self):
        cpt = and_cpt("G", OF, {"A": GB}, true_states={"A": "bad", "G": "fail"})
        assert cpt.rows[("bad",)] == (0.0, 1.0)
        assert cpt.rows[("good",)] == (1.0, 0.0)

    def test_gate_tables_usable_in_a_model(self):
        graph = DependencyGraph(
            [ComponentNode("A", "network", OF), ComponentNode("B", "network", OF),
             ComponentNode("G", "application", OF)],
            [InfluenceEdge("A", "G"), InfluenceEdge("B", "G")])
        model = BayesianModel(graph, {
            "A": Cpt.prior("A", (0.9, 0.1)),
            "B": Cpt.prior("B", (0.8, 0.2)),
            "G": and_cpt("G", OF, {"A": OF, "B": OF}),
        })
        # G ok iff both ok: 0.9 * 0.8
        assert enumerate_marginal(model, "G").p("ok") == pytest.approx(0.72, abs=1e-12)

    def test_non_binary_child_rejected(self):
        with pytest.raises(ValueError):
            and_cpt("G", StateDomain(["a", "b", "c"]), {"A": OF})
