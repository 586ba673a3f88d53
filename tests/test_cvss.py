"""CVSS v2 scoring: vector parsing, reference equations, prior mapping.

Worked-example scores (7.8/6.4, 10.0/8.3/9.0, 6.2/4.9) are the published
values from the v2 reference document's own examples, reverified here by an
independent transcription of the equations before freezing.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotrisk.cvss import (
    CvssVector,
    LinearPriorMapping,
    LogisticPriorMapping,
    base_score,
    environmental_score,
    prior_cpt_from_score,
    score_to_prior,
    temporal_score,
)
from iotrisk.errors import InvalidMetricValue, OutOfRange
from iotrisk.graph import ComponentNode, DependencyGraph, StateDomain
from iotrisk.inference import enumerate_marginal
from iotrisk.model import BayesianModel

BASE_CHOICES = {
    "AV": "LAN", "AC": "HML", "Au": "MSN", "C": "NPC", "I": "NPC", "A": "NPC",
}


def all_base_vectors():
    keys = tuple(BASE_CHOICES)
    for combo in itertools.product(*(BASE_CHOICES[k] for k in keys)):
        yield "/".join(f"{k}:{v}" for k, v in zip(keys, combo))


def random_vector_string(rng: random.Random, *, td: str | None = None) -> str:
    parts = [f"{k}:{rng.choice(v)}" for k, v in BASE_CHOICES.items()]
    optionals = {
        "E": ["U", "POC", "F", "H", "ND"],
        "RL": ["OF", "TF", "W", "U", "ND"],
        "RC": ["UC", "UR", "C", "ND"],
        "CDP": ["N", "L", "LM", "MH", "H", "ND"],
        "TD": ["N", "L", "M", "H", "ND"],
        "CR": ["L", "M", "H", "ND"],
        "IR": ["L", "M", "H", "ND"],
        "AR": ["L", "M", "H", "ND"],
    }
    for key, values in optionals.items():
        if key == "TD" and td is not None:
            parts.append(f"TD:{td}")
        elif rng.random() < 0.7:
            parts.append(f"{key}:{rng.choice(values)}")
    return "/".join(parts)


class TestParsing:
    def test_round_trips_canonical_form(self):
        text = "AV:N/AC:L/Au:N/C:C/I:C/A:C/E:F/RL:OF/RC:C/CDP:H/TD:H/CR:M/IR:M/AR:L"
        assert CvssVector.from_string(text).to_string() == text

    def test_parentheses_tolerated(self):
        assert CvssVector.from_string("(AV:N/AC:L/Au:N/C:N/I:N/A:C)") == \
            CvssVector.from_string("AV:N/AC:L/Au:N/C:N/I:N/A:C")

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidMetricValue):
            CvssVector.from_string("AV:N/AC:L/Au:N/C:N/I:N/A:C/ZZ:Q")

    def test_unknown_value_rejected(self):
        with pytest.raises(InvalidMetricValue):
            CvssVector.from_string("AV:X/AC:L/Au:N/C:N/I:N/A:C")

    def test_missing_base_metric_rejected(self):
        with pytest.raises(InvalidMetricValue):
            CvssVector.from_string("AV:N/AC:L/Au:N/C:N/I:N")

    def test_duplicate_metric_rejected(self):
        with pytest.raises(InvalidMetricValue):
            CvssVector.from_string("AV:N/AV:L/AC:L/Au:N/C:N/I:N/A:C")

    def test_not_defined_defaults(self):
        vector = CvssVector.from_string("AV:N/AC:L/Au:N/C:N/I:N/A:C")
        assert vector.exploitability.value == "ND"
        assert vector.target_distribution.value == "ND"


class TestReferenceExamples:
    def test_remote_availability_loss_example(self):
        # network-exploitable, availability-complete vector from the
        # reference document's worked examples
        vector = CvssVector.from_string(
            "AV:N/AC:L/Au:N/C:N/I:N/A:C/E:F/RL:OF/RC:C/CDP:H/TD:H/CR:M/IR:M/AR:H")
        assert base_score(vector) == 7.8
        assert temporal_score(vector) == 6.4
        assert environmental_score(vector) == 9.2

    def test_full_compromise_example(self):
        vector = CvssVector.from_string(
            "AV:N/AC:L/Au:N/C:C/I:C/A:C/E:F/RL:OF/RC:C/CDP:H/TD:H/CR:M/IR:M/AR:L")
        assert base_score(vector) == 10.0
        assert temporal_score(vector) == 8.3
        assert environmental_score(vector) == 9.0

    def test_local_hard_to_exploit_example(self):
        vector = CvssVector.from_string("AV:L/AC:H/Au:N/C:C/I:C/A:C/E:POC/RL:OF/RC:C")
        assert base_score(vector) == 6.2
        assert temporal_score(vector) == 4.9

    def test_zero_impact_scores_zero(self):
        vector = CvssVector.from_string("AV:N/AC:L/Au:N/C:N/I:N/A:N")
        assert base_score(vector) == 0.0
        assert environmental_score(vector) == 0.0


class TestEnvironmentalProperties:
    def test_td_none_zeroes_everything(self):
        rng = random.Random(5)
        for _ in range(300):
            vector = CvssVector.from_string(random_vector_string(rng, td="N"))
            assert environmental_score(vector) == 0.0

    def test_identity_configuration_reproduces_base(self):
        # CDP None, TD High, requirements Medium, temporal undefined.  One
        # combination is excluded below: AV:L/AC:L/Au:N with full CIA
        # compromise, where the reference's min(10, AdjustedImpact) cap turns
        # base 7.2 into environmental 7.1.
        exception = "AV:L/AC:L/Au:N/C:C/I:C/A:C"
        identity_suffix = "/CDP:N/TD:H/CR:M/IR:M/AR:M"
        for base_text in all_base_vectors():
            vector = CvssVector.from_string(base_text + identity_suffix)
            if base_text == exception:
                assert base_score(vector) == 7.2
                assert environmental_score(vector) == 7.1
            else:
                assert environmental_score(vector) == base_score(vector), base_text

    def test_cdp_nd_equals_cdp_none(self):
        rng = random.Random(8)
        for _ in range(100):
            text = random_vector_string(rng)
            base_text = "/".join(p for p in text.split("/") if not p.startswith("CDP:"))
            with_none = CvssVector.from_string(base_text + "/CDP:N")
            with_nd = CvssVector.from_string(base_text + "/CDP:ND")
            assert environmental_score(with_none) == environmental_score(with_nd)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_total_and_in_range_over_random_vectors(self, seed):
        rng = random.Random(seed)
        vector = CvssVector.from_string(random_vector_string(rng))
        for score in (base_score(vector), temporal_score(vector),
                      environmental_score(vector)):
            assert 0.0 <= score <= 10.0
            assert round(score, 1) == score  # one-decimal contract

    def test_low_adjusted_impact_floors_at_zero(self):
        # The unfloored equation gives -0.1 here: adjusted base -0.2, TD:L.
        vector = CvssVector.from_string(
            "AV:L/AC:H/Au:M/C:N/I:P/A:N/E:H/RL:ND/CDP:N/TD:L/CR:L/IR:L/AR:L")
        assert environmental_score(vector) == 0.0

    def test_deterministic(self):
        vector = CvssVector.from_string("AV:A/AC:M/Au:S/C:P/I:P/A:P/CDP:LM/TD:M")
        assert environmental_score(vector) == environmental_score(vector)


class TestPriorMapping:
    def test_linear_endpoints_and_midpoint(self):
        assert score_to_prior(10.0) == 1.0
        assert score_to_prior(0.0) == 0.0
        assert score_to_prior(5.0) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            score_to_prior(10.1)
        with pytest.raises(OutOfRange):
            score_to_prior(-0.1)

    def test_linear_monotone(self):
        scores = [i / 10 for i in range(0, 101)]
        priors = [score_to_prior(s) for s in scores]
        assert priors == sorted(priors)

    def test_logistic_monotone_and_bounded(self):
        mapping = LogisticPriorMapping()
        priors = [score_to_prior(i / 4, mapping) for i in range(0, 41)]
        assert priors == sorted(priors)
        assert all(0.0 < p < 1.0 for p in priors)

    def test_prior_cpt_feeds_inference(self):
        # a root with a score-derived prior must show exactly that
        # probability under no-evidence enumeration
        domain = StateDomain(["secure", "compromised"])
        graph = DependencyGraph([ComponentNode("dev", "perception", domain)], [])
        score = 7.3
        model = BayesianModel(graph, {
            "dev": prior_cpt_from_score("dev", domain, score)})
        marginal = enumerate_marginal(model, "dev")
        assert marginal.p("compromised") == pytest.approx(score / 10, abs=1e-12)
        assert marginal.p("secure") == pytest.approx(1 - score / 10, abs=1e-12)

    def test_default_mapping_is_linear(self):
        assert isinstance(LinearPriorMapping(), LinearPriorMapping)
        assert score_to_prior(3.7) == pytest.approx(0.37, abs=1e-15)
