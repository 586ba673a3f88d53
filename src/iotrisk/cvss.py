"""CVSS v2 scoring and the bridge from scores to compromise priors.

Implements the base, temporal and environmental equations of the CVSS v2
specification, including the environmental attributes relevant to dependency
analysis: collateral damage potential, target distribution, and the per-asset
security requirements.  Vector strings use the standard ``AV:N/AC:L/...``
notation; unspecified temporal/environmental metrics default to Not Defined.

Every named score (base, temporal, adjusted base, adjusted temporal,
environmental) is rounded to one decimal at exactly the points the reference
equations specify, using the platform's round-half-to-even on the computed
double.  One documented consequence of the reference's AdjustedImpact cap
``min(10, ...)``: for the single base combination AV:L/AC:L/Au:N/C:C/I:C/A:C
the identity environmental configuration (CDP/TD/requirements neutral) yields
7.1 against a base score of 7.2; every other combination reproduces its base
score exactly.

:func:`score_to_prior` maps a score to a probability used as the
"compromised" prior of a root node; the default mapping is linear
(p = score / 10) with an optional logistic alternative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidArgument, InvalidMetricValue, OutOfRange, UnknownState
from .model import Cpt


class _Metric(enum.Enum):
    """Base class wiring each metric value to its abbreviation and weight."""

    def __new__(cls, abbrev: str, weight: float):
        obj = object.__new__(cls)
        obj._value_ = abbrev
        obj.weight = weight
        return obj


class AccessVector(_Metric):
    LOCAL = ("L", 0.395)
    ADJACENT_NETWORK = ("A", 0.646)
    NETWORK = ("N", 1.0)


class AccessComplexity(_Metric):
    HIGH = ("H", 0.35)
    MEDIUM = ("M", 0.61)
    LOW = ("L", 0.71)


class Authentication(_Metric):
    MULTIPLE = ("M", 0.45)
    SINGLE = ("S", 0.56)
    NONE = ("N", 0.704)


class Impact(_Metric):
    NONE = ("N", 0.0)
    PARTIAL = ("P", 0.275)
    COMPLETE = ("C", 0.660)


class Exploitability(_Metric):
    UNPROVEN = ("U", 0.85)
    PROOF_OF_CONCEPT = ("POC", 0.9)
    FUNCTIONAL = ("F", 0.95)
    HIGH = ("H", 1.0)
    NOT_DEFINED = ("ND", 1.0)


class RemediationLevel(_Metric):
    OFFICIAL_FIX = ("OF", 0.87)
    TEMPORARY_FIX = ("TF", 0.90)
    WORKAROUND = ("W", 0.95)
    UNAVAILABLE = ("U", 1.0)
    NOT_DEFINED = ("ND", 1.0)


class ReportConfidence(_Metric):
    UNCONFIRMED = ("UC", 0.90)
    UNCORROBORATED = ("UR", 0.95)
    CONFIRMED = ("C", 1.0)
    NOT_DEFINED = ("ND", 1.0)


class CollateralDamagePotential(_Metric):
    NONE = ("N", 0.0)
    LOW = ("L", 0.1)
    LOW_MEDIUM = ("LM", 0.3)
    MEDIUM_HIGH = ("MH", 0.4)
    HIGH = ("H", 0.5)
    NOT_DEFINED = ("ND", 0.0)


class TargetDistribution(_Metric):
    NONE = ("N", 0.0)
    LOW = ("L", 0.25)
    MEDIUM = ("M", 0.75)
    HIGH = ("H", 1.0)
    NOT_DEFINED = ("ND", 1.0)


class SecurityRequirement(_Metric):
    LOW = ("L", 0.5)
    MEDIUM = ("M", 1.0)
    HIGH = ("H", 1.51)
    NOT_DEFINED = ("ND", 1.0)


_VECTOR_FIELDS = (
    ("AV", "access_vector", AccessVector),
    ("AC", "access_complexity", AccessComplexity),
    ("Au", "authentication", Authentication),
    ("C", "confidentiality", Impact),
    ("I", "integrity", Impact),
    ("A", "availability", Impact),
    ("E", "exploitability", Exploitability),
    ("RL", "remediation_level", RemediationLevel),
    ("RC", "report_confidence", ReportConfidence),
    ("CDP", "collateral_damage_potential", CollateralDamagePotential),
    ("TD", "target_distribution", TargetDistribution),
    ("CR", "confidentiality_requirement", SecurityRequirement),
    ("IR", "integrity_requirement", SecurityRequirement),
    ("AR", "availability_requirement", SecurityRequirement),
)
_BASE_KEYS = ("AV", "AC", "Au", "C", "I", "A")


@dataclass(frozen=True)
class CvssVector:
    """A full v2 vector; temporal/environmental metrics default to Not Defined."""

    access_vector: AccessVector
    access_complexity: AccessComplexity
    authentication: Authentication
    confidentiality: Impact
    integrity: Impact
    availability: Impact
    exploitability: Exploitability = Exploitability.NOT_DEFINED
    remediation_level: RemediationLevel = RemediationLevel.NOT_DEFINED
    report_confidence: ReportConfidence = ReportConfidence.NOT_DEFINED
    collateral_damage_potential: CollateralDamagePotential = CollateralDamagePotential.NOT_DEFINED
    target_distribution: TargetDistribution = TargetDistribution.NOT_DEFINED
    confidentiality_requirement: SecurityRequirement = SecurityRequirement.NOT_DEFINED
    integrity_requirement: SecurityRequirement = SecurityRequirement.NOT_DEFINED
    availability_requirement: SecurityRequirement = SecurityRequirement.NOT_DEFINED

    @classmethod
    def from_string(cls, text: str) -> "CvssVector":
        """Parse ``AV:N/AC:L/Au:N/C:P/I:N/A:N/...`` (parentheses tolerated)."""
        cleaned = text.strip().strip("()")
        if not cleaned:
            raise InvalidMetricValue("empty vector string")
        by_key = {key: (attr, kind) for key, attr, kind in _VECTOR_FIELDS}
        fields = {}
        for part in cleaned.split("/"):
            if ":" not in part:
                raise InvalidMetricValue(f"malformed vector component {part!r}")
            key, _, value = part.partition(":")
            key, value = key.strip(), value.strip()
            if key not in by_key:
                raise InvalidMetricValue(f"unknown metric {key!r}")
            attr, kind = by_key[key]
            if attr in fields:
                raise InvalidMetricValue(f"metric {key!r} given twice")
            try:
                fields[attr] = kind(value)
            except ValueError:
                raise InvalidMetricValue(
                    f"invalid value {value!r} for metric {key!r}") from None
        missing = [key for key in _BASE_KEYS if by_key[key][0] not in fields]
        if missing:
            raise InvalidMetricValue(f"missing required base metric(s) {missing}")
        return cls(**fields)

    def to_string(self) -> str:
        """Canonical vector string; Not Defined metrics are omitted."""
        parts = []
        for key, attr, _ in _VECTOR_FIELDS:
            value = getattr(self, attr)
            if key not in _BASE_KEYS and value.value == "ND":
                continue
            parts.append(f"{key}:{value.value}")
        return "/".join(parts)


def _round1(x: float) -> float:
    return round(x, 1)


def _impact(c: float, i: float, a: float) -> float:
    return 10.41 * (1.0 - (1.0 - c) * (1.0 - i) * (1.0 - a))


def _base_from_impact(vector: CvssVector, impact: float) -> float:
    exploit = (20.0 * vector.access_vector.weight * vector.access_complexity.weight
               * vector.authentication.weight)
    f = 0.0 if impact == 0.0 else 1.176
    return _round1((0.6 * impact + 0.4 * exploit - 1.5) * f)


def base_score(vector: CvssVector) -> float:
    """The base equation: impact/exploitability blend, one decimal."""
    impact = _impact(vector.confidentiality.weight, vector.integrity.weight,
                     vector.availability.weight)
    return _base_from_impact(vector, impact)


def _temporal_from_base(vector: CvssVector, base: float) -> float:
    return _round1(base * vector.exploitability.weight
                   * vector.remediation_level.weight
                   * vector.report_confidence.weight)


def temporal_score(vector: CvssVector) -> float:
    """The temporal equation; equals the base score when all ND."""
    return _temporal_from_base(vector, base_score(vector))


def environmental_score(vector: CvssVector) -> float:
    """The environmental equation, with requirement-adjusted impact.

    AdjustedImpact caps at 10; AdjustedBase and AdjustedTemporal re-run the
    base/temporal equations on it; the result blends in collateral damage and
    scales by target distribution.  TD None or ND-with-zero-CDP semantics are
    exactly the reference's.  The score is floored at 0.0: with a low adjusted
    impact the equation's -1.5 term can push it below zero.
    """
    adjusted_impact = min(10.0, _impact(
        vector.confidentiality.weight * vector.confidentiality_requirement.weight,
        vector.integrity.weight * vector.integrity_requirement.weight,
        vector.availability.weight * vector.availability_requirement.weight))
    adjusted_base = _base_from_impact(vector, adjusted_impact)
    adjusted_temporal = _temporal_from_base(vector, adjusted_base)
    cdp = vector.collateral_damage_potential.weight
    td = vector.target_distribution.weight
    return max(0.0, _round1((adjusted_temporal + (10.0 - adjusted_temporal) * cdp) * td))


def score_summary(vector: CvssVector) -> dict:
    return {
        "vector": vector.to_string(),
        "base": base_score(vector),
        "temporal": temporal_score(vector),
        "environmental": environmental_score(vector),
    }


# ------------------------------------------------------------ prior mappings

@dataclass(frozen=True)
class LinearPriorMapping:
    """p = score / 10: the default, endpoint-exact mapping."""

    def __call__(self, score: float) -> float:
        return score / 10.0


@dataclass(frozen=True)
class LogisticPriorMapping:
    """p = 1 / (1 + exp(-steepness * (score - midpoint))); optional alternative."""

    midpoint: float = 5.0
    steepness: float = 1.0

    def __call__(self, score: float) -> float:
        return 1.0 / (1.0 + math.exp(-self.steepness * (score - self.midpoint)))


DEFAULT_PRIOR_MAPPING = LinearPriorMapping()


def score_to_prior(score: float, mapping=None) -> float:
    """Map a score in [0, 10] to a compromise probability in [0, 1]."""
    score = float(score)
    if not 0.0 <= score <= 10.0:
        raise OutOfRange(f"score {score} outside [0, 10]")
    mapping = mapping or DEFAULT_PRIOR_MAPPING
    p = float(mapping(score))
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"prior mapping produced {p}, outside [0, 1]")
    return p


def prior_cpt_from_score(node_id: str, domain, score: float, compromised_state=None,
                         mapping=None) -> Cpt:
    """Root-node table with P(compromised state) taken from a score.

    The domain must be binary; ``compromised_state`` defaults to the last
    state (matching the convention that the last state is the degraded one).
    Raises :class:`InvalidArgument` (a ``ValueError``) for a non-binary domain
    and :class:`UnknownState` for a compromised state the domain lacks.
    """
    states = tuple(domain)
    if len(states) != 2:
        raise InvalidArgument(
            f"score-derived priors require a binary domain; {node_id!r} has {len(states)}")
    compromised = compromised_state if compromised_state is not None else states[-1]
    if compromised not in states:
        raise UnknownState(f"{compromised!r} is not a state of {node_id!r}")
    p = score_to_prior(score, mapping)
    return Cpt.prior(node_id, tuple(p if s == compromised else 1.0 - p for s in states))
