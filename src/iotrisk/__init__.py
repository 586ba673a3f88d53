"""iotrisk: goal-oriented dependency risk analytics for layered IoT systems.

The library models a networked system as a layered dependency graph with a
conditional probability table per component, then answers risk questions with
exact Bayesian inference: posterior updating from evidence, time-sliced
filtering/smoothing/prediction, cascading-impact analysis of incident
scenarios, resolution of components that lack probabilistic data, and
CVSS v2-derived compromise priors.  A transformation-roadmap layer tracks
control goals against maturity tiers and binds measurable controls to model
nodes so their achievement is read as a posterior instead of asserted.

``import iotrisk`` loads neither numpy nor the ``cvss``, ``roadmap`` and
``bundled`` modules: numpy loads on the first numeric query, and each of
those modules on first use of one of its names.
"""

from .errors import (
    CyclicGraph,
    DocumentError,
    DuplicateId,
    EmptyGoal,
    ImpossibleEvidence,
    IncompleteAssignment,
    InvalidArgument,
    InvalidDistribution,
    InvalidHorizon,
    InvalidMetricValue,
    IotRiskError,
    MissingAssignment,
    MissingCpt,
    ModelError,
    ModelSyntaxError,
    NotMeasurable,
    NotUncontrollable,
    ObservationBeyondHorizon,
    OutOfRange,
    SchemaVersionMismatch,
    UnknownNode,
    UnknownState,
    UnknownTierLabel,
    UnresolvableNode,
    ValidationFailed,
)
from .graph import (
    APPLICATION,
    BUILTIN_LAYERS,
    NETWORK,
    PERCEPTION,
    ComponentNode,
    DependencyGraph,
    InfluenceEdge,
    StateDomain,
    ValidationReport,
    Violation,
    ancestors,
    dependency_order,
    descendants,
    topological_order,
    validate,
)
from .model import BayesianModel, Cpt, Marginal, ROW_SUM_TOL
from .inference import (
    ORACLE_TOL,
    eliminate_marginal,
    enumerate_marginal,
    enumerate_posteriors,
    joint_probability,
    posterior_update,
)
from .temporal import (
    DEFAULT_MAX_HORIZON,
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
from .cascade import (
    CriticalityEntry,
    EventLevel,
    ImpactReport,
    IncidentScenario,
    LevelClassification,
    NodeImpact,
    NodeRelation,
    classify_levels,
    impact_probabilities,
    impact_set,
    rank_criticality,
)
from .uncontrollable import (
    CatalogueSource,
    StateCatalogue,
    and_cpt,
    catalogue,
    complete_model,
    detect_uncontrollable,
    logic_gate_cpt,
    or_cpt,
    resolve_uncontrollable,
)
from .documents import (
    SCHEMA_VERSION,
    EvidenceRecord,
    ModelDocument,
    TemporalSpec,
    ingest_evidence,
    parse_model,
    read_evidence,
    serialize_model,
)
from .sampling import monte_carlo_sample
from .reporting import emit_report, export_dot, input_digest, to_jsonable

# Modules that load on first use, so a verb that never scores a vector or
# reads a roadmap does not pay for them: each public name -> its module.
_LAZY = {
    **dict.fromkeys(("CvssVector", "LinearPriorMapping", "LogisticPriorMapping",
                     "base_score", "environmental_score", "prior_cpt_from_score",
                     "score_summary", "score_to_prior", "temporal_score"), "cvss"),
    **dict.fromkeys(("DEFAULT_TIER_SCALE", "BoundRoadmap", "ControlElement", "ControlGoal",
                     "ControlObjective", "Epistemic", "RoadmapModel", "TierGap",
                     "achievement_states", "bind_elements", "build_roadmap",
                     "classify_epistemic", "gap_report"), "roadmap"),
    **dict.fromkeys(("DEFAULT_ROADMAP_SECTION", "bundled_model_names", "load_bundled_model",
                     "load_bundled_roadmap", "parse_roadmap_document",
                     "roadmap_section_keys"), "bundled"),
}
_LAZY_MODULES = frozenset(_LAZY.values())


def __getattr__(name):
    """Load a deferred module on first use (PEP 562)."""
    # Imported here, so the package gains no public name.
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | _LAZY_MODULES)
