"""Transformation roadmaps: control goals, objectives and measurable elements.

The hierarchy follows the parent/child/orphan metaphor used for goal-oriented
dependency work: a control *goal* (parent) is refined into *objectives*
(children) which bottom out in *elements* (orphans) -- the statements concrete
enough to measure.  An element's epistemic status separates what is merely
understood from what is backed by data: only a measurable element with data
attached counts as evidential.

Maturity is tracked on an ordered tier scale.  The default four-level scale
(NotImplemented < Understood < Implemented < Evidenced) is a placeholder;
real deployments declare their own, since tiers are always case specific.
:func:`gap_report` diffs a current against a target assignment on that scale,
and :func:`bind_elements` wires measurable elements to model nodes so their
achievement can be read off as a posterior instead of asserted by hand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .errors import (
    DuplicateId,
    EmptyGoal,
    InvalidArgument,
    MissingAssignment,
    NotMeasurable,
    UnknownNode,
    UnknownTierLabel,
)
from .model import BayesianModel, Marginal


class Epistemic(enum.Enum):
    UNDERSTANDING = "understanding"
    EVIDENTIAL = "evidential"


DEFAULT_TIER_SCALE = ("NotImplemented", "Understood", "Implemented", "Evidenced")


@dataclass(frozen=True)
class ControlElement:
    """A measurable (or not-yet-measurable) leaf statement."""

    id: str
    title: str
    measurable: bool = False
    epistemic: Epistemic = Epistemic.UNDERSTANDING
    binding: str | None = None  # model node backing this element, if any
    notes: str = ""

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("element id must be a non-empty string")
        if self.epistemic is Epistemic.EVIDENTIAL and not self.measurable:
            raise NotMeasurable(
                f"element {self.id!r}: evidential status requires measurability")
        if self.binding is not None and not self.measurable:
            raise NotMeasurable(
                f"element {self.id!r}: only measurable elements can bind to a model node")


@dataclass(frozen=True)
class ControlObjective:
    id: str
    title: str
    elements: tuple[ControlElement, ...]

    def __init__(self, id: str, title: str, elements):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "elements",
                           tuple(sorted(elements, key=lambda e: e.id)))
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("objective id must be a non-empty string")
        if not self.elements:
            raise EmptyGoal(f"objective {id!r} has no control elements")


@dataclass(frozen=True)
class ControlGoal:
    id: str
    title: str
    objectives: tuple[ControlObjective, ...]

    def __init__(self, id: str, title: str, objectives):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "objectives",
                           tuple(sorted(objectives, key=lambda o: o.id)))
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("goal id must be a non-empty string")
        if not self.objectives:
            raise EmptyGoal(f"control goal {id!r} has no objectives")


@dataclass(frozen=True)
class RoadmapModel:
    """Validated goal hierarchy with a flat element index."""

    goals: tuple[ControlGoal, ...]

    def __init__(self, goals):
        object.__setattr__(self, "goals", tuple(sorted(goals, key=lambda g: g.id)))

    def elements(self) -> tuple[ControlElement, ...]:
        out = []
        for goal in self.goals:
            for objective in goal.objectives:
                out.extend(objective.elements)
        return tuple(sorted(out, key=lambda e: e.id))

    def element(self, element_id: str) -> ControlElement:
        for e in self.elements():
            if e.id == element_id:
                return e
        raise UnknownNode(f"no control element {element_id!r} in the roadmap")


def build_roadmap(goals) -> RoadmapModel:
    """Validate and normalize a goal hierarchy.

    All ids (goals, objectives, elements) share one namespace and must be
    unique; every goal needs at least one objective and every objective at
    least one element (enforced by the constructors).  Ordering is normalized
    to ascending id throughout, so equal content compares equal.
    """
    roadmap = RoadmapModel(goals)
    seen: set[str] = set()
    for goal in roadmap.goals:
        ids = [goal.id]
        for objective in goal.objectives:
            ids.append(objective.id)
            ids.extend(e.id for e in objective.elements)
        for entry in ids:
            if entry in seen:
                raise DuplicateId(f"id {entry!r} appears more than once in the roadmap")
            seen.add(entry)
    return roadmap


def classify_epistemic(element: ControlElement, has_data: bool) -> Epistemic:
    """Evidential only when measurable AND data exists; understanding otherwise.

    Measurability gates evidence: data attached to an unmeasurable statement
    cannot justify it.
    """
    if element.measurable and has_data:
        return Epistemic.EVIDENTIAL
    return Epistemic.UNDERSTANDING


# ------------------------------------------------------------------ tier gaps

@dataclass(frozen=True)
class TierGap:
    element_id: str
    current: str
    target: str
    steps: int
    path: tuple[str, ...]  # labels to move through, current excluded


def _tier_index(scale: tuple[str, ...], label: str, element_id: str) -> int:
    try:
        return scale.index(label)
    except ValueError:
        raise UnknownTierLabel(
            f"element {element_id!r}: label {label!r} not in scale {scale!r}") from None


def gap_report(roadmap: RoadmapModel, current, target,
               scale=DEFAULT_TIER_SCALE) -> tuple[TierGap, ...]:
    """Elements whose current tier lags the target, widest gap first.

    Both assignments must cover every element.  Each gap lists the tier steps
    required to reach the target.  Ordering: gap size descending, then id
    ascending -- the report doubles as a work queue.  An empty scale, or one
    that repeats a label, has no order and raises :class:`InvalidArgument`.
    """
    scale = tuple(scale)
    if not scale:
        raise InvalidArgument("tier scale is empty")
    for i, label in enumerate(scale):
        if label in scale[:i]:
            raise InvalidArgument(f"tier scale repeats label {label!r}")
    current, target = dict(current), dict(target)
    gaps = []
    for element in roadmap.elements():
        for name, assignment in (("current", current), ("target", target)):
            if element.id not in assignment:
                raise MissingAssignment(
                    f"{name} assignment lacks element {element.id!r}")
        ci = _tier_index(scale, current[element.id], element.id)
        ti = _tier_index(scale, target[element.id], element.id)
        if ci < ti:
            gaps.append(TierGap(element.id, scale[ci], scale[ti], ti - ci,
                                tuple(scale[ci + 1:ti + 1])))
    gaps.sort(key=lambda g: (-g.steps, g.element_id))
    return tuple(gaps)


# ------------------------------------------------------------- model binding

@dataclass(frozen=True)
class BoundRoadmap:
    """Roadmap with elements wired to model nodes; unbound measurables are
    the data gaps still requiring instrumentation."""

    roadmap: RoadmapModel
    bindings: dict
    data_gaps: tuple[str, ...]


def bind_elements(roadmap: RoadmapModel, model: BayesianModel, bindings) -> BoundRoadmap:
    """Attach measurable elements to model nodes.

    Bound elements become evidential (data now backs them); measurable
    elements left unbound are reported as data gaps.  Binding an unknown node
    raises :class:`UnknownNode`; binding an unmeasurable element raises
    :class:`NotMeasurable`.
    """
    bindings = dict(bindings)
    by_id = {e.id: e for e in roadmap.elements()}
    for element_id, node_id in sorted(bindings.items()):
        if element_id not in by_id:
            raise UnknownNode(f"no control element {element_id!r} in the roadmap")
        if not by_id[element_id].measurable:
            raise NotMeasurable(f"element {element_id!r} is not measurable")
        model.graph.node(node_id)  # raises UnknownNode

    def rebuild_element(e: ControlElement) -> ControlElement:
        if e.id in bindings:
            return replace(e, binding=bindings[e.id],
                           epistemic=classify_epistemic(e, has_data=True))
        return e

    goals = []
    for goal in roadmap.goals:
        objectives = []
        for objective in goal.objectives:
            objectives.append(ControlObjective(
                objective.id, objective.title,
                tuple(rebuild_element(e) for e in objective.elements)))
        goals.append(ControlGoal(goal.id, goal.title, tuple(objectives)))

    bound = RoadmapModel(goals)
    data_gaps = tuple(e.id for e in bound.elements()
                      if e.measurable and e.binding is None)
    return BoundRoadmap(bound, bindings, data_gaps)


def achievement_states(bound: BoundRoadmap, model: BayesianModel,
                       evidence=None) -> dict:
    """Posterior state distribution of every bound element's node.

    This is how a bound element's achievement is *read* rather than asserted:
    the node's posterior under current evidence is the element's state.
    """
    # Imported here: only this query needs the inference engine.
    from .inference import posterior_update

    posteriors = posterior_update(model, evidence or {})
    out: dict[str, Marginal] = {}
    for element in bound.roadmap.elements():
        if element.binding is not None:
            out[element.id] = posteriors[element.binding]
    return out
