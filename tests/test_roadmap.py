"""Roadmap hierarchy, epistemic classification, tier gaps, model binding."""

from __future__ import annotations

import pytest

from iotrisk.bundled import (
    load_bundled_model,
    load_bundled_roadmap,
    parse_roadmap_document,
    roadmap_section_keys,
)
from iotrisk.errors import (
    DocumentError,
    DuplicateId,
    EmptyGoal,
    InvalidArgument,
    MissingAssignment,
    NotMeasurable,
    UnknownNode,
    UnknownTierLabel,
)
from iotrisk.graph import ComponentNode, DependencyGraph, StateDomain
from iotrisk.model import BayesianModel, Cpt
from iotrisk.roadmap import (
    DEFAULT_TIER_SCALE,
    ControlElement,
    ControlGoal,
    ControlObjective,
    Epistemic,
    achievement_states,
    bind_elements,
    build_roadmap,
    classify_epistemic,
    gap_report,
)


def element(eid: str, measurable: bool = True) -> ControlElement:
    return ControlElement(eid, f"element {eid}", measurable=measurable)


def goal(gid: str, element_ids) -> ControlGoal:
    return ControlGoal(gid, f"goal {gid}", [
        ControlObjective(f"{gid}-o1", f"objective of {gid}",
                         [element(eid) for eid in element_ids])])


class TestBuildRoadmap:
    def test_bundled_training_section_is_three_goals(self):
        roadmap = load_bundled_roadmap()
        assert len(roadmap.goals) == 3
        assert all(len(g.objectives) == 1 for g in roadmap.goals)
        assert all(len(o.elements) == 1
                   for g in roadmap.goals for o in g.objectives)

    def test_all_sections_combine(self):
        combined = load_bundled_roadmap(section=None)
        assert len(combined.goals) == 7
        assert set(roadmap_section_keys()) == {
            "training-and-awareness", "cyber-threat-intelligence",
            "security-event-monitoring"}

    @pytest.mark.parametrize("text", [
        '[1]',
        '{"schema_version": 1, "sections": [1]}',
        '{"schema_version": 1, "sections": [{"goals": []}, {"key": "a", "goals": []}]}',
        '{"schema_version": 1, "sections": [{"key": ["x"], "goals": []}]}',
    ])
    def test_malformed_dataset_is_document_error(self, text):
        with pytest.raises(DocumentError):
            parse_roadmap_document(text)

    def test_goal_without_objectives_rejected(self):
        with pytest.raises(EmptyGoal):
            ControlGoal("g1", "bare goal", [])

    def test_objective_without_elements_rejected(self):
        with pytest.raises(EmptyGoal):
            ControlObjective("o1", "bare objective", [])

    def test_duplicate_element_id_across_goals_rejected(self):
        with pytest.raises(DuplicateId):
            build_roadmap([goal("g1", ["shared"]), goal("g2", ["shared"])])

    def test_ordering_normalized_by_id(self):
        roadmap = build_roadmap([goal("g2", ["e2"]), goal("g1", ["e1"])])
        assert [g.id for g in roadmap.goals] == ["g1", "g2"]
        assert [e.id for e in roadmap.elements()] == ["e1", "e2"]


class TestClassifyEpistemic:
    @pytest.mark.parametrize("measurable,has_data,expected", [
        (True, True, Epistemic.EVIDENTIAL),
        (True, False, Epistemic.UNDERSTANDING),
        (False, True, Epistemic.UNDERSTANDING),   # measurability gates evidence
        (False, False, Epistemic.UNDERSTANDING),
    ])
    def test_exhaustive_truth_table(self, measurable, has_data, expected):
        el = element("e1", measurable=measurable)
        assert classify_epistemic(el, has_data) is expected

    def test_evidential_requires_measurable_at_construction(self):
        with pytest.raises(NotMeasurable):
            ControlElement("e1", "x", measurable=False, epistemic=Epistemic.EVIDENTIAL)


class TestGapReport:
    def roadmap(self):
        return build_roadmap([goal("g1", ["e1", "e2", "e3"])])

    def test_no_gap_when_current_meets_target(self):
        rm = self.roadmap()
        tiers = {eid: "Implemented" for eid in ("e1", "e2", "e3")}
        assert gap_report(rm, tiers, tiers) == ()

    def test_widest_gap_listed_first_with_steps(self):
        rm = self.roadmap()
        current = {"e1": "Understood", "e2": "NotImplemented", "e3": "Implemented"}
        target = {"e1": "Implemented", "e2": "Evidenced", "e3": "Implemented"}
        gaps = gap_report(rm, current, target)
        assert [g.element_id for g in gaps] == ["e2", "e1"]
        assert gaps[0].steps == 3
        assert gaps[0].path == ("Understood", "Implemented", "Evidenced")
        assert gaps[1].steps == 1

    def test_equal_gaps_order_by_id(self):
        rm = self.roadmap()
        current = {"e1": "NotImplemented", "e2": "NotImplemented", "e3": "NotImplemented"}
        target = {"e1": "Understood", "e2": "Understood", "e3": "Understood"}
        gaps = gap_report(rm, current, target)
        assert [g.element_id for g in gaps] == ["e1", "e2", "e3"]

    def test_regression_is_not_a_gap(self):
        rm = self.roadmap()
        current = {"e1": "Evidenced", "e2": "Evidenced", "e3": "Evidenced"}
        target = {"e1": "Understood", "e2": "Understood", "e3": "Understood"}
        assert gap_report(rm, current, target) == ()

    def test_missing_assignment_rejected(self):
        rm = self.roadmap()
        full = {eid: "Understood" for eid in ("e1", "e2", "e3")}
        with pytest.raises(MissingAssignment):
            gap_report(rm, {"e1": "Understood"}, full)
        with pytest.raises(MissingAssignment):
            gap_report(rm, full, {"e1": "Understood"})

    def test_unknown_label_rejected(self):
        rm = self.roadmap()
        full = {eid: "Understood" for eid in ("e1", "e2", "e3")}
        bad = dict(full, e2="Transcendent")
        with pytest.raises(UnknownTierLabel):
            gap_report(rm, bad, full)

    def test_custom_scale(self):
        rm = build_roadmap([goal("g1", ["e1"])])
        gaps = gap_report(rm, {"e1": "bronze"}, {"e1": "gold"},
                          scale=("bronze", "silver", "gold"))
        assert gaps[0].steps == 2
        assert gaps[0].path == ("silver", "gold")

    @pytest.mark.parametrize("scale, message", [
        ((), "tier scale is empty"),
        (("NotImplemented", "Understood", "NotImplemented", "Implemented", "Evidenced"),
         "tier scale repeats label 'NotImplemented'"),
        (("bronze", "gold", "gold"), "tier scale repeats label 'gold'"),
    ])
    def test_scale_without_an_order_rejected(self, scale, message):
        # A repeated label used to give a path that moves backwards:
        # Understood -> NotImplemented -> Implemented -> Evidenced.
        rm = self.roadmap()
        current = {"e1": "Understood", "e2": "bronze", "e3": "bronze"}
        target = {"e1": "Evidenced", "e2": "gold", "e3": "gold"}
        with pytest.raises(InvalidArgument) as err:
            gap_report(rm, current, target, scale)
        assert str(err.value) == message

    def test_empty_iff_current_meets_target_elementwise(self):
        rm = self.roadmap()
        scale = DEFAULT_TIER_SCALE
        import itertools
        for combo in itertools.product(range(len(scale)), repeat=3):
            current = {f"e{i+1}": scale[c] for i, c in enumerate(combo)}
            target = {"e1": scale[1], "e2": scale[2], "e3": scale[0]}
            gaps = gap_report(rm, current, target)
            expected_empty = all(
                combo[i] >= scale.index(target[f"e{i+1}"]) for i in range(3))
            assert (gaps == ()) == expected_empty


class TestBinding:
    def model(self):
        domain = StateDomain(["achieved", "missed"])
        graph = DependencyGraph([ComponentNode("ctrl", "application", domain)], [])
        return BayesianModel(graph, {"ctrl": Cpt.prior("ctrl", (0.9, 0.1))})

    def test_bound_element_reads_achievement_posterior(self):
        rm = build_roadmap([goal("g1", ["e1"])])
        bound = bind_elements(rm, self.model(), {"e1": "ctrl"})
        states = achievement_states(bound, self.model())
        assert states["e1"].p("achieved") == pytest.approx(0.9, abs=1e-12)
        assert bound.roadmap.element("e1").epistemic is Epistemic.EVIDENTIAL

    def test_unknown_node_rejected(self):
        rm = build_roadmap([goal("g1", ["e1"])])
        with pytest.raises(UnknownNode):
            bind_elements(rm, self.model(), {"e1": "ghost"})

    def test_unmeasurable_element_rejected(self):
        rm = build_roadmap([ControlGoal("g1", "goal", [
            ControlObjective("o1", "objective",
                             [ControlElement("e1", "soft statement", measurable=False)])])])
        with pytest.raises(NotMeasurable):
            bind_elements(rm, self.model(), {"e1": "ctrl"})

    def test_empty_bindings_flag_all_measurable_as_gaps(self):
        rm = build_roadmap([goal("g1", ["e1", "e2"])])
        bound = bind_elements(rm, self.model(), {})
        assert bound.data_gaps == ("e1", "e2")

    def test_bundled_smart_home_binding(self):
        doc = load_bundled_model("smart_home")
        bound = bind_elements(doc.roadmap, doc.model, doc.bindings)
        states = achievement_states(bound, doc.model)
        assert "sh-g1-o1-e1" in states
        assert states["sh-g1-o1-e1"].node == "alarm_service"
        # the unmeasurable walk-test element is not a data gap, only
        # measurable-but-unbound elements are
        assert bound.data_gaps == ()
