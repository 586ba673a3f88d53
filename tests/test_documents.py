"""Model-document parsing, canonical serialization, evidence ingestion."""

from __future__ import annotations

import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotrisk.bundled import bundled_model_names, load_bundled_model, parse_roadmap_document
from iotrisk.documents import (
    EvidenceRecord,
    ModelDocument,
    TemporalSpec,
    ingest_evidence,
    parse_model,
    read_evidence,
    serialize_model,
)
from iotrisk.errors import (
    DocumentError,
    InvalidArgument,
    ModelSyntaxError,
    SchemaVersionMismatch,
    UnknownNode,
    UnknownState,
    ValidationFailed,
)
from iotrisk.model import BayesianModel

from conftest import make_chain2, random_model

MINIMAL = {
    "schema_version": 1,
    "nodes": [
        {"id": "A", "layer": "perception", "states": ["T", "F"]},
        {"id": "B", "layer": "network", "states": ["T", "F"]},
    ],
    "edges": [{"from": "A", "to": "B"}],
    "cpts": {
        "A": {"parents": [], "rows": [{"given": [], "p": [0.3, 0.7]}]},
        "B": {"parents": ["A"], "rows": [
            {"given": ["T"], "p": [0.9, 0.1]},
            {"given": ["F"], "p": [0.1, 0.9]}]},
    },
}


def doc_text(**overrides) -> str:
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return json.dumps(raw)


def json_paths(value, at=()):
    """The path of ``value`` and of every value inside it, as key tuples."""
    yield at
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from json_paths(child, at + (key,))


class TestParseModel:
    def test_minimal_document_parses(self):
        doc = parse_model(doc_text())
        assert doc.graph.node_ids == ("A", "B")
        assert doc.model.cpts["B"].rows[("T",)] == (0.9, 0.1)

    def test_bundled_layered_model_shape(self):
        doc = load_bundled_model("layered_iot")
        assert len(doc.graph.nodes) >= 9
        assert set(doc.graph.layers()) == {"perception", "network", "application"}

    def test_empty_document_is_a_syntax_error(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("")

    def test_non_object_root_is_a_syntax_error(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("[1, 2]")

    @pytest.mark.parametrize("parse", [parse_model, parse_roadmap_document])
    @pytest.mark.parametrize("text, message, line", [
        ('{"a": ', "not valid JSON: Expecting value (line 1, column 7)", 1),
        ("[1, 2]", "document root must be an object, got list", None),
    ])
    def test_json_errors_read_alike(self, parse, text, message, line):
        with pytest.raises(ModelSyntaxError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (message, line)

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(SchemaVersionMismatch):
            parse_model(doc_text(schema_version=99))

    @pytest.mark.parametrize("parse", [parse_model, parse_roadmap_document])
    def test_unknown_schema_version_reads_alike(self, parse):
        with pytest.raises(SchemaVersionMismatch) as err:
            parse('{"schema_version": 2}')
        assert str(err.value) == "schema_version 2 is not supported (this build reads 1)"

    def test_bad_row_sum_names_node_and_row(self):
        raw = json.loads(doc_text())
        raw["cpts"]["B"]["rows"][0]["p"] = [0.9, 0.09]
        with pytest.raises(ValidationFailed) as err:
            parse_model(json.dumps(raw))
        issue_paths = [path for path, _ in err.value.issues]
        assert any("$.cpts.B" in path for path in issue_paths)
        assert any("sums to" in msg for _, msg in err.value.issues)

    def test_multiple_issues_aggregated(self):
        raw = json.loads(doc_text())
        raw["edges"].append({"from": "B", "to": "A"})        # cycle
        raw["nodes"].append({"id": "C", "states": ["x"]})     # undersized domain
        with pytest.raises(ValidationFailed) as err:
            parse_model(json.dumps(raw))
        messages = " | ".join(msg for _, msg in err.value.issues)
        assert "cycle" in messages
        assert "state" in messages

    def test_catalogue_for_node_with_cpt_rejected(self):
        raw = json.loads(doc_text())
        raw["catalogues"] = {"A": {"prior": [0.5, 0.5]}}
        with pytest.raises(ValidationFailed):
            parse_model(json.dumps(raw))

    def test_binding_to_unmeasurable_element_rejected(self):
        raw = json.loads(doc_text())
        raw["roadmap"] = {"goals": [{"id": "g1", "title": "g", "objectives": [
            {"id": "o1", "title": "o", "elements": [
                {"id": "e1", "title": "e", "measurable": False}]}]}]}
        raw["bindings"] = {"e1": "A"}
        with pytest.raises(ValidationFailed) as err:
            parse_model(json.dumps(raw))
        assert any("not measurable" in msg for _, msg in err.value.issues)

    def test_binding_to_unknown_element_rejected(self):
        raw = json.loads(doc_text())
        raw["roadmap"] = {"goals": [{"id": "g1", "title": "g", "objectives": [
            {"id": "o1", "title": "o", "elements": [
                {"id": "e1", "title": "e", "measurable": True}]}]}]}
        raw["bindings"] = {"e1": "A", "e9": "A"}
        with pytest.raises(ValidationFailed) as err:
            parse_model(json.dumps(raw))
        assert err.value.issues == [("$.bindings.e9", "no control element 'e9' in the roadmap")]

    @pytest.mark.parametrize("patch,where", [
        (lambda raw: raw["edges"][0].update({"from": ["A"]}), "$.edges[0].from"),
        (lambda raw: raw["edges"][0].update({"to": True}), "$.edges[0].to"),
        (lambda raw: raw["nodes"][0].update({"layer": 3}), "$.nodes[0].layer"),
        (lambda raw: raw["nodes"][1].update({"description": []}), "$.nodes[1].description"),
        (lambda raw: raw.update({"roadmap": {"goals": [{"id": 7, "objectives": [
            {"id": "o1", "elements": [{"id": "e1"}]}]}]}}), "$.roadmap.goals[0].id"),
        # A list label would reach StateDomain, whose set() cannot hash it.
        (lambda raw: raw["nodes"][0].update({"states": ["a", ["b"]]}), "$.nodes[0].states"),
        # Flags are JSON booleans, and booleans are not probabilities.
        (lambda raw: raw["nodes"][0].update({"service_goal": "no"}), "$.nodes[0].service_goal"),
        (lambda raw: raw["nodes"][1].update({"service_goal": 1}), "$.nodes[1].service_goal"),
        (lambda raw: raw.update({"roadmap": {"goals": [{"id": "g1", "objectives": [
            {"id": "o1", "elements": [{"id": "e1", "measurable": "yes"}]}]}]}}),
         "$.roadmap.goals[0].objectives[0].elements[0].measurable"),
        (lambda raw: raw["cpts"]["A"]["rows"][0].update({"p": [True, False]}),
         "$.cpts.A.rows[0].p"),
        (lambda raw: raw.update({"cpts": {"B": raw["cpts"]["B"]},
                                 "catalogues": {"A": {"prior": [False, True]}}}),
         "$.catalogues.A.prior"),
    ])
    def test_mistyped_ids_and_labels_are_located_issues(self, patch, where):
        raw = json.loads(doc_text())
        patch(raw)
        with pytest.raises(ValidationFailed) as err:
            parse_model(json.dumps(raw))
        assert [path for path, _ in err.value.issues] == [where]

    def test_integers_are_probabilities(self):
        # JSON true and false are not (see the mistyped cases above), but
        # the integers 0 and 1 are.
        raw = json.loads(doc_text())
        raw["cpts"]["A"]["rows"][0]["p"] = [1, 0]
        raw["catalogues"] = {"B": {"prior": [0, 1]}}
        raw["cpts"].pop("B")
        doc = parse_model(json.dumps(raw))
        assert doc.cpts["A"].rows[()] == (1.0, 0.0)
        assert doc.catalogues["B"].prior == (0.0, 1.0)

    @pytest.mark.parametrize("roadmap,issue", [
        ({"goals": [["g1"]]}, ("$.roadmap.goals[0]", "expected dict, got list")),
        ({"goals": [{"id": "g1", "objectives": "o1"}]},
         ("$.roadmap.goals[0].objectives", "expected list, got str")),
        ({"goals": [{"id": "g1", "objectives": [{"id": "o1", "elements": [{"id": "e1"}]},
                                                7]}]},
         ("$.roadmap.goals[0].objectives[1]", "expected dict, got int")),
        ({"goals": [{"id": "g1", "objectives": [{"id": "o1", "elements": ["e1"]}]}]},
         ("$.roadmap.goals[0].objectives[0].elements[0]", "expected dict, got str")),
        ({"goals": [{"objectives": [{"id": "o1", "elements": [{"id": "e1"}]}]}]},
         ("$.roadmap.goals[0]", "missing required key 'id'")),
        ({"goals": [{"id": "g1", "objectives": [{"id": "o1", "elements": [
            {"id": "e1", "title": 7}]}]}]},
         ("$.roadmap.goals[0].objectives[0].elements[0].title", "expected str, got int")),
        ({"goals": [{"id": "g1", "objectives": [{"id": "o1", "elements": [
            {"id": "e1", "epistemic": "nope"}]}]}]},
         ("$.roadmap.goals[0].objectives[0].elements[0].epistemic",
          "unknown epistemic status 'nope'")),
        ({"goals": [{"id": "g1", "objectives": [{"id": "o1", "elements": [
            {"id": "e1", "notes": []}]}]}]},
         ("$.roadmap.goals[0].objectives[0].elements[0].notes", "expected str, got list")),
        ({"goals": [{"id": "g1", "objectives": [{"id": "o1", "elements": []}]}]},
         ("$.roadmap.goals[0].objectives[0]", "objective 'o1' has no control elements")),
    ], ids=["goal", "objectives", "objective", "element", "goal id", "element title",
            "element epistemic", "element notes", "objective elements"])
    def test_malformed_roadmap_entries_are_located(self, roadmap, issue):
        raw = json.loads(doc_text())
        raw["roadmap"] = roadmap
        with pytest.raises(ValidationFailed) as err:
            parse_model(json.dumps(raw))
        assert err.value.issues == [issue]
        text = json.dumps({"schema_version": 1, "sections": [{"key": "k", **roadmap}]})
        with pytest.raises(ValidationFailed) as err:
            parse_roadmap_document(text, "k")
        assert err.value.issues == [(issue[0].replace("$.roadmap", "$.sections[k]"), issue[1])]

    def test_malformed_roadmap_section_is_located(self):
        with pytest.raises(ValidationFailed) as err:
            parse_roadmap_document('{"schema_version": 1, "sections": [{"key": "k"}, 7]}', "k")
        assert err.value.issues == [("$.sections[1]", "expected dict, got int")]

    def test_roadmap_sections_that_are_not_a_list_are_located(self):
        with pytest.raises(ValidationFailed) as err:
            parse_roadmap_document('{"schema_version": 1, "sections": 7}', "k")
        assert err.value.issues == [("$.sections", "expected list, got int")]

    def test_a_fault_in_the_library_is_not_a_document_issue(self, monkeypatch):
        from iotrisk import roadmap

        def broken(goals):
            raise RuntimeError("broken")

        monkeypatch.setattr(roadmap, "build_roadmap", broken)
        raw = json.loads(doc_text())
        raw["roadmap"] = {"goals": [{"id": "g1", "objectives": [
            {"id": "o1", "elements": [{"id": "e1"}]}]}]}
        with pytest.raises(RuntimeError, match="broken"):
            parse_model(json.dumps(raw))

    @pytest.mark.parametrize("name", ["smart_home", "uncontrolled_sensor"])
    def test_any_one_value_replaced_is_a_document_error(self, name):
        # Between them the two documents hold every section.  Each value, the
        # root too, is replaced in turn by each of a few JSON values.
        holder = [json.loads(resources.files("iotrisk.data").joinpath(f"{name}.json")
                             .read_text(encoding="utf-8"))]
        escaped, reprs = [], []
        for at in list(json_paths(holder[0], (0,))):
            parent = holder
            for key in at[:-1]:
                parent = parent[key]
            original = parent[at[-1]]
            for value in (None, True, 7, "x", [], {}, ["x"]):
                parent[at[-1]] = value
                try:
                    parse_model(json.dumps(holder[0]))
                except ValidationFailed as exc:
                    reprs += [(at, value, issue) for issue in exc.issues if "Error(" in issue[1]]
                except DocumentError:
                    pass
                except Exception as exc:
                    escaped.append((at, value, repr(exc)))
            parent[at[-1]] = original
        assert (escaped, reprs) == ([], [])

    def test_temporal_target_without_transition_table_rejected(self):
        raw = json.loads(doc_text())
        raw["temporal"] = {"edges": [{"from": "A", "to": "A"}], "transition_cpts": {}}
        with pytest.raises(ValidationFailed) as err:
            parse_model(json.dumps(raw))
        assert any("transition table" in msg for _, msg in err.value.issues)
        # A document built directly, not parsed, is held to the same check.
        doc = parse_model(doc_text())
        direct = ModelDocument(doc.graph, doc.cpts,
                               temporal=TemporalSpec((("A", "A"), ("B", "A")), {}, {}))
        with pytest.raises(ValidationFailed) as err:
            direct.temporal_model()
        assert err.value.issues == [("$.temporal.transition_cpts.A",
                                     "temporal target 'A' has no transition table")]


class TestRoundTrip:
    def test_bundled_models_round_trip(self):
        for name in bundled_model_names():
            doc = load_bundled_model(name)
            again = parse_model(serialize_model(doc))
            assert again == doc
            assert serialize_model(again) == serialize_model(doc)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_models_round_trip(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, max_nodes=7, max_joint=2 ** 10)
        doc = ModelDocument(graph=model.graph, cpts=model.cpts)
        assert parse_model(serialize_model(doc)) == doc

    def test_serialization_is_byte_stable(self):
        doc = load_bundled_model("smart_home")
        assert serialize_model(doc) == serialize_model(doc)

    def test_state_order_preserved_exactly(self):
        doc = parse_model(doc_text())
        text = serialize_model(doc)
        again = parse_model(text)
        assert tuple(again.graph.node("A").domain) == ("T", "F")


class TestBuiltModels:
    """A document builds each of its models once and keeps it."""

    def test_models_are_kept_on_the_document(self):
        doc = load_bundled_model("smart_home")
        assert doc.model is doc.model
        assert doc.completed_model() is doc.completed_model()
        assert doc.temporal_model() is doc.temporal_model()

    def test_parse_model_hands_over_its_validated_model(self, monkeypatch):
        built = []
        init = BayesianModel.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BayesianModel, "__init__", counted)
        doc = parse_model(doc_text())
        assert doc.model is built[0]
        assert len(built) == 1


class TestEvidence:
    def model(self):
        return make_chain2()

    def test_single_record_lands_in_slice_zero(self):
        series = ingest_evidence([EvidenceRecord(1_000_000, "A", "T")], bucket_ms=500)
        assert list(series) == [(0, "A", "T")]

    def test_bucket_width_splits_slices(self):
        records = [EvidenceRecord(0, "A", "T"), EvidenceRecord(500, "B", "F")]
        series = ingest_evidence(records, bucket_ms=500)
        assert list(series) == [(0, "A", "T"), (1, "B", "F")]

    def test_conflict_resolved_latest_wins_with_warning(self, caplog):
        records = [EvidenceRecord(10, "A", "T"), EvidenceRecord(20, "A", "F")]
        with caplog.at_level("WARNING"):
            series = ingest_evidence(records, bucket_ms=1000)
        assert list(series) == [(0, "A", "F")]
        assert any("conflicting observations" in r.message for r in caplog.records)

    def test_ndjson_reader_validates_against_model(self):
        text = '{"ts": 0, "node": "A", "state": "T"}\n{"ts": 5, "node": "B", "state": "F"}\n'
        records = read_evidence(text, self.model())
        assert records == (EvidenceRecord(0, "A", "T"), EvidenceRecord(5, "B", "F"))
        with pytest.raises(UnknownNode):
            read_evidence('{"ts": 0, "node": "Z", "state": "T"}', self.model())
        with pytest.raises(UnknownState):
            read_evidence('{"ts": 0, "node": "A", "state": "blue"}', self.model())

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ModelSyntaxError) as err:
            read_evidence('{"ts": 0, "node": "A", "state": "T"}\nnot json\n', self.model())
        assert err.value.line == 2

    def test_custom_origin_and_negative_guard(self):
        records = [EvidenceRecord(1000, "A", "T")]
        series = ingest_evidence(records, bucket_ms=100, t0=500)
        assert list(series) == [(5, "A", "T")]
        with pytest.raises(ValueError):
            ingest_evidence(records, bucket_ms=100, t0=2000)

    def test_zero_bucket_rejected(self):
        with pytest.raises(ValueError):
            ingest_evidence([], bucket_ms=0)

    @pytest.mark.parametrize("bucket_ms,t0", [(0, None), (-1, None), (100, 2000)])
    def test_bad_arguments_are_package_errors(self, bucket_ms, t0):
        with pytest.raises(InvalidArgument):
            ingest_evidence([EvidenceRecord(1000, "A", "T")], bucket_ms=bucket_ms, t0=t0)
