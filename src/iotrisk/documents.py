"""Model documents: the on-disk JSON format and evidence-stream ingestion.

One document carries everything an analysis needs: the dependency graph, the
CPTs, state catalogues for uncontrollable nodes, optional temporal structure,
an optional roadmap, and element->node bindings.  The format is versioned
(``schema_version``) and strict: unknown versions are rejected, and semantic
problems are aggregated into a single :class:`ValidationFailed` whose issues
carry JSON-pointer-ish paths (``$.cpts.B.rows[0]``) so a bad file can be fixed
in one pass.

``parse_model(serialize_model(doc)) == doc`` holds for every valid document;
serialization is canonical (sorted keys, fixed float repr), so equal documents
produce byte-identical text.

Evidence streams are newline-delimited JSON records
``{"ts": <epoch ms>, "node": ..., "state": ...}``; :func:`ingest_evidence`
buckets them onto the discrete slice axis used by the temporal queries.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    InvalidArgument,
    InvalidDistribution,
    IotRiskError,
    ModelSyntaxError,
    SchemaVersionMismatch,
    UnknownNode,
    UnknownState,
    ValidationFailed,
)
from .graph import ComponentNode, DependencyGraph, InfluenceEdge, StateDomain, _check_states
from .model import BayesianModel, Cpt, _check_int, _is_int
from .temporal import (
    DEFAULT_MAX_HORIZON,
    ObservationSeries,
    SliceTemplate,
    TemporalEdge,
    TemporalModel,
    _max_horizon_issues,
)
from .uncontrollable import CatalogueSource, StateCatalogue, complete_model

if TYPE_CHECKING:
    from .roadmap import RoadmapModel

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TemporalSpec:
    """Raw temporal section: edge pairs plus the tables, as stored on disk."""

    edges: tuple              # ((source, target), ...)
    transition_cpts: dict     # target -> Cpt
    initial_cpts: dict        # target -> Cpt
    max_horizon: int = DEFAULT_MAX_HORIZON


@dataclass(frozen=True)
class ModelDocument:
    """Everything a model file carries, validated and ready to query.

    The models built from it (:attr:`model`, :meth:`completed_model`,
    :meth:`temporal_model`) are built once and kept on the document.
    """

    graph: DependencyGraph
    cpts: dict
    catalogues: dict = field(default_factory=dict)
    temporal: TemporalSpec | None = None
    roadmap: RoadmapModel | None = None
    bindings: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @cached_property
    def model(self) -> BayesianModel:
        return BayesianModel(self.graph, self.cpts)

    def completed_model(self) -> BayesianModel:
        """The model with catalogue-backed CPTs substituted for gaps."""
        return self._completed_model

    def temporal_model(self) -> TemporalModel:
        """The unrollable temporal model built from the raw spec.

        The slice template must be fully specified; declared catalogues fill
        uncontrollable nodes first.
        """
        return self._temporal_model

    @cached_property
    def _completed_model(self) -> BayesianModel:
        return complete_model(self.model, self.catalogues)

    @cached_property
    def _temporal_model(self) -> TemporalModel:
        if self.temporal is None:
            raise ValidationFailed([("$.temporal", "document has no temporal section")])
        issues = _untabled_target_issues(self.temporal.edges, self.temporal.transition_cpts)
        if issues:
            raise ValidationFailed(issues)
        template = SliceTemplate(self.completed_model())
        edges = [TemporalEdge(src, tgt, self.temporal.transition_cpts[tgt])
                 for src, tgt in self.temporal.edges]
        return TemporalModel(template, edges, self.temporal.initial_cpts,
                             self.temporal.max_horizon)


def _untabled_target_issues(edges, transition_cpts: dict) -> list:
    """One issue per temporal target among ``edges`` without a transition table."""
    return [(f"$.temporal.transition_cpts.{tgt}",
             f"temporal target {tgt!r} has no transition table")
            for tgt in sorted({tgt for _, tgt in edges if tgt not in transition_cpts})]


# -------------------------------------------------------------------- parsing

def _take(obj, key, kind, path, issues, default=None, required=False):
    if key not in obj:
        if required:
            issues.append((path, f"missing required key {key!r}"))
        return default
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        issues.append((f"{path}.{key}" if path else f"$.{key}",
                       f"expected {names}, got {type(value).__name__}"))
        return default
    return value


def _probabilities(value) -> bool:
    """True for a list of JSON numbers.  ``true`` and ``false`` are not
    numbers here, by the rule :func:`~iotrisk.model._is_int` applies to counts."""
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)


def _expect(value, kind: type, path: str):
    """``value`` if it is a ``kind``, else ValidationFailed locating it at ``path``."""
    if not isinstance(value, kind):
        raise ValidationFailed([(path, f"expected {kind.__name__}, got {type(value).__name__}")])
    return value


def _objects(obj: dict, key: str, path: str) -> list:
    """``(path, entry)`` for each entry of the list ``obj[key]``, none if
    ``key`` is missing, each checked by :func:`_expect` to be a dict."""
    path = f"{path}.{key}"
    return [(f"{path}[{i}]", _expect(entry, dict, f"{path}[{i}]"))
            for i, entry in enumerate(_expect(obj.get(key, []), list, path))]


def _parse_cpt(node_id, raw, path, issues) -> Cpt | None:
    if not isinstance(raw, dict):
        issues.append((path, f"expected object, got {type(raw).__name__}"))
        return None
    parents = raw.get("parents", [])
    rows_raw = raw.get("rows")
    if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
        issues.append((f"{path}.parents", "expected a list of node ids"))
        return None
    if not isinstance(rows_raw, list):
        issues.append((f"{path}.rows", "expected a list of row objects"))
        return None
    rows = {}
    for i, row in enumerate(rows_raw):
        row_path = f"{path}.rows[{i}]"
        if not isinstance(row, dict) or "given" not in row or "p" not in row:
            issues.append((row_path, 'rows need "given" (parent states) and "p" (distribution)'))
            return None
        given, p = row["given"], row["p"]
        if not isinstance(given, list) or not all(isinstance(s, str) for s in given):
            issues.append((f"{row_path}.given", "expected a list of state labels"))
            return None
        if not _probabilities(p):
            issues.append((f"{row_path}.p", "expected a list of probabilities"))
            return None
        key = tuple(given)
        if key in rows:
            issues.append((row_path, f"duplicate row for parent states {key!r}"))
            return None
        rows[key] = tuple(float(x) for x in p)
    try:
        return Cpt(node_id, tuple(parents), rows)
    except InvalidDistribution as exc:
        issues.append((path, str(exc)))
        return None


def _parse_cpts(obj, key, path, issues) -> dict:
    """The CPTs of section ``obj[key]`` by node id; each bad one is left out
    and its issues recorded at ``{path}.{key}.<node id>``."""
    cpts = {}
    for node_id, raw_cpt in sorted(_take(obj, key, dict, path, issues, default={}).items()):
        cpt = _parse_cpt(node_id, raw_cpt, f"{path}.{key}.{node_id}", issues)
        if cpt is not None:
            cpts[node_id] = cpt
    return cpts


def _parse_roadmap(raw, path, issues) -> RoadmapModel | None:
    """The roadmap of the section ``raw``, or None with its issue recorded: a
    mistyped entry or ``measurable`` flag at its own path, else at ``path``."""
    # Imported here: only a document with a roadmap needs the module.
    from .roadmap import ControlElement, ControlGoal, ControlObjective, Epistemic, build_roadmap

    if _take(raw, "goals", list, path, issues, required=True) is None:
        return None
    try:
        goals = []
        for goal_path, g in _objects(raw, "goals", path):
            objectives = []
            for objective_path, o in _objects(g, "objectives", goal_path):
                elements = []
                for element_path, e in _objects(o, "elements", objective_path):
                    measurable = _expect(e.get("measurable", False), bool,
                                         f"{element_path}.measurable")
                    elements.append(ControlElement(
                        id=e["id"], title=e.get("title", ""), measurable=measurable,
                        epistemic=Epistemic(e.get("epistemic", "understanding")),
                        notes=e.get("notes", "")))
                objectives.append(ControlObjective(o["id"], o.get("title", ""), elements))
            goals.append(ControlGoal(g["id"], g.get("title", ""), objectives))
        return build_roadmap(goals)
    except ValidationFailed as exc:
        issues.extend(exc.issues)
    except (KeyError, TypeError, ValueError) as exc:
        issues.append((path, f"malformed roadmap: {exc!r}"))
    except IotRiskError as exc:  # DuplicateId, EmptyGoal, NotMeasurable
        issues.append((path, str(exc)))
    return None


def _json_object(text: str, prefix: str = "", not_object: str | None = None) -> dict:
    """``text`` parsed as JSON whose root is an object.

    Malformed JSON, or a root of another type, raises
    :class:`ModelSyntaxError` with a message that starts with ``prefix``;
    ``not_object`` replaces the message for a root that is not an object.
    """
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(f"{prefix}not valid JSON: {exc.msg} (line {exc.lineno}, "
                               f"column {exc.colno})", exc.lineno, exc.colno) from None
    if not isinstance(value, dict):
        what = not_object or f"document root must be an object, got {type(value).__name__}"
        raise ModelSyntaxError(prefix + what)
    return value


def parse_model(text: str) -> ModelDocument:
    """Parse and fully validate a model document.

    Raises :class:`ModelSyntaxError` for malformed JSON,
    :class:`SchemaVersionMismatch` for unknown versions, and
    :class:`ValidationFailed` with every located issue otherwise.  Each
    binding's control element is looked up by
    :meth:`~iotrisk.roadmap.RoadmapModel.element`; one the roadmap lacks is
    the issue that lookup's :class:`UnknownNode` names.
    """
    raw = _json_object(text)
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema_version {version!r} is not supported (this build reads "
            f"{SCHEMA_VERSION})")

    issues: list[tuple[str, str]] = []

    # ---- nodes & edges
    nodes = []
    for i, n in enumerate(_take(raw, "nodes", list, "$", issues, default=[], required=True) or []):
        path = f"$.nodes[{i}]"
        if not isinstance(n, dict):
            issues.append((path, "expected a node object"))
            continue
        nid = n.get("id")
        states = n.get("states")
        if not isinstance(nid, str) or not nid:
            issues.append((path, "node needs a non-empty string id"))
            continue
        if (not isinstance(states, list) or not states
                or not all(isinstance(s, str) for s in states)):
            issues.append((f"{path}.states", "expected a non-empty list of state labels"))
            continue
        layer, description = n.get("layer", "custom"), n.get("description", "")
        if not isinstance(layer, str) or not isinstance(description, str):
            issues.append((path, "layer and description must be strings"))
            continue
        service_goal = _take(n, "service_goal", bool, path, issues, default=False)
        try:
            nodes.append(ComponentNode(
                id=nid, layer=layer,
                domain=StateDomain(states),
                is_service_goal=service_goal,
                description=description))
        except ValueError as exc:
            issues.append((path, str(exc)))

    edges = []
    for i, e in enumerate(_take(raw, "edges", list, "$", issues, default=[]) or []):
        path = f"$.edges[{i}]"
        if not isinstance(e, dict) or "from" not in e or "to" not in e:
            issues.append((path, 'expected {"from": ..., "to": ...}'))
            continue
        if not isinstance(e["from"], str) or not isinstance(e["to"], str):
            issues.append((path, "edge endpoints must be node id strings"))
            continue
        try:
            edges.append(InfluenceEdge(e["from"], e["to"]))
        except ValueError as exc:
            issues.append((path, str(exc)))

    graph = DependencyGraph(nodes, edges)

    # ---- CPTs
    cpts = _parse_cpts(raw, "cpts", "$", issues)

    model = None
    if not issues:
        try:
            model = BayesianModel(graph, cpts)
        except ValidationFailed as exc:
            issues.extend(exc.issues)

    # ---- catalogues
    catalogues = {}
    for node_id, raw_cat in sorted((_take(raw, "catalogues", dict, "$", issues, default={}) or {}).items()):
        path = f"$.catalogues.{node_id}"
        if node_id not in graph:
            issues.append((path, f"catalogue for unknown node {node_id!r}"))
            continue
        if node_id in cpts:
            issues.append((path, f"node {node_id!r} has a CPT; a catalogue is only "
                                 "for uncontrollable nodes"))
            continue
        prior = raw_cat.get("prior") if isinstance(raw_cat, dict) else None
        if not _probabilities(prior):
            issues.append((f"{path}.prior", "expected a list of probabilities"))
            continue
        if len(prior) != len(graph.node(node_id).domain):
            issues.append((f"{path}.prior",
                           f"{len(prior)} entries for a "
                           f"{len(graph.node(node_id).domain)}-state domain"))
            continue
        try:
            source = CatalogueSource(raw_cat.get("source", "declared"))
            catalogues[node_id] = StateCatalogue(node_id, tuple(float(x) for x in prior),
                                                 source)
        except InvalidDistribution as exc:
            issues.append((path, str(exc)))
        except ValueError:
            issues.append((f"{path}.source",
                           f"unknown catalogue source {raw_cat.get('source')!r}"))

    # ---- temporal
    temporal = None
    raw_temporal = _take(raw, "temporal", dict, "$", issues, default=None)
    if raw_temporal is not None:
        tedges = []
        for i, e in enumerate(_take(raw_temporal, "edges", list, "$.temporal", issues,
                                    default=[])):
            path = f"$.temporal.edges[{i}]"
            if not isinstance(e, dict) or not isinstance(e.get("from"), str) \
                    or not isinstance(e.get("to"), str):
                issues.append((path, 'expected {"from": ..., "to": ...}'))
                continue
            tedges.append((e["from"], e["to"]))
        transition_cpts = _parse_cpts(raw_temporal, "transition_cpts", "$.temporal", issues)
        initial_cpts = _parse_cpts(raw_temporal, "initial_cpts", "$.temporal", issues)
        issues.extend(_untabled_target_issues(tedges, transition_cpts))
        max_horizon = raw_temporal.get("max_horizon", DEFAULT_MAX_HORIZON)
        issues.extend(_max_horizon_issues(max_horizon))
        temporal = TemporalSpec(tuple(sorted(set(tedges))), transition_cpts, initial_cpts,
                                max_horizon)

    # ---- roadmap & bindings
    roadmap = None
    raw_roadmap = _take(raw, "roadmap", dict, "$", issues, default=None)
    if raw_roadmap is not None:
        roadmap = _parse_roadmap(raw_roadmap, "$.roadmap", issues)

    bindings = {}
    for element_id, node_id in sorted((_take(raw, "bindings", dict, "$", issues, default={}) or {}).items()):
        path = f"$.bindings.{element_id}"
        if roadmap is None:
            issues.append((path, "bindings given but the document has no roadmap"))
            break
        if not isinstance(node_id, str):
            issues.append((path, "binding target must be a node id string"))
            continue
        if node_id not in graph:
            issues.append((path, f"binding target {node_id!r} is not a model node"))
            continue
        try:
            element = roadmap.element(element_id)
        except UnknownNode as exc:
            issues.append((path, str(exc)))
            continue
        if not element.measurable:
            issues.append((path, f"element {element_id!r} is not measurable"))
            continue
        bindings[element_id] = node_id

    if issues:
        raise ValidationFailed(sorted(set(issues)))

    doc = ModelDocument(graph=graph, cpts=cpts, catalogues=catalogues,
                        temporal=temporal, roadmap=roadmap, bindings=bindings)
    # The model built above for validation becomes the document's cached one.
    assert model is not None  # issues were empty, so construction succeeded
    doc.__dict__["model"] = model
    # Cross-section checks that need the whole document assembled.
    if temporal is not None:
        doc.temporal_model()
    return doc


# ---------------------------------------------------------------- serializing

def _cpt_to_jsonable(cpt: Cpt) -> dict:
    return {
        "parents": list(cpt.parent_order),
        "rows": [{"given": list(key), "p": list(dist)}
                 for key, dist in sorted(cpt.rows.items())],
    }


def serialize_model(doc: ModelDocument) -> str:
    """Canonical JSON text for a document (stable byte-for-byte)."""
    out = {
        "schema_version": doc.schema_version,
        "nodes": [{
            "id": n.id,
            "layer": n.layer,
            "states": list(n.domain),
            "service_goal": n.is_service_goal,
            "description": n.description,
        } for n in doc.graph.nodes],
        "edges": [{"from": e.source, "to": e.target} for e in doc.graph.edges],
        "cpts": {nid: _cpt_to_jsonable(c) for nid, c in sorted(doc.cpts.items())},
    }
    if doc.catalogues:
        out["catalogues"] = {nid: {"prior": list(cat.prior), "source": cat.source.value}
                             for nid, cat in sorted(doc.catalogues.items())}
    if doc.temporal is not None:
        out["temporal"] = {
            "edges": [{"from": s, "to": t} for s, t in doc.temporal.edges],
            "transition_cpts": {nid: _cpt_to_jsonable(c)
                                for nid, c in sorted(doc.temporal.transition_cpts.items())},
            "initial_cpts": {nid: _cpt_to_jsonable(c)
                             for nid, c in sorted(doc.temporal.initial_cpts.items())},
            "max_horizon": doc.temporal.max_horizon,
        }
    if doc.roadmap is not None:
        out["roadmap"] = {"goals": [{
            "id": g.id, "title": g.title,
            "objectives": [{
                "id": o.id, "title": o.title,
                "elements": [{
                    "id": e.id, "title": e.title,
                    "measurable": e.measurable,
                    "epistemic": e.epistemic.value,
                    "notes": e.notes,
                } for e in o.elements],
            } for o in g.objectives],
        } for g in doc.roadmap.goals]}
    if doc.bindings:
        out["bindings"] = dict(sorted(doc.bindings.items()))
    return json.dumps(out, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


# ------------------------------------------------------------ evidence stream

@dataclass(frozen=True)
class EvidenceRecord:
    """One timestamped observation from the field."""

    timestamp_ms: int
    node: str
    state: str


def read_evidence(text: str, model: BayesianModel) -> tuple[EvidenceRecord, ...]:
    """Parse newline-delimited JSON evidence records, validating against the model."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ModelSyntaxError(f"evidence line {lineno}: {exc.msg}", lineno) from None
        if not isinstance(raw, dict) or not {"ts", "node", "state"} <= set(raw):
            raise ModelSyntaxError(
                f'evidence line {lineno}: expected {{"ts", "node", "state"}}', lineno)
        ts, node_id, state = raw["ts"], raw["node"], raw["state"]
        if not _is_int(ts):
            raise ModelSyntaxError(
                f"evidence line {lineno}: ts must be an integer (epoch ms), got {ts!r}", lineno)
        if not isinstance(node_id, str) or not isinstance(state, str):
            raise ModelSyntaxError(
                f"evidence line {lineno}: node and state must be strings", lineno)
        try:
            _check_states(model.graph, {node_id: state})
        except (UnknownNode, UnknownState) as exc:
            raise type(exc)(f"evidence line {lineno}: {exc}") from None
        records.append(EvidenceRecord(ts, node_id, state))
    return tuple(records)


def ingest_evidence(records, bucket_ms: int, t0: int | None = None) -> ObservationSeries:
    """Bucket timestamped records onto the slice axis.

    Slice index is ``floor((ts - t0) / bucket_ms)`` with ``t0`` defaulting to
    the earliest timestamp.  When one (node, slice) pair is observed more than
    once the latest timestamp wins and a warning is logged.  Each timestamp must
    be an integer >= ``t0``, else :class:`InvalidArgument`, as is a record
    that is not an :class:`EvidenceRecord`.
    """
    bucket_ms = _check_int(bucket_ms, "bucket_ms", 1)
    if t0 is not None:
        t0 = _check_int(t0, "t0")
    records = list(records)
    for record in records:
        if not isinstance(record, EvidenceRecord):
            raise InvalidArgument(f"record must be an EvidenceRecord, got {record!r}")
        _check_int(record.timestamp_ms, "record timestamp_ms", t0)
    records.sort(key=lambda r: (r.timestamp_ms, r.node))
    if not records:
        return ObservationSeries()
    if t0 is None:
        t0 = records[0].timestamp_ms

    chosen: dict[tuple[str, int], EvidenceRecord] = {}
    for record in records:
        slot = (record.timestamp_ms - t0) // bucket_ms
        key = (record.node, slot)
        if key in chosen:
            logger.warning(
                "conflicting observations for node %r in slice %d: keeping the "
                "record at %d ms, dropping the one at %d ms",
                record.node, slot, record.timestamp_ms, chosen[key].timestamp_ms)
        chosen[key] = record  # records are time-sorted, so later always wins

    by_slice: dict[int, dict[str, str]] = {}
    for (node_id, slot), record in chosen.items():
        by_slice.setdefault(slot, {})[node_id] = record.state
    return ObservationSeries(sorted(by_slice.items()))
