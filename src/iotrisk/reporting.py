"""Deterministic report emission and DOT graph export.

Reports are canonical JSON -- schema-versioned, key-sorted, ASCII -- so that
identical inputs produce byte-identical output, which makes reports diffable
and safe to hash.  :func:`to_jsonable` knows how to flatten every analysis
result in the package; :func:`emit_report` wraps one in the report envelope.

:func:`export_dot` renders a model as Graphviz text with one cluster per
layer; given an impact report it annotates each node with the posterior
probability of its degraded state.
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING

from .graph import ValidationReport
from .model import BayesianModel, Marginal

if TYPE_CHECKING:
    from .cascade import ImpactReport

REPORT_SCHEMA_VERSION = 1


def input_digest(*chunks: bytes) -> str:
    """A stable fingerprint of the inputs that produced a report."""
    # Imported here: hashlib loads OpenSSL, which only a digest needs.
    import hashlib

    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def to_jsonable(obj):
    """Flatten analysis results into JSON-ready structures, deterministically.
    Any other enum gives its value, and any other dataclass its fields in
    declaration order, the order ``--format text`` prints."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Marginal):
        return {"node": obj.node,
                "distribution": {s: p for s, p in zip(obj.states, obj.probabilities)}}
    if isinstance(obj, ValidationReport):
        return {"ok": obj.ok,
                "violations": to_jsonable(obj.violations),
                "warnings": to_jsonable(obj.warnings)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        return [to_jsonable(v) for v in items]
    # A cascade or roadmap result exists only once its module has loaded on
    # first use.
    cascade = sys.modules.get(f"{__package__}.cascade")
    if cascade is not None:
        if isinstance(obj, cascade.ImpactReport):
            return {
                "origins": dict(sorted(obj.scenario.origins.items())),
                "impact_set": sorted(obj.impact_set),
                "nodes": {nid: to_jsonable(entry)
                          for nid, entry in sorted(obj.per_node.items())},
                "ranking": [to_jsonable(e) for e in obj.ranking] if obj.ranking else None,
            }
        if isinstance(obj, cascade.NodeImpact):
            return {"distribution": to_jsonable(obj.distribution)["distribution"],
                    "dependency_order": obj.dependency_order,
                    "level": to_jsonable(obj.level), "relation": to_jsonable(obj.relation)}
    roadmap = sys.modules.get(f"{__package__}.roadmap")
    if roadmap is not None:
        if isinstance(obj, roadmap.TierGap):
            return {"element": obj.element_id, "current": obj.current,
                    "target": obj.target, "steps": obj.steps, "path": list(obj.path)}
        if isinstance(obj, roadmap.BoundRoadmap):
            return {"bindings": dict(sorted(obj.bindings.items())),
                    "data_gaps": list(obj.data_gaps)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def emit_report(kind: str, result, digest: str | None = None) -> str:
    """Wrap an analysis result in the canonical report envelope."""
    envelope = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "input_digest": digest,
        "result": to_jsonable(result),
    }
    return json.dumps(envelope, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


# ------------------------------------------------------------------ DOT export

def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_label(lines) -> str:
    # Escape each line, then join with DOT's \n line-break escape.
    escaped = [line.replace("\\", "\\\\").replace('"', '\\"') for line in lines]
    return '"' + "\\n".join(escaped) + '"'


def export_dot(model: BayesianModel, report: ImpactReport | None = None,
               graph_name: str = "dependency_model") -> str:
    """Graphviz text: layers as clusters, nodes/edges in sorted order.

    With an impact report, each node label gains the posterior probability of
    its degraded state (the last state of its domain) and origins/impacted
    nodes are visually marked.  Output is deterministic byte-for-byte.
    """
    graph = model.graph
    lines = [f"digraph {_dot_quote(graph_name)} {{", "  rankdir=LR;"]

    by_layer: dict[str, list] = {}
    for node in graph.nodes:
        by_layer.setdefault(node.layer, []).append(node)

    for i, layer in enumerate(sorted(by_layer)):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f"    label={_dot_quote(layer)};")
        for node in by_layer[layer]:
            attrs = []
            label_lines = [node.id]
            if report is not None and node.id in report.per_node:
                entry = report.per_node[node.id]
                degraded = tuple(node.domain)[-1]
                p = entry.distribution.p(degraded)
                label_lines.append(f"P({degraded})={p:.4f}")
                if entry.relation.value == "origin":
                    attrs.append("style=filled")
                    attrs.append("fillcolor=lightcoral")
                elif node.id in report.impact_set:
                    attrs.append("style=filled")
                    attrs.append("fillcolor=lightyellow")
            attrs.insert(0, f"label={_dot_label(label_lines)}")
            if node.is_service_goal:
                attrs.append("shape=doubleoctagon")
            lines.append(f"    {_dot_quote(node.id)} [{', '.join(attrs)}];")
        lines.append("  }")

    for edge in graph.edges:
        lines.append(f"  {_dot_quote(edge.source)} -> {_dot_quote(edge.target)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
