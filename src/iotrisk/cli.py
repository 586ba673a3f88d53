"""Command-line surface.

Verbs: ``validate``, ``infer``, ``cascade``, ``dbn``, ``iotmm``, ``cvss``,
``roadmap``, ``sample``, ``export-dot``.  Every analysis verb reads a model
document (``--model``), emits a canonical JSON report by default
(``--format text`` for a human summary; ``export-dot`` writes Graphviz DOT
and has no ``--format``), and writes to stdout unless ``--output`` is given.

Exit codes: 0 on success, 1 for validation/evidence/input errors, 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import DocumentError, IotRiskError, ValidationFailed

# Every other module a verb needs is imported in that verb, on first use.
# These load with the CLI: the benchmark's span tracer reads them from
# ``sys.modules`` once it has imported this module, and wraps
# ``graph.validate`` under the name bound here (``perfbench/spans.py``).
from .graph import validate as validate_graph
from .reporting import emit_report, export_dot, input_digest, to_jsonable
from .sampling import monte_carlo_sample

USAGE_ERROR = 2
INPUT_ERROR = 1


def _parse_observation(text: str) -> tuple[str, str]:
    node, sep, state = text.partition("=")
    if not sep or not node or not state:
        raise argparse.ArgumentTypeError(
            f"expected NODE=STATE, got {text!r}")
    return node, state


class _Assignments(argparse.Action):
    """Collects a repeatable NODE=STATE flag into one dict.  Naming a node
    again with another state is a usage error; the same pair again is not."""

    def __call__(self, parser, namespace, values, option_string=None):
        node, state = values
        chosen = dict(getattr(namespace, self.dest) or {})
        if chosen.setdefault(node, state) != state:
            raise argparse.ArgumentError(
                self, f"node {node!r} given as both {chosen[node]!r} and {state!r}")
        setattr(namespace, self.dest, chosen)


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _add_common(parser: argparse.ArgumentParser, model: bool = True) -> None:
    if model:
        parser.add_argument("--model", required=True, metavar="PATH",
                            help="model document (JSON)")
    parser.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default: json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotrisk",
        description="Dependency-graph risk analytics for layered IoT systems.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model document and report findings")
    _add_common(p)

    p = sub.add_parser("infer", help="marginal/posterior queries")
    _add_common(p)
    p.add_argument("--query", metavar="NODE", help="single node to query (default: all)")
    p.add_argument("--observe", metavar="NODE=STATE", action=_Assignments, default={},
                   type=_parse_observation, help="evidence; repeatable")
    p.add_argument("--evidence", metavar="PATH",
                   help="evidence stream; each node's latest record becomes evidence")

    p = sub.add_parser("cascade", help="incident-scenario impact analysis")
    _add_common(p)
    p.add_argument("--origin", metavar="NODE=STATE", action=_Assignments, required=True,
                   type=_parse_observation, help="impaired origin; repeatable")
    p.add_argument("--rank", action="store_true",
                   help="also rank the origins by service degradation")

    p = sub.add_parser("dbn", help="time-sliced queries: filter, smooth, predict")
    _add_common(p)
    p.add_argument("--evidence", metavar="PATH",
                   help="newline-delimited JSON evidence records")
    p.add_argument("--bucket-ms", type=_int_at_least(1), default=1000, metavar="N",
                   help="bucket width for timestamp -> slice mapping (default 1000)")
    p.add_argument("--mode", choices=("filter", "smooth", "predict"), default="filter")
    p.add_argument("--at", type=_int_at_least(0), metavar="T",
                   help="query time index (default: last observed slice)")
    p.add_argument("--slice", type=_int_at_least(0), dest="past_slice", metavar="K",
                   help="past slice to smooth (mode=smooth)")
    p.add_argument("--horizon", type=_int_at_least(1), metavar="H",
                   help="prediction horizon (mode=predict, default 1)")

    p = sub.add_parser("iotmm", help="detect nodes without CPTs and resolve their "
                                     "states from observed dependents")
    _add_common(p)
    p.add_argument("--resolve", metavar="NODE", help="uncontrollable node to resolve")
    p.add_argument("--observe", metavar="NODE=STATE", action=_Assignments, default={},
                   type=_parse_observation, help="evidence; repeatable")

    p = sub.add_parser("cvss", help="score a CVSS v2 vector and derive a prior")
    _add_common(p, model=False)
    p.add_argument("--vector", required=True, metavar="VECTOR",
                   help='e.g. "AV:N/AC:L/Au:N/C:P/I:P/A:C/CDP:LM/TD:H"')
    p.add_argument("--prior-mapping", choices=("linear", "logistic"), default="linear")

    p = sub.add_parser("roadmap", help="tier gap report for a transformation roadmap")
    _add_common(p, model=False)
    p.add_argument("--model", metavar="PATH", help="model document with an embedded roadmap")
    p.add_argument("--roadmap", metavar="PATH", help="standalone roadmap dataset")
    p.add_argument("--section", metavar="KEY",
                   help="section of a --roadmap dataset; 'all' combines sections "
                        "(default: iotrisk.bundled.DEFAULT_ROADMAP_SECTION)")
    p.add_argument("--current", required=True, metavar="PATH",
                   help="JSON file: element id -> current tier label")
    p.add_argument("--target", required=True, metavar="PATH",
                   help="JSON file: element id -> target tier label")
    p.add_argument("--scale", metavar="L1,L2,...",
                   help="ordered tier labels, ascending maturity "
                        "(default: iotrisk.roadmap.DEFAULT_TIER_SCALE)")

    p = sub.add_parser("sample", help="seeded Monte Carlo forward sampling")
    _add_common(p)
    p.add_argument("--n", type=_int_at_least(1), default=1_000_000, metavar="N",
                   help="sample count (default 1e6)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, metavar="N",
                   help="RNG seed (default 0)")

    p = sub.add_parser("export-dot", help="Graphviz export, optionally impact-annotated")
    p.add_argument("--model", required=True, metavar="PATH", help="model document (JSON)")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p.add_argument("--origin", metavar="NODE=STATE", action=_Assignments, default={},
                   type=_parse_observation,
                   help="annotate with the posterior impact of this scenario")

    return parser


# ------------------------------------------------------------------ rendering

def _render_text(kind: str, result) -> str:
    data = to_jsonable(result)
    lines = [f"[{kind}]"]

    def walk(value, indent=1):
        pad = "  " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{value}")

    walk(data)
    return "\n".join(lines) + "\n"


def _path(path: str) -> Path:
    """``Path(path)``; an empty ``path`` names no file, so it raises
    FileNotFoundError naming ``''``, where ``Path('')`` would name ``.``."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return Path(path)


def _write(args, text: str) -> None:
    if args.output is not None:
        try:
            _path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputError(exc) from exc
    else:
        sys.stdout.write(text)


def _emit(args, kind: str, result, digest: str | None) -> None:
    if args.format == "text":
        _write(args, _render_text(kind, result))
    else:
        _write(args, emit_report(kind, result, digest))


def _read(path: str) -> tuple[bytes, str]:
    """``(raw, text)``: the bytes of the file at ``path``, read once, and
    their UTF-8 text.  An empty ``path`` is a missing file (see
    :func:`_path`); bytes that are not UTF-8 are a located input error."""
    raw = _path(path).read_bytes()
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc.reason} at byte offset "
                            f"{exc.start}") from None


def _load_document(args):
    """The ``--model`` document, its report digest and its raw bytes."""
    from .documents import parse_model

    raw, text = _read(args.model)
    return parse_model(text), input_digest(raw), raw


def _read_evidence(args, model, model_raw: bytes):
    """The ``--evidence`` records, checked against ``model``, and the digest."""
    from .documents import read_evidence

    raw, text = _read(args.evidence)
    return read_evidence(text, model), input_digest(model_raw, raw)


# ------------------------------------------------------------------- commands

def _cmd_validate(args) -> int:
    from .documents import parse_model
    from .uncontrollable import detect_uncontrollable

    raw, text = _read(args.model)
    digest = input_digest(raw)
    try:
        doc = parse_model(text)
    except ValidationFailed as exc:
        result = {"ok": False,
                  "issues": [{"path": path, "message": msg} for path, msg in exc.issues]}
        _emit(args, "validation", result, digest)
        return INPUT_ERROR
    report = validate_graph(doc.graph)
    result = {"ok": True,
              "issues": [],
              "warnings": [{"kind": w.kind, "message": w.message} for w in report.warnings],
              "nodes": len(doc.graph.nodes),
              "edges": len(doc.graph.edges),
              "uncontrollable": sorted(detect_uncontrollable(doc.model))}
    _emit(args, "validation", result, digest)
    return 0


def _cmd_infer(args) -> int:
    from .inference import eliminate_marginal, posterior_update
    from .uncontrollable import detect_uncontrollable

    doc, digest, model_raw = _load_document(args)
    model = doc.completed_model()
    evidence = {}
    if args.evidence is not None:
        records, digest = _read_evidence(args, model, model_raw)
        evidence = {r.node: r.state for r in sorted(records, key=lambda r: r.timestamp_ms)}
    evidence.update(args.observe)
    if args.query is not None:
        result = {"query": args.query,
                  "evidence": evidence,
                  "marginal": eliminate_marginal(model, args.query, evidence)}
    else:
        result = {"evidence": evidence,
                  "posteriors": posterior_update(model, evidence)}
    completed = sorted(detect_uncontrollable(doc.model))
    if completed:
        result["completed_from_catalogues"] = completed
    _emit(args, "inference", result, digest)
    return 0


def _cmd_cascade(args) -> int:
    from .cascade import IncidentScenario, impact_probabilities, rank_criticality

    doc, digest, _ = _load_document(args)
    model = doc.completed_model()
    scenario = IncidentScenario(args.origin)
    report = impact_probabilities(model, scenario)
    if args.rank:
        ranking = rank_criticality(model, list(scenario.origins.items()))
        report = replace(report, ranking=ranking)
    _emit(args, "cascade", report, digest)
    return 0


def _cmd_dbn(args) -> int:
    from .documents import ingest_evidence
    from .temporal import ObservationSeries, filter_marginals, predict_marginals, smooth_marginals

    if args.past_slice is not None and args.mode != "smooth":
        raise UsageError("--slice applies only to --mode smooth")
    if args.horizon is not None and args.mode != "predict":
        raise UsageError("--horizon applies only to --mode predict")
    doc, digest, model_raw = _load_document(args)
    tm = doc.temporal_model()
    if args.evidence is not None:
        records, digest = _read_evidence(args, tm.template.model, model_raw)
        obs = ingest_evidence(records, args.bucket_ms)
    else:
        obs = ObservationSeries()
    last = obs.max_time if obs.max_time is not None else 0
    t = args.at if args.at is not None else last

    if args.mode == "filter":
        marginals = filter_marginals(tm, obs, t)
        detail = {"mode": "filter", "at": t}
    elif args.mode == "smooth":
        if args.past_slice is None:
            raise UsageError("--mode smooth requires --slice K")
        marginals = smooth_marginals(tm, obs, args.past_slice, t)
        detail = {"mode": "smooth", "at": t, "slice": args.past_slice}
    else:
        horizon = args.horizon or 1
        marginals = predict_marginals(tm, obs, t, horizon)
        detail = {"mode": "predict", "at": t, "horizon": horizon}

    detail["observations"] = [{"slice": s, "node": n, "state": st} for s, n, st in obs]
    detail["marginals"] = marginals
    _emit(args, "temporal", detail, digest)
    return 0


def _cmd_iotmm(args) -> int:
    from .uncontrollable import catalogue, detect_uncontrollable, resolve_uncontrollable

    doc, digest, _ = _load_document(args)
    model = doc.model
    uncontrollable = sorted(detect_uncontrollable(model))
    catalogues = {nid: doc.catalogues.get(nid) or catalogue(model, nid)
                  for nid in uncontrollable}
    if args.resolve is not None:
        marginal = resolve_uncontrollable(model, args.resolve, args.observe,
                                          doc.catalogues)
        result = {"resolved": args.resolve,
                  "evidence": args.observe,
                  "posterior": marginal,
                  "catalogue": catalogues[args.resolve]}
    else:
        result = {"uncontrollable": uncontrollable, "catalogues": catalogues}
    _emit(args, "uncontrollable", result, digest)
    return 0


def _cmd_cvss(args) -> int:
    from .cvss import (
        CvssVector,
        LinearPriorMapping,
        LogisticPriorMapping,
        environmental_score,
        score_summary,
        score_to_prior,
    )

    vector = CvssVector.from_string(args.vector)
    mapping = LinearPriorMapping() if args.prior_mapping == "linear" else LogisticPriorMapping()
    summary = score_summary(vector)
    summary["prior"] = {
        "mapping": args.prior_mapping,
        "from_environmental": score_to_prior(environmental_score(vector), mapping),
        "from_base": score_to_prior(summary["base"], mapping),
    }
    _emit(args, "cvss", summary, input_digest(args.vector.encode("utf-8")))
    return 0


def _read_tiers(path: str) -> dict:
    """A JSON file holding one object: control element id -> tier label."""
    from .documents import _json_object

    return _json_object(_read(path)[1], f"{path}: ",
                        "expected an object mapping element ids to tiers")


def _cmd_roadmap(args) -> int:
    from .roadmap import DEFAULT_TIER_SCALE, gap_report

    if (args.model is None) == (args.roadmap is None):
        raise UsageError("give exactly one of --model or --roadmap")
    if args.model is not None and args.section is not None:
        raise UsageError("--section applies only to --roadmap")
    if args.model is not None:
        doc, digest, _ = _load_document(args)
        if doc.roadmap is None:
            raise ValidationFailed([("$.roadmap", "document has no roadmap section")])
        roadmap = doc.roadmap
    else:
        from .bundled import DEFAULT_ROADMAP_SECTION, parse_roadmap_document

        raw, text = _read(args.roadmap)
        digest = input_digest(raw)
        section = {None: DEFAULT_ROADMAP_SECTION, "all": None}.get(args.section, args.section)
        roadmap = parse_roadmap_document(text, section)
    current = _read_tiers(args.current)
    target = _read_tiers(args.target)
    if args.scale is None:
        scale = DEFAULT_TIER_SCALE
    else:
        scale = tuple(s.strip() for s in args.scale.split(",") if s.strip())
    gaps = gap_report(roadmap, current, target, scale)
    result = {"scale": list(scale),
              "elements": len(roadmap.elements()),
              "gaps": list(gaps)}
    _emit(args, "gaps", result, digest)
    return 0


def _cmd_sample(args) -> int:
    doc, digest, _ = _load_document(args)
    model = doc.completed_model()
    freqs = monte_carlo_sample(model, args.n, args.seed)
    result = {"n": args.n, "seed": args.seed, "marginals": freqs}
    _emit(args, "sample", result, digest)
    return 0


def _cmd_export_dot(args) -> int:
    doc, digest, _ = _load_document(args)
    report = None
    if args.origin:
        from .cascade import IncidentScenario, impact_probabilities

        report = impact_probabilities(doc.completed_model(),
                                      IncidentScenario(args.origin))
    _write(args, export_dot(doc.model, report))
    return 0


class UsageError(Exception):
    pass


class OutputError(Exception):
    """The report could not be written to ``--output``."""


_COMMANDS = {
    "validate": _cmd_validate,
    "infer": _cmd_infer,
    "cascade": _cmd_cascade,
    "dbn": _cmd_dbn,
    "iotmm": _cmd_iotmm,
    "cvss": _cmd_cvss,
    "roadmap": _cmd_roadmap,
    "sample": _cmd_sample,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    # No query calls BLAS, so one OpenBLAS thread saves numpy the cost of
    # starting a pool.  Only before numpy loads, and never over a user's value.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"iotrisk: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except IotRiskError as exc:
        print(f"iotrisk: error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except OutputError as exc:
        print(f"iotrisk: cannot write output: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except OSError as exc:
        print(f"iotrisk: cannot read input: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
