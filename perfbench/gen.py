"""Seeded input generators for the benchmark.

Everything here is a pure function of its ``seed`` argument: the same seed
gives byte-identical ``serialize_model`` text and evidence streams.  The
generators are deliberately regular (fixed sizes, fixed domain and in-degree
mixes, fixed observation patterns; the seed draws tables, service goals and
observed states) so that the cost of a run depends on the workload, not on
the seed it is given.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from iotrisk.cvss import (
    AccessComplexity,
    AccessVector,
    Authentication,
    CollateralDamagePotential,
    Exploitability,
    Impact,
    RemediationLevel,
    ReportConfidence,
    SecurityRequirement,
    TargetDistribution,
)
from iotrisk.documents import ModelDocument, TemporalSpec, serialize_model
from iotrisk.graph import ComponentNode, DependencyGraph, InfluenceEdge, StateDomain
from iotrisk.model import Cpt

BINARY = ("ok", "impaired")
TERNARY = ("ok", "degraded", "impaired")

# Static pool: node counts 26..40, 40% perception, 35% network, rest
# application.  One node in three per layer is ternary.  Larger models (60+
# nodes) push single queries to seconds, which would leave too few ops in a
# run to measure percentiles.  Sizes alternate small and large so that a run
# ending partway through the pool still sees a balanced mix.
STATIC_SIZES = (26, 40, 28, 38, 30, 36, 32, 34)
SERVICE_GOALS = 3


def _row(rng: random.Random, card: int) -> tuple[float, ...]:
    """A strictly positive distribution, so any evidence stays possible."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(card)]
    total = math.fsum(raw)
    return tuple(v / total for v in raw)


def _table(rng: random.Random, node: str, parents, domains: dict) -> Cpt:
    parents = tuple(sorted(parents))
    rows = {combo: _row(rng, len(domains[node]))
            for combo in itertools.product(*(domains[p] for p in parents))}
    return Cpt(node, parents, rows)


def layered_document(seed: int, n: int, wiring: int = 0) -> ModelDocument:
    """A perception -> network -> application model with ``n`` nodes.

    Each network node depends on 1-3 perception nodes near its own position
    and each application node on 1-3 network nodes likewise; every
    perception and network node feeds at least one node in the layer above,
    so no component is dead weight.  Edges and domain sizes depend only on
    ``n`` and ``wiring``: elimination cost follows them, so holding them
    fixed keeps run time independent of ``seed``, which draws the service
    goals and every table.
    """
    rng = random.Random(f"layered:{seed}:{n}")
    wire = random.Random(f"wiring:{n}:{wiring}")
    n_perc = round(n * 0.40)
    n_net = round(n * 0.35)
    n_app = n - n_perc - n_net
    layers = (("perception", "p", n_perc), ("network", "n", n_net),
              ("application", "a", n_app))
    ids = {layer: [f"{prefix}{i:02d}" for i in range(count)]
           for layer, prefix, count in layers}
    all_ids = [nid for layer, _, _ in layers for nid in ids[layer]]
    ternary = {nid for layer, _, _ in layers
               for nid in wire.sample(ids[layer], len(ids[layer]) // 3)}
    domains = {nid: TERNARY if nid in ternary else BINARY for nid in all_ids}
    service = set(rng.sample(ids["application"], SERVICE_GOALS))

    parents: dict[str, set] = {nid: set() for nid in all_ids}
    for lower, upper in (("perception", "network"), ("network", "application")):
        below, above = ids[lower], ids[upper]
        for j, nid in enumerate(above):
            centre = round(j * (len(below) - 1) / max(len(above) - 1, 1))
            window = below[max(centre - 2, 0):centre + 3]
            parents[nid].update(wire.sample(window, 1 + j % 3))
        fed = {p for nid in ids[upper] for p in parents[nid]}
        for orphan in ids[lower]:
            if orphan not in fed:
                parents[wire.choice(ids[upper])].add(orphan)

    nodes = [ComponentNode(nid, layer, StateDomain(domains[nid]), nid in service)
             for layer, _, _ in layers for nid in ids[layer]]
    edges = [InfluenceEdge(p, nid) for nid in all_ids for p in sorted(parents[nid])]
    cpts = {nid: _table(rng, nid, parents[nid], domains) for nid in all_ids}
    return ModelDocument(DependencyGraph(nodes, edges), cpts)


def static_pool(seed: int, size: int) -> list[str]:
    """``size`` serialized layered models, node counts cycling STATIC_SIZES."""
    sizes = len(STATIC_SIZES)
    return [serialize_model(layered_document(seed * 1000 + i, STATIC_SIZES[i % sizes],
                                             wiring=i // sizes))
            for i in range(size)]


def temporal_document(seed: int) -> ModelDocument:
    """A four-node slice template with two unobserved temporal chains.

    sensor -> gateway -> app, plus an independent perception node ``aux``
    feeding the app; ``sensor`` and ``gateway`` each carry a self-transition.
    Only the shape is fixed; every table is drawn from the seed.
    """
    rng = random.Random(f"temporal:{seed}")
    domains = {"sensor": BINARY, "aux": BINARY, "gateway": TERNARY, "app": BINARY}
    layer = {"sensor": "perception", "aux": "perception", "gateway": "network",
             "app": "application"}
    parents = {"sensor": (), "aux": (), "gateway": ("sensor",), "app": ("aux", "gateway")}
    nodes = [ComponentNode(nid, layer[nid], StateDomain(domains[nid]), nid == "app")
             for nid in domains]
    edges = [InfluenceEdge(p, nid) for nid, ps in parents.items() for p in ps]
    cpts = {nid: _table(rng, nid, ps, domains) for nid, ps in parents.items()}
    transitions = {"sensor": _table(rng, "sensor", ("sensor",), domains),
                   "gateway": _table(rng, "gateway", ("gateway", "sensor"), domains)}
    # gateway's transition parents are its intra-slice parent plus itself.
    spec = TemporalSpec(edges=(("gateway", "gateway"), ("sensor", "sensor")),
                        transition_cpts=transitions,
                        initial_cpts={"gateway": _table(rng, "gateway", ("sensor",), domains)})
    return ModelDocument(DependencyGraph(nodes, edges), cpts, temporal=spec)


def evidence_stream(seed, observed: dict, slices: int, bucket_ms: int,
                    t0_ms: int) -> str:
    """NDJSON evidence over ``slices`` buckets; each node seen every other slice.

    ``observed`` maps node id to its states.  Which (node, slice) pairs are
    observed is fixed (node k at slices t with t + k even), because the
    unobserved pattern sets the cost of temporal queries; the seed draws the
    states and the timestamps within each bucket.  At most one record per
    node and bucket, so ingestion never has to drop a conflicting one.
    """
    rng = random.Random(f"stream:{seed}")
    lines = []
    for t in range(slices):
        for k, node in enumerate(sorted(observed)):
            if (t + k) % 2 == 0:
                ts = t0_ms + t * bucket_ms + rng.randrange(bucket_ms)
                lines.append((ts, node, rng.choice(observed[node])))
    lines.sort()
    return "".join(json.dumps({"ts": ts, "node": node, "state": state}, sort_keys=True) + "\n"
                   for ts, node, state in lines)


_CVSS_METRICS = (("AV", AccessVector), ("AC", AccessComplexity), ("Au", Authentication),
                 ("C", Impact), ("I", Impact), ("A", Impact), ("E", Exploitability),
                 ("RL", RemediationLevel), ("RC", ReportConfidence),
                 ("CDP", CollateralDamagePotential), ("TD", TargetDistribution),
                 ("CR", SecurityRequirement), ("IR", SecurityRequirement),
                 ("AR", SecurityRequirement))


def cvss_vectors(seed: int, count: int) -> list[str]:
    """Full CVSS v2 vectors (base, temporal and environmental metrics)."""
    rng = random.Random(f"cvss:{seed}")
    return ["/".join(f"{key}:{rng.choice([m.value for m in kind])}"
                     for key, kind in _CVSS_METRICS)
            for _ in range(count)]


def tier_assignments(seed: int, elements, scale) -> tuple[dict, dict]:
    """Current and target tiers per element, current never above target."""
    rng = random.Random(f"tiers:{seed}")
    current, target = {}, {}
    for element in elements:
        lo, hi = sorted(rng.randrange(len(scale)) for _ in range(2))
        current[element], target[element] = scale[lo], scale[hi]
    return current, target
