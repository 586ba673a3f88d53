"""Shared fixtures: small hand-built models and seeded random generators.

``random_model`` / ``random_temporal_model`` build arbitrary valid models for
the equivalence suites; ``brute_posteriors`` is the slowest possible oracle
(pure-python sum of joint_probability over every completion) used to anchor
the faster paths on tiny models.  ``full_elimination`` answers a point
query by summing out every node, and ``per_node_slice_posteriors`` answers a
temporal query's slice with one full elimination per node.  ``wide_model``
is the 80-node model whose full elimination outgrows memory, and
``run_capped`` runs Python in a child with a capped address space.  The
``work`` fixture names the compile and elimination calls a test makes, and
``steps`` lists the variable of every elimination step.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from iotrisk import inference, temporal
from iotrisk.graph import ComponentNode, DependencyGraph, InfluenceEdge, StateDomain
from iotrisk.inference import _eliminate, _marginal, _reduced, joint_probability
from iotrisk.model import BayesianModel, Cpt, Marginal
from iotrisk.temporal import SliceTemplate, TemporalEdge, TemporalModel

TF = StateDomain(["T", "F"])


def make_chain2() -> BayesianModel:
    """A -> B with P(A=T)=0.3, P(B=T|A=T)=0.9, P(B=T|A=F)=0.1."""
    graph = DependencyGraph(
        [ComponentNode("A", "perception", TF), ComponentNode("B", "network", TF)],
        [InfluenceEdge("A", "B")])
    return BayesianModel(graph, {
        "A": Cpt.prior("A", (0.3, 0.7)),
        "B": Cpt("B", ("A",), {("T",): (0.9, 0.1), ("F",): (0.1, 0.9)}),
    })


def make_chain3() -> BayesianModel:
    """chain2 extended with C: P(C=T|B=T)=0.8, P(C=T|B=F)=0.2."""
    graph = DependencyGraph(
        [ComponentNode("A", "perception", TF), ComponentNode("B", "network", TF),
         ComponentNode("C", "application", TF)],
        [InfluenceEdge("A", "B"), InfluenceEdge("B", "C")])
    return BayesianModel(graph, {
        "A": Cpt.prior("A", (0.3, 0.7)),
        "B": Cpt("B", ("A",), {("T",): (0.9, 0.1), ("F",): (0.1, 0.9)}),
        "C": Cpt("C", ("B",), {("T",): (0.8, 0.2), ("F",): (0.2, 0.8)}),
    })


def make_sensor_dbn() -> TemporalModel:
    """Hidden health X (ok/fail) with observed alarm child O and a sticky
    failure transition; the standard filtering example."""
    graph = DependencyGraph(
        [ComponentNode("X", "perception", StateDomain(["ok", "fail"])),
         ComponentNode("O", "network", StateDomain(["quiet", "alarm"]))],
        [InfluenceEdge("X", "O")])
    template = BayesianModel(graph, {
        "X": Cpt.prior("X", (0.9, 0.1)),
        "O": Cpt("O", ("X",), {("ok",): (0.9, 0.1), ("fail",): (0.3, 0.7)}),
    })
    transition = Cpt("X", ("X",), {("ok",): (0.8, 0.2), ("fail",): (0.05, 0.95)})
    return TemporalModel(SliceTemplate(template), [TemporalEdge("X", "X", transition)])


@pytest.fixture
def work(monkeypatch) -> list:
    """Names of the compile and elimination calls made while the test runs."""
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inference, "compile_model",
                        counted("compile_model", inference.compile_model))
    # _run is the one elimination executor: every query's runs, the
    # temporal passes' included, go through it.
    monkeypatch.setattr(inference, "_run", counted("_run", inference._run))
    return calls


@pytest.fixture
def steps(monkeypatch) -> list:
    """The variable of every elimination step made while the test runs, one
    entry per :func:`~iotrisk.inference._apply` call, that is per step the
    runner computes or a point plan folds when it is built."""
    summed = []
    apply = inference._apply

    def counted(step, values):
        summed.append(step[0])
        return apply(step, values)

    monkeypatch.setattr(inference, "_apply", counted)
    return summed


@pytest.fixture
def chain2() -> BayesianModel:
    return make_chain2()


@pytest.fixture
def chain3() -> BayesianModel:
    return make_chain3()


@pytest.fixture
def sensor_dbn() -> TemporalModel:
    return make_sensor_dbn()


# --------------------------------------------------------- random generators

def random_model(rng: random.Random, max_nodes: int = 12, max_states: int = 4,
                 max_joint: int = 2 ** 16, edge_p: float = 0.4,
                 min_nodes: int = 2, min_states: int = 2,
                 max_parents: int = 5) -> BayesianModel:
    """A random valid fully-specified model within the given bounds.

    The joint size (product of all cardinalities) stays within ``max_joint``
    and in-degree within ``max_parents`` so the enumeration oracle and table
    generation stay tractable.
    """
    n = rng.randint(min_nodes, max_nodes)
    while True:
        cards = [rng.randint(min_states, max_states) for _ in range(n)]
        if math.prod(cards) <= max_joint:
            break
    ids = [f"n{i:02d}" for i in range(n)]
    layer_pool = ("perception", "network", "application")
    nodes = [ComponentNode(ids[i], rng.choice(layer_pool),
                           StateDomain([f"s{k}" for k in range(cards[i])]),
                           is_service_goal=rng.random() < 0.2)
             for i in range(n)]
    # Edges only from earlier to later in a shuffled order: acyclic by build.
    order = ids[:]
    rng.shuffle(order)
    edges = []
    indegree = {nid: 0 for nid in ids}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_p and indegree[order[j]] < max_parents:
                edges.append(InfluenceEdge(order[i], order[j]))
                indegree[order[j]] += 1
    graph = DependencyGraph(nodes, edges)
    return BayesianModel(graph, {nid: random_cpt(rng, graph, nid) for nid in ids})


def random_cpt(rng: random.Random, graph: DependencyGraph, node_id: str) -> Cpt:
    """Random strictly-positive rows (so any evidence stays possible)."""
    parents = graph.parents(node_id)
    domains = [tuple(graph.node(p).domain) for p in parents]
    card = len(graph.node(node_id).domain)
    rows = {}
    for combo in itertools.product(*domains):
        raw = [rng.uniform(0.05, 1.0) for _ in range(card)]
        total = math.fsum(raw)
        rows[combo] = tuple(v / total for v in raw)
    return Cpt(node_id, parents, rows)


def random_evidence(rng: random.Random, model: BayesianModel,
                    max_observed: int = 3) -> dict:
    ids = [n.id for n in model.graph.nodes]
    k = rng.randint(0, min(max_observed, len(ids) - 1))
    chosen = rng.sample(ids, k)
    return {nid: rng.choice(tuple(model.domain(nid))) for nid in chosen}


def random_temporal_model(rng: random.Random, max_template_nodes: int = 4,
                          max_states: int = 3) -> TemporalModel:
    """A random slice template plus 1..n temporal edges with consistent tables."""
    template = random_model(rng, max_nodes=max_template_nodes, max_states=max_states,
                            edge_p=0.35, min_nodes=1)
    graph = template.graph
    ids = [n.id for n in graph.nodes]
    targets = rng.sample(ids, rng.randint(1, len(ids)))

    edges = []
    initial_cpts = {}
    for target in targets:
        intra = set(graph.parents(target))
        pool = [nid for nid in ids if nid not in intra]
        sources = rng.sample(pool, rng.randint(1, min(2, len(pool))))
        parent_order = tuple(sorted(tuple(intra) + tuple(sources)))
        domains = [tuple(graph.node(p).domain) for p in parent_order]
        card = len(graph.node(target).domain)
        rows = {}
        for combo in itertools.product(*domains):
            raw = [rng.uniform(0.05, 1.0) for _ in range(card)]
            total = math.fsum(raw)
            rows[combo] = tuple(v / total for v in raw)
        cpt = Cpt(target, parent_order, rows)
        for source in sources:
            edges.append(TemporalEdge(source, target, cpt))
        if rng.random() < 0.5:
            initial_cpts[target] = random_cpt(rng, graph, target)
    return TemporalModel(SliceTemplate(template), edges, initial_cpts)


def wide_model() -> BayesianModel:
    """80 binary nodes, 149 edges, at most 3 parents each.  Summing out every
    node in reverse topological order multiplies factors of up to 2^29
    entries; no node's ancestors need more than 2^19."""
    return random_model(random.Random(1), min_nodes=80, max_nodes=80, max_states=2,
                        max_joint=2 ** 80, edge_p=0.06, max_parents=3)


# ------------------------------------------------------------ exact oracles

def full_elimination(model: BayesianModel, query: str, evidence=None) -> Marginal:
    """P(query | evidence) by summing every node of ``model`` but the query
    out of all its reduced factors, in ``compiled.elimination``.

    The unpruned per-node run that ``posterior_update`` and
    ``rank_criticality`` must match bit for bit.
    """
    compiled = model.compiled
    evidence, observed, factors = _reduced(model, evidence)
    var = compiled.index[query]
    return _marginal(compiled, var, observed,
                     _eliminate(factors, compiled.elimination, (var,)), lambda: evidence)


def per_node_slice_posteriors(tm: TemporalModel, obs, k: int, last: int) -> dict:
    """P(node@k | evidence in slices 0..last) by one full elimination of slice
    k's tables per template node, with the messages of the queries' own sweeps.

    The per-node loop the queries' shared pass replaced; the queries must
    match it bit for bit.
    """
    slices = tm._slices
    evidence = temporal._prepare(tm, obs, last)
    alpha = temporal._sweep(slices, evidence, obs, range(k), slices.interface, slices.size)
    beta = temporal._sweep(slices, evidence, obs, range(last, k, -1), slices.previous,
                           -slices.size)
    factors = temporal._slice_factors(slices, evidence, k, [alpha, beta])
    compiled = tm.template.model.compiled
    return {nid: _marginal(compiled, i, evidence.get(k, {}),
                           _eliminate(factors, slices.order, (i,)), obs.unrolled_evidence)
            for i, nid in enumerate(compiled.ids)}


# ------------------------------------------------------------- child process

CAP_BYTES = 1536 << 20
TESTS = Path(__file__).resolve().parent


def run_capped(*args, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` in a child whose address space is capped at 1.5 GiB.

    The child imports the checkout's ``src`` and this directory first, and
    OpenBLAS is held to one thread so its per-thread buffers stay out of the
    cap.  A query that outgrows the cap fails in the child with a
    ``MemoryError``, not on the host.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES)))


# ------------------------------------------------------------- brute oracle

def brute_posteriors(model: BayesianModel, evidence=None) -> dict:
    """Pure-python posterior oracle: iterate every full assignment.

    Independent of both production query paths; only usable on tiny models.
    """
    evidence = dict(evidence or {})
    ids = [n.id for n in model.graph.nodes]
    domains = [tuple(model.domain(nid)) for nid in ids]
    weight: dict[str, dict[str, float]] = {nid: {s: 0.0 for s in dom}
                                           for nid, dom in zip(ids, domains)}
    z = 0.0
    for combo in itertools.product(*domains):
        assignment = dict(zip(ids, combo))
        if any(assignment[nid] != state for nid, state in evidence.items()):
            continue
        p = joint_probability(model, assignment)
        z += p
        for nid, state in assignment.items():
            weight[nid][state] += p
    if z <= 0:
        raise AssertionError("evidence impossible under brute-force oracle")
    return {nid: {s: w / z for s, w in states.items()}
            for nid, states in weight.items()}
