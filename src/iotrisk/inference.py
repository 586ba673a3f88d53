"""Exact inference over a :class:`~iotrisk.model.BayesianModel`.

The joint distribution factorizes as the product over nodes of
P(node | parents), and every query here evaluates that product exactly:

* :func:`joint_probability` -- one term-by-term product for a full assignment;
  the simplest possible code path, used to anchor everything else.
* :func:`enumerate_marginal` -- the brute-force oracle: materializes the full
  joint table (one axis per node) and sums completions.  Exponential in node
  count; intended for models up to roughly 14 nodes.
* :func:`eliminate_marginal` -- variable elimination, the production path.
  Must agree with enumeration to 1e-9; the test suite holds it to that.
* :func:`posterior_update` -- eliminates for every node under one evidence set.

Evidence with zero probability raises :class:`ImpossibleEvidence` rather than
returning NaNs: it means the model and the observation contradict each other.
All functions are pure and models are immutable, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ImpossibleEvidence, IncompleteAssignment
from .graph import topological_order
from .model import BayesianModel, Marginal

if TYPE_CHECKING:
    import numpy as np

# Agreement tolerance between the two exact query paths.
ORACLE_TOL = 1e-9


def joint_probability(model: BayesianModel, assignment) -> float:
    """P(assignment) for a full state assignment: the factorization product."""
    model.require_fully_specified()
    assignment = model.validate_evidence(assignment)
    missing = [n.id for n in model.graph.nodes if n.id not in assignment]
    if missing:
        raise IncompleteAssignment(f"assignment lacks states for {missing}")
    prob = 1.0
    for node in model.graph.nodes:
        cpt = model.cpt(node.id)
        parent_states = tuple(assignment[p] for p in cpt.parent_order)
        prob *= cpt.row(parent_states)[node.domain.index(assignment[node.id])]
    return prob


# --------------------------------------------------------------- enumeration

def _cpt_as_array(model: BayesianModel, node_id: str) -> np.ndarray:
    """CPT as an ndarray with one axis per parent (in parent_order) + the node."""
    return _table_array(model.cpt(node_id), model.domain)


def _table_array(cpt, domain) -> np.ndarray:
    """``cpt`` as an ndarray with one axis per parent + the node; ``domain``
    maps a node id to its state domain."""
    import numpy as np

    parent_domains = [tuple(domain(p)) for p in cpt.parent_order]
    shape = tuple(len(d) for d in parent_domains) + (len(domain(cpt.node)),)
    arr = np.empty(shape, dtype=np.float64)
    if not parent_domains:
        arr[...] = np.asarray(cpt.rows[()])
        return arr
    index_iter = np.ndindex(*shape[:-1])
    for idx in index_iter:
        key = tuple(parent_domains[k][i] for k, i in enumerate(idx))
        arr[idx] = np.asarray(cpt.rows[key])
    return arr


def _full_joint(model: BayesianModel, var_order: tuple[str, ...]) -> np.ndarray:
    """The complete joint table with one axis per node, in ``var_order``."""
    import numpy as np

    axis = {v: k for k, v in enumerate(var_order)}
    cards = tuple(len(model.domain(v)) for v in var_order)
    joint = np.ones(cards, dtype=np.float64)
    for node_id in var_order:
        cpt = model.cpt(node_id)
        local_vars = cpt.parent_order + (node_id,)
        table = _cpt_as_array(model, node_id)
        # Reorder local axes by global axis position, then broadcast-reshape.
        perm = sorted(range(len(local_vars)), key=lambda k: axis[local_vars[k]])
        table = np.transpose(table, perm)
        shape = [1] * len(var_order)
        for var in local_vars:
            shape[axis[var]] = len(model.domain(var))
        joint *= table.reshape(shape)
    return joint


def enumerate_posteriors(model: BayesianModel, evidence=None) -> dict:
    """Exact marginals for every node by full-joint summation.

    This is the reference oracle: it literally sums the factorized joint over
    all completions consistent with the evidence.  Cost is the product of all
    domain sizes; use only on small models.
    """
    import numpy as np

    model.require_fully_specified()
    evidence = model.validate_evidence(evidence or {})
    var_order = tuple(n.id for n in model.graph.nodes)
    joint = _full_joint(model, var_order)

    index = []
    for v in var_order:
        if v in evidence:
            index.append(model.domain(v).index(evidence[v]))
        else:
            index.append(slice(None))
    conditioned = joint[tuple(index)]
    z = float(conditioned.sum())
    if z <= 0.0:
        raise ImpossibleEvidence(f"evidence {evidence!r} has probability 0")

    free_vars = [v for v in var_order if v not in evidence]
    out = {}
    for node in model.graph.nodes:
        states = node.domain.states
        if node.id in evidence:
            out[node.id] = Marginal.indicator(node.id, states, evidence[node.id])
            continue
        ax = free_vars.index(node.id)
        other = tuple(k for k in range(len(free_vars)) if k != ax)
        dist = conditioned.sum(axis=other) if other else np.asarray(conditioned, dtype=np.float64)
        dist = dist / z
        dist = dist / dist.sum()
        out[node.id] = Marginal(node.id, states, tuple(float(p) for p in dist))
    return out


def enumerate_marginal(model: BayesianModel, query: str, evidence=None) -> Marginal:
    """Exact P(query | evidence) by exhaustive summation of the joint."""
    model.graph.node(query)
    return enumerate_posteriors(model, evidence)[query]


# ------------------------------------------------------- variable elimination

@dataclass(frozen=True, eq=False)
class _Factor:
    """A table over ``vars``, one axis each; ``vars`` is always ascending."""

    vars: tuple[str, ...]
    values: np.ndarray

    def sum_out(self, var: str) -> "_Factor":
        ax = self.vars.index(var)
        return _Factor(self.vars[:ax] + self.vars[ax + 1:], self.values.sum(axis=ax))


def _factor_product(a: _Factor, b: _Factor) -> _Factor:
    out_vars = tuple(sorted(set(a.vars) | set(b.vars)))

    def aligned(f: _Factor) -> np.ndarray:
        # f's axes are already in out_vars order; insert broadcast axes
        sizes = dict(zip(f.vars, f.values.shape))
        return f.values.reshape([sizes.get(v, 1) for v in out_vars])

    return _Factor(out_vars, aligned(a) * aligned(b))


def _reduce_factor(f: _Factor, evidence: dict, state_index) -> _Factor:
    keep_vars = []
    index = []
    for v in f.vars:
        if v in evidence:
            index.append(state_index(v, evidence[v]))
        else:
            index.append(slice(None))
            keep_vars.append(v)
    return _Factor(tuple(keep_vars), f.values[tuple(index)])


def _sorted_factor(vars_: tuple[str, ...], values: np.ndarray) -> _Factor:
    """A factor with its axes permuted into ascending variable order."""
    order = tuple(sorted(vars_))
    perm = [vars_.index(v) for v in order]
    return _Factor(order, values.transpose(perm))


def _eliminate(factors: list, order) -> _Factor:
    """Sum the variables in ``order`` out of the factor product, one at a time.

    The factor-level core of variable elimination, shared by
    :func:`eliminate_marginal` and the temporal interface passes.  Returns the
    product of what is left, over every variable not in ``order``.
    """
    import numpy as np

    for var in order:
        related = [f for f in factors if var in f.vars]
        if not related:
            continue
        rest = [f for f in factors if var not in f.vars]
        product = related[0]
        for f in related[1:]:
            product = _factor_product(product, f)
        factors = rest + [product.sum_out(var)]

    result = _Factor((), np.float64(1.0))
    for f in factors:
        result = _factor_product(result, f)
    return result


def eliminate_marginal(model: BayesianModel, query: str, evidence=None) -> Marginal:
    """Exact P(query | evidence) by variable elimination.

    The elimination order is fixed for reproducibility: reverse topological
    order restricted to non-query, non-evidence nodes, ties broken by node id.
    Agrees with :func:`enumerate_marginal` to within ``ORACLE_TOL``.
    """
    model.require_fully_specified()
    node = model.graph.node(query)
    evidence = model.validate_evidence(evidence or {})

    def state_index(node_id: str, state: str) -> int:
        return model.domain(node_id).index(state)

    factors = []
    for n in model.graph.nodes:
        cpt = model.cpt(n.id)
        # CPT axes must be sorted for _Factor ops; parent_order is sorted but
        # the node's own axis may not land last alphabetically.
        f = _sorted_factor(cpt.parent_order + (n.id,), _cpt_as_array(model, n.id))
        factors.append(_reduce_factor(f, evidence, state_index))

    to_eliminate = [v for v in reversed(topological_order(model.graph))
                    if v != query and v not in evidence]
    result = _eliminate(factors, to_eliminate)
    return _normalized_marginal(query, node.domain.states, result, evidence)


def _normalized_marginal(query: str, states: tuple, result: _Factor,
                         evidence: dict) -> Marginal:
    """Turn the unnormalized factor left after elimination into a Marginal.

    ``result`` is over ``(query,)``, or over no variable when the query is in
    ``evidence``; a zero total means the evidence is impossible.
    """
    import numpy as np

    if query in evidence:
        z = float(result.values)
        if z <= 0.0:
            raise ImpossibleEvidence(f"evidence {evidence!r} has probability 0")
        return Marginal.indicator(query, states, evidence[query])

    if result.vars != (query,):
        raise AssertionError(f"elimination left unexpected variables {result.vars!r}")
    dist = np.asarray(result.values, dtype=np.float64)
    z = float(dist.sum())
    if z <= 0.0:
        raise ImpossibleEvidence(f"evidence {evidence!r} has probability 0")
    dist = dist / z
    dist = dist / dist.sum()
    return Marginal(query, states, tuple(float(p) for p in dist))


def posterior_update(model: BayesianModel, evidence=None) -> dict:
    """Posterior marginal for every node given the evidence.

    Evidence nodes come back as indicator distributions.  Raises
    :class:`ImpossibleEvidence` when the evidence has probability zero.
    """
    model.require_fully_specified()
    evidence = model.validate_evidence(evidence or {})
    return {n.id: eliminate_marginal(model, n.id, evidence)
            for n in model.graph.nodes}
