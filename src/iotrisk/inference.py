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
  It sums out only the ancestors of the query and the evidence: any other
  node is barren, its factors sum to 1 and cannot change the answer
  (Shachter 1998, "Bayes-Ball").  Each variable has a bucket of the factors
  over it (bucket elimination, Dechter 1999), and a bucket is multiplied in
  one pass.  The products and sums are those of rescanning one factor list
  per variable, in the same order, so the answers are bit for bit those of
  that simpler algorithm.
* :func:`posterior_update` -- every node's marginal under one evidence set.
  Under one order, each node's full elimination, every node summed out,
  repeats the steps of one pass up to that node's position, so
  :func:`_all_marginals` hands one pass's state there to :func:`_resume`,
  which runs only the rest of an unobserved node's order: the same products
  and sums, hence the same bits, at about half the steps.  A point answer
  leaves out the barren sums (each about 1), so it may differ from this one
  in its last bits, within ``ORACLE_TOL``.

The numeric queries, and the Monte Carlo sampler, read one
:class:`CompiledModel`: integer node ids, one read-only table per CPT, the
topological order and its reverse, the elimination order, and one indicator
:class:`Marginal` per node state, which every query for an observed node
returns.  :func:`compile_model`, the queries' one check that every node has
a CPT, builds it on a model's first numeric query, and the model keeps it
(:attr:`BayesianModel.compiled <iotrisk.model.BayesianModel.compiled>`), so
later queries on the same model build no table.  Integer ids follow the
ascending node ids, so every factor's axes, and with them the results, are
those of elimination over the string ids.  The temporal interface passes
share this core: :func:`_cpt_factor` builds their tables, :func:`_eliminate`
sums out one order per compiled form, and :func:`_all_marginals` answers each node.

Evidence with zero probability raises :class:`ImpossibleEvidence` rather than
returning NaNs: it means the model and the observation contradict each other.
All functions are pure and models are immutable, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ImpossibleEvidence, IncompleteAssignment
from .graph import _bfs, topological_order
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


# ------------------------------------------------------------- compiled form

def _cpt_factor(cpt, domain, axes: tuple[int, ...]) -> _Factor:
    """``cpt`` as a read-only factor, the one builder of every table a query
    reads.  ``domain`` maps a node id to its state domain; ``axes`` are the
    variables of the parents, in parent_order, and then of the node."""
    import numpy as np

    parent_domains = [domain(p).states for p in cpt.parent_order]
    rows = [cpt.rows[key] for key in itertools.product(*parent_domains)]
    shape = [len(d) for d in parent_domains] + [len(domain(cpt.node))]
    values = np.array(rows, dtype=np.float64).reshape(shape)
    values.flags.writeable = False
    order = tuple(sorted(axes))
    return _Factor(order, values.transpose([axes.index(v) for v in order]))


@dataclass(frozen=True, slots=True, eq=False)
class CompiledModel:
    """A model's numeric form, shared by every numeric query on it.

    Node ``i`` is ``ids[i]``: integer ids follow the ascending string ids, as
    ``graph.nodes`` does.  ``factors[i]`` is node ``i``'s CPT over its
    parents' and its own id, axes ascending, its values read-only.
    ``indicators[i][k]`` is the :class:`Marginal` of node ``i`` observed in
    its ``k``-th state, one instance every query returns.  ``topological`` is
    :func:`~iotrisk.graph.topological_order` in ids, and ``elimination`` its
    reverse, the order variable elimination sums out in.
    """

    ids: tuple[str, ...]
    index: dict          # node id -> integer id
    factors: tuple       # of _Factor, one per node
    indicators: tuple    # of tuple[Marginal, ...], one per node
    topological: tuple[int, ...]
    elimination: tuple[int, ...]


def compile_model(model: BayesianModel) -> CompiledModel:
    """Build ``model``'s :class:`CompiledModel` from its CPT rows.

    Queries read it through ``model.compiled`` before any other check of
    theirs: this is their one check that every node has a CPT.
    """
    model.require_fully_specified()
    ids = model.graph.node_ids
    index = {nid: i for i, nid in enumerate(ids)}
    factors = []
    for node in model.graph.nodes:
        cpt = model.cpts[node.id]
        axes = tuple(index[p] for p in cpt.parent_order) + (index[node.id],)
        factors.append(_cpt_factor(cpt, model.domain, axes))
    indicators = tuple(tuple(Marginal.indicator(node.id, node.domain.states, state)
                             for state in node.domain.states)
                       for node in model.graph.nodes)
    topological = tuple(index[nid] for nid in topological_order(model.graph))
    return CompiledModel(ids, index, tuple(factors), indicators, topological,
                         topological[::-1])


# --------------------------------------------------------------- enumeration

def _full_joint(model: BayesianModel) -> np.ndarray:
    """The complete joint table with one axis per node, in integer-id order."""
    import numpy as np

    cards = tuple(len(n.domain) for n in model.graph.nodes)
    joint = np.ones(cards, dtype=np.float64)
    for f in model.compiled.factors:
        # The factor's axes are ascending ids; insert broadcast axes.
        shape = [1] * len(cards)
        for v in f.vars:
            shape[v] = cards[v]
        joint *= f.values.reshape(shape)
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
    var_order = model.graph.node_ids
    joint = _full_joint(model)

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
    """A table over ``vars``, one axis each; ``vars`` is always ascending.

    Variables are integer ids: a model's compiled ids, and in the temporal
    passes the template's, with each previous-slice copy numbered after the
    template's nodes.
    """

    vars: tuple[int, ...]
    values: np.ndarray

    def sum_out(self, var: int) -> "_Factor":
        import numpy as np

        ax = self.vars.index(var)
        return _Factor(self.vars[:ax] + self.vars[ax + 1:], np.add.reduce(self.values, ax))


def _product(factors: list, cards: dict) -> _Factor:
    """The product of ``factors`` over the ascending union of their variables.

    Each operand is broadcast to that scope and the operands are multiplied
    left to right, so every entry is the same left-to-right product, held in
    the same memory layout, as a chain of pairwise products gives.  ``cards``
    maps a variable to its axis length.
    """
    if len(factors) == 1:
        return factors[0]
    scope = tuple(sorted({v for f in factors for v in f.vars}))
    values = None
    for f in factors:
        operand = f.values.reshape([cards[v] if v in f.vars else 1 for v in scope])
        values = operand if values is None else values * operand
    return _Factor(scope, values)


def _reduce_factor(f: _Factor, evidence: dict) -> _Factor:
    """``f`` at the observed states; ``evidence`` maps a variable to its
    state index."""
    if not any(v in evidence for v in f.vars):
        return f
    keep_vars = []
    index = []
    for v in f.vars:
        if v in evidence:
            index.append(evidence[v])
        else:
            index.append(slice(None))
            keep_vars.append(v)
    return _Factor(tuple(keep_vars), f.values[tuple(index)])


def _eliminate(factors: list, order, keep, visit=None, steps=None) -> _Factor:
    """Sum the variables in ``order`` but those in ``keep`` out of the factor
    product, one at a time.

    The factor-level core of variable elimination, shared by
    :func:`eliminate_marginal` and the temporal interface passes, each of
    which passes its compiled form's one order.  Returns the product of what
    is left, over ``keep`` and every variable not in ``order``.

    Bucket elimination (Dechter 1999): each factor has a key, its position in
    ``factors`` and then one more for each factor a step makes, and each
    variable a bucket, the keys of the factors that hold it in ascending
    order.  A step takes the live factors in its variable's bucket, multiplies
    them in key order, sums the variable out and files the result under the
    next key.  So the products and sums are those of rescanning a factor list
    that keeps its order and appends each step's result.

    Only the order of the keys matters, so the live factors in key order are
    a pass's whole state.  ``visit(i, live)``, if given, is called with that
    list before the step of ``order[i]``.  For any ``other`` that agrees with
    ``keep`` on ``order[:i]``, ``_eliminate(live, order[i:], other)`` returns
    ``_eliminate(factors, order, other)`` bit for bit, because the steps
    before ``i`` are the same.  :func:`_all_marginals`, the one user of
    ``visit``, resumes each node's own elimination from one pass this way.

    ``steps``, if given, is a table of steps shared between runs: the key
    ``(var, *map(id, bucket))`` maps to ``(result, bucket)``.  A step whose
    key is in the table takes its result from there, and every other step is
    recorded in it.  A key names the same operands, the same objects in the
    same order, so a step found there has the bits it would have had if it
    had been computed again.  Each entry holds its bucket, which keeps every
    keyed object alive, so no id is reused while the table lives.
    :func:`~iotrisk.cascade.rank_criticality`, the one user of ``steps``,
    lends one evidence-free elimination's steps to the run of every candidate.
    """
    import numpy as np

    live = dict(enumerate(factors))
    buckets: dict = {}
    cards = {}
    for key, f in live.items():
        for v, card in zip(f.vars, f.values.shape):
            buckets.setdefault(v, []).append(key)
            cards[v] = card
    key = len(live)
    for i, var in enumerate(order):
        if var in keep:
            continue
        if visit is not None:
            visit(i, list(live.values()))
        # A key whose factor an earlier step consumed is no longer live.
        bucket = [live.pop(k) for k in buckets.pop(var, ()) if k in live]
        if not bucket:
            continue
        if steps is None:
            summed = _product(bucket, cards).sum_out(var)
        else:
            step = (var, *map(id, bucket))
            hit = steps.get(step)
            if hit is None:
                hit = steps[step] = (_product(bucket, cards).sum_out(var), bucket)
            summed = hit[0]
        live[key] = summed
        for v in summed.vars:
            buckets[v].append(key)
        key += 1

    return _product([_Factor((), np.float64(1.0)), *live.values()], cards)


def _reduced(model: BayesianModel, evidence) -> tuple[dict, dict, list]:
    """``(evidence, observed, factors)``: ``evidence`` checked, ``observed``
    variable -> state index, and the compiled factors, those over an observed
    node (its own and its children's) reduced to the observed states."""
    evidence = model.validate_evidence(evidence or {})
    compiled = model.compiled
    observed = {compiled.index[nid]: model.domain(nid).index(state)
                for nid, state in evidence.items()}
    factors = list(compiled.factors)
    children = model.graph._children
    for i in {compiled.index[h] for nid in evidence for h in (nid, *children.get(nid, ()))}:
        factors[i] = _reduce_factor(factors[i], observed)
    return evidence, observed, factors


def eliminate_marginal(model: BayesianModel, query: str, evidence=None, *,
                       _pass=None, _steps=None) -> Marginal:
    """Exact P(query | evidence) by variable elimination.

    Only the ancestors of the query and the evidence are summed out, in an
    order fixed for reproducibility: reverse topological order over those
    ancestors, ties broken by node id.  The factors of every other node are
    left out; their sums are 1.  Agrees with :func:`enumerate_marginal`, and
    with :func:`posterior_update`, to within ``ORACLE_TOL``.  An observed
    query returns the model's shared indicator marginal.

    ``_pass`` is private to :func:`posterior_update`: ``(observed, rest, live)``,
    its :func:`_all_marginals` pass's state before it sums out ``rest``, from
    which :func:`_resume` answers the query.  ``_steps`` is private to
    :func:`~iotrisk.cascade.rank_criticality`: a step table, as in
    :func:`_eliminate`, that records the steps of the query's full
    elimination, every node summed out.
    """
    compiled = model.compiled
    if _pass is not None:
        observed, rest, live = _pass
        return _resume(compiled, compiled.index[query], observed, rest, live, lambda: evidence)
    model.graph.node(query)  # raises UnknownNode
    evidence, observed, factors = _reduced(model, evidence)
    var = compiled.index[query]
    order = compiled.elimination
    # Ranking's runs borrow the steps of this full elimination, so a pass
    # that records them keeps every factor.
    if _steps is None:
        kept = {compiled.index[nid]
                for nid in _bfs(model.graph, (query, *evidence), upward=True)}
        factors = [f for i, f in enumerate(factors) if i in kept]
        order = tuple(v for v in order if v in kept)
    result = _eliminate(factors, order, (var,), steps=_steps)
    return _marginal(compiled, var, observed, result, lambda: evidence)


def _total(result: _Factor, evidence) -> float:
    """``result``'s total; one <= 0 raises ImpossibleEvidence naming ``evidence()``."""
    z = float(result.values.sum())
    if z <= 0.0:
        raise ImpossibleEvidence(f"evidence {evidence()!r} has probability 0")
    return z


def _marginal(compiled: CompiledModel, var: int, observed: dict, result: _Factor,
              evidence) -> Marginal:
    """Node ``var``'s answer from ``result``, the factor elimination left over
    it: its shared indicator if ``observed`` (variable -> state index) holds
    ``var``, else ``result`` normalized.  A total <= 0 raises as in :func:`_total`."""
    z = _total(result, evidence)
    indicators = compiled.indicators[var]
    if var in observed:
        return indicators[observed[var]]
    if result.vars != (var,):
        raise AssertionError(f"elimination left unexpected variables {result.vars!r}")
    dist = result.values / z
    dist = dist / dist.sum()
    return Marginal(compiled.ids[var], indicators[0].states, tuple(float(p) for p in dist))


def _resume(compiled: CompiledModel, var: int, observed: dict, rest, live: list,
            evidence) -> Marginal:
    """Node ``var``'s answer from ``live``, a pass's factors before it sums
    out ``rest``: an observed node's indicator, with no elimination, else the
    rest of the node's own, bit for bit the whole (see :func:`_eliminate`)."""
    if var in observed:
        return compiled.indicators[var][observed[var]]
    return _marginal(compiled, var, observed, _eliminate(live, rest, (var,)), evidence)


def posterior_update(model: BayesianModel, evidence=None) -> dict:
    """Posterior marginal for every node given the evidence.

    Evidence nodes come back as indicator distributions, without a run of
    their own.  Raises :class:`ImpossibleEvidence` when the evidence has
    probability zero.  One :func:`_all_marginals` pass runs each other node's
    full elimination, every node summed out, on from its state there: bit
    for bit one full elimination per node, at about half the steps.  It may
    differ from :func:`eliminate_marginal`, which sums out only ancestors,
    in the last bits, within ``ORACLE_TOL``.
    """
    compiled = model.compiled
    evidence, observed, factors = _reduced(model, evidence)

    def finish(q: int, rest, live: list) -> Marginal:
        return eliminate_marginal(model, compiled.ids[q], evidence, _pass=(observed, rest, live))

    return _all_marginals(compiled, factors, compiled.elimination, lambda: evidence, finish)


def _all_marginals(compiled: CompiledModel, factors: list, order, evidence, finish) -> dict:
    """Node id -> answer for every node of ``compiled``, the one all-node engine.

    One pass sums ``order`` out of ``factors``.  Before the step of each node
    ``q = order[i]``, ``finish(q, order[i:], live)`` answers q from the
    pass's factors there, by :func:`_resume`.  Ids beyond the nodes, the
    previous-slice copies, get no answer; the total is checked once.
    """
    answers = {}

    def visit(i: int, live: list) -> None:
        if order[i] < len(compiled.ids):
            answers[order[i]] = finish(order[i], order[i:], live)

    _total(_eliminate(factors, order, (), visit), evidence)
    return {nid: answers[q] for q, nid in enumerate(compiled.ids)}
