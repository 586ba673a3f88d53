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
  It keeps only the requisite tables, those that Bayes-Ball (Shachter
  1998) finds can change the answer: not a barren node's, which sums to 1,
  nor one that observed nodes cut off from the query.  Where a table so
  dropped holds a zero, it keeps the tables of every ancestor of the query
  and the evidence instead, so that its total still checks the evidence.
  Each variable has a bucket of the factors over it (bucket elimination,
  Dechter 1999), and a bucket is multiplied in one pass.  The products and
  sums are those of rescanning one factor list per variable, in the same
  order, so the answers are bit for bit those of that simpler algorithm.
* :func:`posterior_update` -- every node's marginal under one evidence set.
  Under one order, each node's full elimination, every node summed out,
  repeats the steps of one pass up to that node's position, so
  :func:`_all_marginals` resumes each unobserved node there, inside the
  pass, and runs only the rest of its order: the same products and sums,
  hence the same bits, at about half the steps.  Criticality ranking
  resumes each candidate's elimination the same way, inside one
  evidence-free pass per service node, before the first step over a factor
  the candidate's evidence reduces; that pass ends at the last such step.
  A point answer leaves out the tables that are not requisite, so it may
  differ from these in its last bits, within ``ORACLE_TOL``.

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
share this core: :func:`_cpt_factor` builds their tables,
:func:`_eliminate` sums out one order per compiled form, and
:func:`_all_marginals` answers each node.

Every elimination is split in two.  :func:`_plan` works on factor scopes and
axis lengths alone: it does the bucket bookkeeping and records each step's
operand slots, reshapes, summed axis and result scope.  :func:`_run`, the one
executor, then multiplies and sums the tables as the plan says.  A plan
depends on which variables are observed, since those leave the reduced
factors' scopes, but never on their observed states, which only pick the
entries that reduction keeps.  So :func:`eliminate_marginal` keeps each
plan on the :class:`CompiledModel`, keyed by ``(query id, frozenset of
observed ids)``, and a later query with the same key replays it under any
states: no graph walk, no reduction of factors that pruning drops, no
bucket or scope work.  A step whose every operand is a factor over no
observed variable, or another such step's result, gives the same table
under any states, so a point plan runs it once, when it is built (a query
DAG compiled for its query and observed set, Darwiche & Provan 1997), and
keeps the tables later steps read.  Every call, the first as each later
one, reduces the factors the evidence touches and replays only the steps
that remain, through :func:`_run`, with the same products and sums in the
same order, so the same bits.  The memo holds plans and tables keyed by
the observed set, never by states, and no answer: each call checks its
total and builds its own :class:`Marginal`, so it cannot return one made
under other evidence.  Every other caller plans on each call, ranking's
plans sharing their bucket shapes, and runs every step.  A plan has one
step per position of its order, and a pass is visited before each step
and after the last.

Evidence with zero probability raises :class:`ImpossibleEvidence` rather than
returning NaNs: it means the model and the observation contradict each other.
All functions are pure and models are immutable, so concurrent use is safe.
The one shared mutable state, the plan memo, only ever maps a key to its
immutable plan, and a lock guards its insertion and eviction.
"""

from __future__ import annotations

import itertools
import logging
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .errors import ImpossibleEvidence, IncompleteAssignment
from .graph import _bfs, _requisite, topological_order
from .model import BayesianModel, Marginal

if TYPE_CHECKING:
    import numpy as np

# Agreement tolerance between the two exact query paths.
ORACLE_TOL = 1e-9

logger = logging.getLogger(__name__)


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


# The most point-query plans one CompiledModel keeps; past it, each new
# plan evicts the oldest.
_MAX_PLANS = 256


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

    ``plans`` is :func:`eliminate_marginal`'s memo: ``(query id, frozenset of
    observed ids)`` -> that query's immutable plan (a ``_PointPlan``): the
    ids of the factors it keeps, its steps, and the read-only tables of the
    steps that no observed state reaches, run when it was built.  It holds at
    most 256 plans (``_MAX_PLANS``), and adding one to a full table evicts
    the oldest.  Each plan holds at most one table per kept factor over no
    observed variable, each no larger than the largest table its own
    elimination makes, so the memo's memory is bounded by 256 such plans.
    It holds no answer.  ``lock`` guards insertion and eviction; a lookup
    reads without it.
    """

    ids: tuple[str, ...]
    index: dict          # node id -> integer id
    factors: tuple       # of _Factor, one per node
    indicators: tuple    # of tuple[Marginal, ...], one per node
    topological: tuple[int, ...]
    elimination: tuple[int, ...]
    plans: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)


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


def _reduce_factor(f: _Factor, evidence: dict) -> _Factor:
    """``f`` at the observed states; ``evidence`` maps a variable to its
    state index."""
    if evidence.keys().isdisjoint(f.vars):
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


def _multiply(values: list, slots, shapes) -> np.ndarray:
    """The product of the tables in ``slots`` of ``values``, left to right,
    each reshaped to its entry of ``shapes`` so that all broadcast to one
    scope; with ``shapes`` None, the lone table itself.  Every entry is the
    same left-to-right product, held in the same memory layout, as a chain
    of pairwise products gives."""
    if shapes is None:
        return values[slots[0]]
    product = values[slots[0]].reshape(shapes[0])
    for k in range(1, len(slots)):
        product = product * values[slots[k]].reshape(shapes[k])
    return product


def _broadcast(scopes: list, cards: dict) -> tuple:
    """``(scope, shapes)`` for the product of factors over ``scopes``: the
    ascending union of their variables and each one's reshape to it, or the
    lone scope and None.  ``cards`` maps a variable to its axis length."""
    if len(scopes) == 1:
        return scopes[0], None
    scope = tuple(sorted(set().union(*scopes)))
    axis = {v: k for k, v in enumerate(scope)}
    ones = [1] * len(scope)
    shapes = []
    for s in scopes:
        shape = ones[:]
        for v in s:
            shape[axis[v]] = cards[v]
        shapes.append(tuple(shape))
    return scope, tuple(shapes)


def _apply(step: tuple, values: list) -> np.ndarray:
    """The result of ``step``, one of a :class:`_Plan`'s, from ``values``,
    the tables in slot order: the product of its operands, with its variable
    summed out."""
    import numpy as np

    return np.add.reduce(_multiply(values, step[1], step[2]), step[3])


class _Plan(NamedTuple):
    """A symbolic elimination, built from factor scopes and axis lengths
    alone.  Immutable.

    Each step is a tuple ``(var, operands, shapes, axis, scope)``: multiply
    the factors in the ``operands`` slots, ascending, each reshaped as
    ``shapes`` says (see :func:`_broadcast`), sum ``var`` out of the
    product's axis ``axis``, and file the result, a factor over ``scope``,
    in the next slot; with no operands, make nothing.  A plan from
    :func:`_plan` has one step per position of its order, so a step's index
    is its variable's position.  After the steps comes the product of the
    factors in ``live``, broadcast to ``scope`` by ``shapes``.
    """

    steps: tuple
    live: tuple
    shapes: tuple | None
    scope: tuple


def _plan(factors, order, keep, broadcasts: dict | None = None) -> _Plan:
    """The plan that sums the variables in ``order`` but those in ``keep``
    out of the product of ``factors``, one at a time.  It reads only their
    scopes and axis lengths, so it fits any factors that have them.

    Bucket elimination (Dechter 1999): each factor has a slot, its position
    in ``factors`` and then one more for each factor a step makes, and each
    variable a bucket, the slots of the factors that hold it in ascending
    order.  A step takes the live factors in its variable's bucket,
    multiplies them in slot order, sums the variable out and files the
    result under the next slot.  So the products and sums are those of
    rescanning a factor list that keeps its order and appends each step's
    result.  Each position of ``order`` has a step, with no operands for a
    kept variable or one no live factor holds: :func:`_run` visits each.

    ``broadcasts``, if given, maps a bucket's operand scopes to their
    :func:`_broadcast`, for plans whose variables have the same axis
    lengths: a caller that plans many eliminations of one model lends it to
    each, which then works out the shapes of a bucket met before once.
    """
    scopes = []
    buckets: dict = {}
    cards: dict = {}
    for slot, f in enumerate(factors):
        scopes.append(f.vars)
        for v, card in zip(f.vars, f.values.shape):
            buckets.setdefault(v, []).append(slot)
            cards[v] = card
    live = dict.fromkeys(range(len(scopes)), True)  # the live slots, ascending
    steps = []
    for var in order:
        # A slot whose factor an earlier step consumed is no longer live.
        bucket = () if var in keep else tuple(
            [slot for slot in buckets.pop(var, ()) if live.pop(slot, False)])
        if not bucket:
            steps.append((var, (), None, None, None))
            continue
        if len(bucket) == 1:
            product, shapes = scopes[bucket[0]], None
        elif broadcasts is None:
            product, shapes = _broadcast([scopes[slot] for slot in bucket], cards)
        else:
            operands = tuple([scopes[slot] for slot in bucket])
            known = broadcasts.get(operands)
            if known is None:
                known = broadcasts[operands] = _broadcast(operands, cards)
            product, shapes = known
        axis = product.index(var)
        scope = product[:axis] + product[axis + 1:]
        slot = len(scopes)
        for v in scope:
            buckets[v].append(slot)
        live[slot] = True
        scopes.append(scope)
        steps.append((var, bucket, shapes, axis, scope))
    rest = tuple(live)
    scope, shapes = _broadcast([scopes[slot] for slot in rest], cards) if rest else ((), None)
    return _Plan(tuple(steps), rest, shapes, scope)


def _run(plan: _Plan, factors: list, visit=None) -> _Factor:
    """Run ``plan`` on ``factors``, one per slot of the scopes it was built
    from: the one elimination executor.  Returns the product of what is
    left, the scalar 1 if nothing is.  Each step drops the tables it
    consumed, so beyond ``factors`` a run holds only its live tables.

    Only the order of the slots matters, so the live factors in slot order
    are a pass's whole state.  ``visit(i, live)``, if given, is called with
    that list before step ``i`` and, ``i`` the step count, after the last.
    A run that keeps ``other``, which agrees with ``keep`` on ``order[:i]``,
    over factors that differ only in ones over no variable of ``order[:i]``,
    makes this pass's steps before ``i``.  So ``_eliminate(live, order[i:],
    other)``, those factors swapped into ``live``, returns that run's result
    bit for bit.  :func:`_all_marginals` resumes each node this way inside
    the visit, and ranking each candidate: a pass holds only live tables.
    """
    import numpy as np

    values = [f.values for f in factors]
    if visit is not None:
        live = dict(enumerate(factors))  # the live slots, ascending
    for i, step in enumerate(plan.steps):
        if visit is not None:
            visit(i, list(live.values()))
        if not step[1]:
            continue
        values.append(_apply(step, values))
        for slot in step[1]:  # no later step reads it: free its table now
            values[slot] = None
        if visit is not None:
            for slot in step[1]:
                del live[slot]
            live[len(values) - 1] = _Factor(step[4], values[-1])
    if visit is not None:
        visit(len(plan.steps), list(live.values()))
    if not plan.live:
        return _Factor((), np.float64(1.0))
    return _Factor(plan.scope, _multiply(values, plan.live, plan.shapes))


def _eliminate(factors: list, order, keep, broadcasts=None) -> _Factor:
    """Sum the variables in ``order`` but those in ``keep`` out of the factor
    product, one at a time: :func:`_plan` over the factors' scopes (see there
    for ``broadcasts``), then :func:`_run` with no visit.

    Every run that resumes a pass, and each slice of a temporal sweep, comes
    through here with its compiled form's one order or a tail of it.
    Returns the product of what is left, over ``keep`` and every variable
    not in ``order``.
    """
    return _run(_plan(factors, order, keep, broadcasts), factors)


def _observed(model: BayesianModel, evidence) -> tuple[dict, dict]:
    """``(evidence, observed)``: ``evidence`` checked, and ``observed``
    variable -> state index."""
    evidence = model.validate_evidence(evidence or {})
    index = model.compiled.index
    return evidence, {index[nid]: model.domain(nid).index(state)
                      for nid, state in evidence.items()}


def _reduced(model: BayesianModel, evidence) -> tuple[dict, dict, list]:
    """``(evidence, observed, factors)``: as from :func:`_observed`, and the
    compiled factors, each passed through :func:`_reduce_factor`, which
    leaves one over no observed variable as it is."""
    evidence, observed = _observed(model, evidence)
    return evidence, observed, [_reduce_factor(f, observed) for f in model.compiled.factors]


class _PointPlan(NamedTuple):
    """A point query's memoized plan, for one query and one set of observed
    variables.  Immutable.

    ``kept`` holds the ids of the factors the query keeps, ascending: the
    requisite ones, or every ancestral one where a dropped table holds a
    zero (see :func:`_point_plan`).  Of the plan that eliminates those
    factors, each reduced to the observed states, the steps that no observed
    state reaches, those whose every operand is a factor over no observed
    variable or another such step's result, ran when it was built.
    ``folded`` holds, read-only, the tables over no observed variable that
    the other steps or the final product read: those steps' results and
    kept factors.  ``reduce`` holds the ids of the kept factors over an
    observed variable.  ``replay`` is the rest of that plan, its slots
    renumbered: ``folded``, then ``reduce``'s factors reduced, then each
    remaining step's result, with the same products and sums in the same
    order."""

    kept: tuple
    folded: tuple
    reduce: tuple
    replay: _Plan


def _point_plan(model: BayesianModel, var: int, evidence: dict, observed: dict) -> _PointPlan:
    """The :class:`_PointPlan` of ``var`` under ``observed``.

    The plan keeps the factors of the requisite nodes, those whose tables
    Bayes-Ball finds can change the answer (see
    :func:`~iotrisk.graph._requisite`), and sums them out in the reverse
    topological order restricted to them.  They are a subset of the
    ancestors of the query and the evidence.  A dropped ancestral table can
    still be the one that makes the evidence impossible, so the plan drops
    them only if every one is strictly positive: then the kept product sums
    to 0 exactly when P(evidence) is 0, and the total still checks the
    evidence.  Otherwise it keeps every ancestor's factor.

    Each step that no observed state reaches runs here, once, through
    :func:`_apply` as in :func:`_run`: its table is the same under every
    state of ``observed``.  Like the plan, its tables depend on which
    variables are observed and never on their states.
    """
    import numpy as np

    compiled = model.compiled
    index = compiled.index
    query = compiled.ids[var]
    nodes = _bfs(model.graph, (query, *evidence), upward=True)
    requisite = _requisite(model.graph, query, evidence)
    if all(compiled.factors[index[nid]].values.min() > 0
           for nid in nodes if nid not in requisite):
        nodes = requisite
    kept = sorted([index[nid] for nid in nodes])
    factors = [_reduce_factor(compiled.factors[i], observed) for i in kept]
    members = set(kept)
    order = tuple([v for v in compiled.elimination if v in members])
    plan = _plan(factors, order, (var,))

    # values[slot] is the slot's table where no observed state reaches it,
    # else None; scopes[slot] its variables.  _reduce_factor leaves a
    # factor over no observed variable as it is.
    values = [f.values if f is compiled.factors[i] else None for f, i in zip(factors, kept)]
    scopes = [f.vars for f in factors]
    replayed = []  # (step, its result's slot)
    folds = []     # the variables of the steps run here
    for step in plan.steps:
        if not step[1]:
            continue
        if all(values[slot] is not None for slot in step[1]):
            folds.append(step[0])
            table = _apply(step, values)
            if isinstance(table, np.ndarray):
                table.flags.writeable = False
            for slot in step[1]:  # no later step reads it
                values[slot] = None
        else:
            table = None
            replayed.append((step, len(values)))
        values.append(table)
        scopes.append(step[4])
    reads = sorted({slot for step, _ in replayed for slot in step[1]}.union(plan.live))
    folded = [slot for slot in reads if values[slot] is not None]
    reduce = [slot for slot in reads if slot < len(kept) and values[slot] is None]
    renumber = {slot: k for k, slot in enumerate(folded + reduce + [made for _, made in replayed])}
    steps = tuple([(v, tuple([renumber[slot] for slot in operands]), shapes, axis, scope)
                   for (v, operands, shapes, axis, scope), _ in replayed])
    replay = _Plan(steps, tuple([renumber[slot] for slot in plan.live]), plan.shapes, plan.scope)
    ids = compiled.ids
    logger.debug("point plan for %r given %r observed: keeps %r, folds %r, replays %r",
                 query, sorted(evidence), [ids[i] for i in kept], [ids[v] for v in folds],
                 [ids[step[0]] for step in steps])
    return _PointPlan(tuple(kept),
                      tuple([_Factor(scopes[slot], values[slot]) for slot in folded]),
                      tuple([kept[slot] for slot in reduce]), replay)


def eliminate_marginal(model: BayesianModel, query: str, evidence=None, *,
                       _pass=None) -> Marginal:
    """Exact P(query | evidence) by variable elimination.

    Only the requisite nodes, those whose tables Bayes-Ball finds can
    change the answer, are summed out, in an order fixed for
    reproducibility: reverse topological order over those nodes, ties
    broken by node id.  Each is an ancestor of the query or the evidence.
    The other tables only scale the result, but a zero in one of them can
    scale it to 0.  So they are left out only if every one is strictly
    positive, and otherwise every ancestor's table is kept.  Either way the
    total is 0 exactly when the evidence's probability is, and then
    :class:`ImpossibleEvidence` is raised, as by enumeration.  Agrees with
    :func:`enumerate_marginal`, and with :func:`posterior_update`, to within
    ``ORACLE_TOL``.  An observed query returns the model's shared indicator
    marginal.

    The plan of that elimination depends only on the query and on which
    nodes are observed, so the first call with a pair builds it, and the
    model's :class:`CompiledModel` keeps it for later calls with the same
    pair, whatever the observed states.  Building it also runs the steps
    that no observed state reaches, whose tables are the same under every
    state, and keeps the tables later steps read.  Every call, the first
    included, then checks its query and evidence, reduces the factors the
    evidence touches, runs the remaining steps, checks its total and
    builds its own answer, bit for bit that of running every step.

    ``_pass`` is private to the visits of :func:`_all_marginals` and
    :func:`~iotrisk.cascade.rank_criticality`: ``(observed, rest, live,
    broadcasts)``, a pass's factors at a visit, before it sums out ``rest``,
    reduced by ``observed``.  The answer is the rest of the query's own
    elimination, bit for bit the whole (see :func:`_run`), its plan sharing
    ``broadcasts`` (see :func:`_plan`); ``evidence()`` names the evidence
    in an error.  With no ``live``, the observed query's indicator needs no
    plan or run: the pass checks the total.
    """
    compiled = model.compiled
    if _pass is not None:
        observed, rest, live, broadcasts = _pass
        var = compiled.index[query]
        if not live:
            return compiled.indicators[var][observed[var]]
        return _marginal(compiled, var, observed,
                         _eliminate(live, rest, (var,), broadcasts), evidence)
    model.graph.node(query)  # raises UnknownNode
    var = compiled.index[query]
    evidence, observed = _observed(model, evidence)
    key = (var, frozenset(observed))
    point = compiled.plans.get(key)
    if point is None:
        point = _point_plan(model, var, evidence, observed)
        with compiled.lock:
            if len(compiled.plans) >= _MAX_PLANS:
                del compiled.plans[next(iter(compiled.plans))]  # the oldest
            compiled.plans[key] = point
    inputs = [*point.folded, *[_reduce_factor(compiled.factors[i], observed)
                               for i in point.reduce]]
    return _marginal(compiled, var, observed, _run(point.replay, inputs), lambda: evidence)


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
    return Marginal(compiled.ids[var], indicators[0].states, tuple(dist.tolist()))


def posterior_update(model: BayesianModel, evidence=None) -> dict:
    """Posterior marginal for every node given the evidence.

    Evidence nodes come back as indicator distributions, without a run of
    their own.  Raises :class:`ImpossibleEvidence` when the evidence has
    probability zero.  One :func:`_all_marginals` pass runs each other node's
    full elimination, every node summed out, on from its state there: bit
    for bit one full elimination per node, at about half the steps.  It may
    differ from :func:`eliminate_marginal`, which sums out only the
    requisite nodes (see there), in the last bits, within ``ORACLE_TOL``.
    """
    order = model.compiled.elimination  # the check for every CPT comes first
    evidence, observed, factors = _reduced(model, evidence)
    return _all_marginals(model, factors, order, lambda: evidence, observed)


def _all_marginals(model: BayesianModel, factors: list, order, evidence, observed: dict) -> dict:
    """Node id -> answer for every node of ``model``, the one all-node engine.

    One pass sums ``order`` out of ``factors``, reduced by ``observed``
    (variable -> state index).  At its visit before the step of each node
    ``q = order[i]``, :func:`eliminate_marginal` resumes q inside the pass
    (see ``_pass``).  The pass checks the total, so an observed node gets
    its indicator with no live factors: the rest of its own elimination is
    the rest of the pass.  Ids beyond the nodes, the previous-slice copies,
    and the final visit get no answer.  An error names ``evidence()``.
    """
    ids = model.compiled.ids
    answers = {}

    def visit(i: int, live: list) -> None:
        if i < len(order) and order[i] < len(ids):
            q = order[i]
            answers[q] = eliminate_marginal(model, ids[q], evidence, _pass=(
                observed, order[i:], [] if q in observed else live, None))

    _total(_run(_plan(factors, order, ()), factors, visit), evidence)
    return {nid: answers[q] for q, nid in enumerate(ids)}
