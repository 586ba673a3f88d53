"""Time-sliced models: a slice template replicated over discrete time.

The template is a complete static model of one instant; inter-slice edges add
first-order dynamics (slice t feeds slice t+1, never further).  All temporal
queries are *defined* by unrolling: :func:`unroll` produces a flat model with
one copy of the template per slice (ids suffixed ``@0``, ``@1``, ...), and
:func:`filter_marginals` / :func:`smooth_marginals` / :func:`predict_marginals`
mean exact inference on that flat model.  The three differ only in which
slices carry evidence relative to the queried slice:

* filter  -- estimate *now* from everything observed so far,
* smooth  -- re-estimate a *past* slice using later observations too,
* predict -- extrapolate an unobserved *future* slice.

The queries do not unroll, though.  They pass messages over the *interface*,
the sources of temporal edges, which d-separates the past from the future
(the interface algorithm; Murphy 2002, ch. 3).  A forward message carries the
interface distribution given the evidence so far from slice to slice; a
backward message carries the likelihood of later evidence back to the
queried slice.  Each step is variable elimination on one slice's tables, so a
query costs O(t) small factor operations.  The steps are those of a static
query: :mod:`iotrisk.inference` builds the slice tables, sums out one order
per model in every pass, keeping the variables the pass needs, and answers
every node of the queried slice from one shared pass.  :func:`unroll` and
:func:`unrolled_marginals` are kept as the oracle these passes are tested
against.

The passes use the template's compiled integer ids: template node ``i`` is
``i`` and its copy one slice back ``n + i``, for ``n`` template nodes.  A
message moves a slice by adding or subtracting ``n``; its axes stay ascending.

Slice parameters are shared across time (slice >= 1 all use the transition
tables), so the dynamics are time-homogeneous by construction.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (
    InvalidArgument,
    InvalidHorizon,
    ObservationBeyondHorizon,
    ValidationFailed,
)
from .graph import ComponentNode, DependencyGraph, InfluenceEdge, _check_states
from .inference import (
    eliminate_marginal,
    _all_marginals,
    _cpt_factor,
    _eliminate,
    _Factor,
    _reduce_factor,
    _total,
)
from .model import BayesianModel, Cpt, Marginal, _check_int, _is_int, _table_issues

SLICE_SEP = "@"

# Longest time axis a query may span (slices 0 .. max_horizon - 1).  Queries
# cost O(t) by interface passes; the guard still bounds every query and the
# :func:`unroll` oracle, whose VE cost can grow exponentially with slice count.
DEFAULT_MAX_HORIZON = 64


def slice_id(node_id: str, t: int) -> str:
    """Unrolled id of a template node at slice ``t``."""
    return f"{node_id}{SLICE_SEP}{t}"


@dataclass(frozen=True)
class SliceTemplate:
    """One slice's nodes, edges and CPTs (a fully specified static model)."""

    model: BayesianModel

    def __post_init__(self):
        self.model.require_fully_specified()
        bad = [n.id for n in self.model.graph.nodes if SLICE_SEP in n.id]
        if bad:
            raise ValidationFailed(
                [("$.template", f"node ids may not contain {SLICE_SEP!r}: {bad}")])


@dataclass(frozen=True)
class TemporalEdge:
    """Link from ``source`` at slice t to ``target`` at slice t+1.

    ``cpt`` is the target's complete transition table: its parents are the
    target's intra-slice parents plus every temporal source feeding it, all
    referenced by plain template ids and sorted ascending.  When several
    temporal edges share a target they must carry equal tables.
    """

    source: str
    target: str
    cpt: Cpt


class _Slices(NamedTuple):
    """A :class:`TemporalModel`'s slice tables and elimination order."""

    size: int                  # template nodes; node i one slice back is size + i
    tables: tuple              # (slice 0's factors, every later slice's factors)
    interface: frozenset       # the temporal sources, which a forward pass keeps
    previous: frozenset        # them one slice back, which a backward pass keeps
    order: tuple[int, ...]     # previous ascending, then the template's order


@dataclass(frozen=True)
class TemporalModel:
    """Slice template + inter-slice edges + optional slice-0 priors.

    Construction checks the model and groups the temporal edges by target
    once, for every reader of them; the queries' slice tables, ``_slices``,
    are built on first use.  Neither is a field, so equality ignores both.
    """

    template: SliceTemplate
    temporal_edges: tuple[TemporalEdge, ...]
    initial_cpts: dict
    max_horizon: int

    def __init__(self, template, temporal_edges, initial_cpts=None,
                 max_horizon: int = DEFAULT_MAX_HORIZON):
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "temporal_edges",
                           tuple(sorted(set(temporal_edges),
                                        key=lambda e: (e.target, e.source))))
        object.__setattr__(self, "initial_cpts", dict(initial_cpts or {}))
        object.__setattr__(self, "max_horizon", max_horizon)
        object.__setattr__(self, "_transitions", self._check())

    @cached_property
    def _slices(self) -> _Slices:
        """Built by the first query and kept; template tables are the
        template model's compiled ones."""
        model = self.template.model
        compiled = model.compiled
        n = len(compiled.ids)

        def factor(cpt: Cpt, sources=()) -> _Factor:
            axes = tuple(compiled.index[p] + (n if p in sources else 0) for p in cpt.parent_order)
            return _cpt_factor(cpt, model.domain, axes + (compiled.index[cpt.node],))

        initial, later = [], []
        for nid, table in zip(compiled.ids, compiled.factors):
            initial.append(factor(self.initial_cpts[nid]) if nid in self.initial_cpts else table)
            sources, cpt = self._transitions.get(nid, ((), None))
            later.append(table if cpt is None else factor(cpt, sources))
        interface = frozenset(compiled.index[s]
                              for sources, _ in self._transitions.values() for s in sources)
        previous = tuple(n + i for i in sorted(interface))
        return _Slices(n, (tuple(initial), tuple(later)), interface, frozenset(previous),
                       previous + compiled.elimination)

    def _check(self) -> dict:
        """Raise :class:`ValidationFailed` listing every issue, else return
        target -> (temporal sources ascending, transition table).  Tables are
        checked only once ``max_horizon`` and every edge are sound."""
        issues = _max_horizon_issues(self.max_horizon)
        graph = self.template.model.graph
        grouped: dict[str, tuple[list, Cpt]] = {}

        for edge in self.temporal_edges:
            path = f"$.temporal.edges[{edge.source}->{edge.target}]"
            for endpoint in (edge.source, edge.target):
                if endpoint not in graph:
                    issues.append((path, f"unknown template node {endpoint!r}"))
            sources, cpt = grouped.setdefault(edge.target, ([], edge.cpt))
            if cpt != edge.cpt:
                issues.append((path, "temporal edges into one target carry different "
                                     "transition tables"))
            if edge.source not in sources:
                sources.append(edge.source)  # edges are sorted, so sources ascend
        if issues:
            raise ValidationFailed(issues)

        for target, (sources, cpt) in grouped.items():
            path = f"$.temporal.transition_cpts.{target}"
            intra = graph.parents(target)
            overlap = set(intra) & set(sources)
            if overlap:
                issues.append((path,
                               f"{sorted(overlap)} are both intra-slice and temporal "
                               f"parents of {target!r}; this is not supported"))
                continue
            issues.extend(_table_issues(graph, cpt, target, tuple(sorted(intra + tuple(sources))),
                                        path, "intra-slice and temporal parents"))

        for node_id, cpt in sorted(self.initial_cpts.items()):
            path = f"$.temporal.initial_cpts.{node_id}"
            if node_id not in grouped:
                issues.append((path,
                               f"{node_id!r} has no incoming temporal edge; "
                               "initial priors apply only to temporal targets"))
                continue
            issues.extend(_table_issues(graph, cpt, node_id, graph.parents(node_id), path,
                                        "intra-slice parents"))

        if issues:
            raise ValidationFailed(issues)
        return {target: (tuple(sources), cpt) for target, (sources, cpt) in grouped.items()}

    # ------------------------------------------------------------- accessors

    @property
    def transition_cpts(self) -> dict:
        return {target: cpt for target, (_, cpt) in self._transitions.items()}

    def temporal_sources(self, target: str) -> tuple[str, ...]:
        return self._transitions[target][0] if target in self._transitions else ()


def _max_horizon_issues(max_horizon) -> list:
    """The (path, message) issue of a limit that is not an integer >= 1, if any."""
    if not _is_int(max_horizon):
        return [("$.temporal.max_horizon", f"expected an integer, got {max_horizon!r}")]
    if max_horizon < 1:
        # No query could run: even slice 0 would be beyond the limit.
        return [("$.temporal.max_horizon", f"expected an integer >= 1, got {max_horizon}")]
    return []


@dataclass(frozen=True)
class ObservationSeries:
    """Time-indexed evidence: an ordered list of (slice index, evidence)
    pairs, each evidence a mapping of node id to state."""

    entries: tuple

    def __init__(self, entries=()):
        flat: list[tuple[int, str, str]] = []
        last_t = 0
        seen: set[tuple[str, int]] = set()
        for entry in entries:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                    and isinstance(entry[1], Mapping)):
                raise InvalidArgument("observation entry must be a (time, {node: state}) "
                                      f"pair, got {entry!r}")
            t, evidence = entry
            t = _check_int(t, "observation time", 0, InvalidHorizon)
            if t < last_t:
                raise InvalidHorizon("observation times must be non-decreasing")
            last_t = t
            for node_id, state in sorted(evidence.items()):
                if (node_id, t) in seen:
                    raise InvalidHorizon(
                        f"duplicate observation for node {node_id!r} at time {t}")
                seen.add((node_id, t))
                flat.append((t, node_id, state))
        object.__setattr__(self, "entries", tuple(flat))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def max_time(self) -> int | None:
        return max((t for t, _, _ in self.entries), default=None)

    def unrolled_evidence(self) -> dict:
        return {slice_id(node_id, t): state for t, node_id, state in self.entries}


# ---------------------------------------------------------------- operations

def unroll(model: TemporalModel, horizon: int) -> BayesianModel:
    """Flatten ``horizon`` slices into one static model.

    Slice 0 uses the initial priors where given (template tables otherwise);
    every later slice uses the transition tables for temporal targets and the
    template tables for everything else.
    """
    horizon = _check_int(horizon, "horizon", 1, InvalidHorizon)
    _check_horizon(model, horizon - 1, f"horizon {horizon} (slices 0..{horizon - 1})")

    template_model = model.template.model
    graph = template_model.graph

    nodes = []
    edges = []
    cpts: dict[str, Cpt] = {}
    for t in range(horizon):
        for node in graph.nodes:
            nodes.append(ComponentNode(slice_id(node.id, t), node.layer, node.domain,
                                       node.is_service_goal, node.description))
        for edge in graph.edges:
            edges.append(InfluenceEdge(slice_id(edge.source, t), slice_id(edge.target, t)))
        if t > 0:
            for tedge in model.temporal_edges:
                edges.append(InfluenceEdge(slice_id(tedge.source, t - 1),
                                           slice_id(tedge.target, t)))
        for node in graph.nodes:
            table = template_model.cpts[node.id]
            if t == 0:
                sources, cpt = (), model.initial_cpts.get(node.id, table)
            else:
                sources, cpt = model._transitions.get(node.id, ((), table))
            # A parent sits one slice back exactly when it is a temporal source.
            rename = {p: slice_id(p, t - 1 if p in sources else t) for p in cpt.parent_order}
            cpts[slice_id(node.id, t)] = _rename_parents(cpt, slice_id(node.id, t), rename)

    return BayesianModel(DependencyGraph(nodes, edges), cpts)


def unrolled_marginals(model: TemporalModel, obs: ObservationSeries,
                       k: int, horizon: int) -> dict:
    """Oracle: P(node@k | obs) per template node, by VE on ``unroll(model, horizon)``.

    The definition the fast queries are checked against; its cost grows
    exponentially with ``horizon``, so use it on short horizons only.  ``k``
    must be an integer in 0 .. horizon - 1, else :class:`InvalidHorizon`; an
    observation at a later slice raises :class:`ObservationBeyondHorizon`.
    """
    horizon = _check_int(horizon, "horizon", 1, InvalidHorizon)
    k = _check_int(k, "queried slice", 0, InvalidHorizon)
    if k >= horizon:
        raise InvalidHorizon(f"queried slice {k} is beyond horizon {horizon} "
                             f"(slices 0..{horizon - 1})")
    _check_series(obs)
    if obs.max_time is not None and obs.max_time >= horizon:
        raise ObservationBeyondHorizon(f"observation at time {obs.max_time} is beyond "
                                       f"horizon {horizon} (slices 0..{horizon - 1})")
    _prepare(model, obs, horizon - 1)  # checks nodes and states by template id, before any work
    flat = unroll(model, horizon)
    evidence = obs.unrolled_evidence()
    out = {}
    for node in model.template.model.graph.nodes:
        marg = eliminate_marginal(flat, slice_id(node.id, k), evidence)
        out[node.id] = Marginal(node.id, marg.states, marg.probabilities)
    return out


def _rename_parents(cpt: Cpt, new_node: str, rename: dict) -> Cpt:
    """Rebuild a CPT under a parent renaming, keeping parent_order sorted."""
    renamed = [rename[p] for p in cpt.parent_order]
    order = sorted(range(len(renamed)), key=lambda k: renamed[k])
    new_parents = tuple(renamed[k] for k in order)
    new_rows = {tuple(key[k] for k in order): dist for key, dist in cpt.rows.items()}
    return Cpt(new_node, new_parents, new_rows)


def _check_horizon(model: TemporalModel, last: int, requested: str) -> None:
    """Refuse a query that reaches slice ``last``; ``requested`` names that
    slice in the caller's own terms."""
    if last >= model.max_horizon:
        raise InvalidHorizon(f"{requested} is beyond max_horizon {model.max_horizon} "
                             f"(slices 0..{model.max_horizon - 1})")


def _check_series(obs) -> None:
    """An ``obs`` that is not an :class:`ObservationSeries` raises
    :class:`InvalidArgument`."""
    if not isinstance(obs, ObservationSeries):
        raise InvalidArgument(f"observations must be an ObservationSeries, got {obs!r}")


def _prepare(model: TemporalModel, obs: ObservationSeries, last_obs_time: int) -> dict:
    """Validate ``obs``; return slice -> {template id: state index}."""
    _check_series(obs)
    template = model.template.model
    by_slice: dict[int, dict[int, int]] = {}
    for t, node_id, state in obs:
        _check_states(template.graph, {node_id: state})
        if t > last_obs_time:
            raise ObservationBeyondHorizon(
                f"observation at time {t} is beyond the query time {last_obs_time}")
        slot = by_slice.setdefault(t, {})
        slot[template.compiled.index[node_id]] = template.domain(node_id).index(state)
    return by_slice


def _slice_factors(slices: _Slices, evidence: dict, s: int, messages) -> list:
    """Slice ``s``'s tables reduced by its evidence, plus ``messages``.

    A temporal source observed at slice s-1 is reduced on its previous-slice
    axis too, since that evidence already removed it from the forward message.
    """
    observed = dict(evidence.get(s, {}))
    observed.update((slices.size + i, state) for i, state in evidence.get(s - 1, {}).items())
    factors = [_reduce_factor(f, observed) for f in slices.tables[min(s, 1)]]
    return factors + [m for m in messages if m is not None]


def _sweep(slices: _Slices, evidence: dict, obs: ObservationSeries, steps,
           keep: frozenset, shift: int) -> _Factor | None:
    """One message pass: eliminate each slice of ``steps`` in turn with the
    message so far, keeping ``keep``; normalize the result to sum 1 and move
    every id by ``shift`` to give the next message.  None for no steps."""
    message = None
    for s in steps:
        factors = _slice_factors(slices, evidence, s, [message])
        result = _eliminate(factors, slices.order, keep)
        z = _total(result, obs.unrolled_evidence)
        message = _Factor(tuple(v + shift for v in result.vars), result.values / z)
    return message


def _posteriors(model: TemporalModel, obs: ObservationSeries, evidence: dict,
                k: int, last: int) -> dict:
    """P(node@k | evidence in slices 0..last) for every template node.

    Two sweeps carry messages to slice k: the forward message alpha runs
    over slices 0..k-1 and holds the interface at k-1; the backward message
    beta runs from ``last`` back to k+1 and holds the likelihood of that
    evidence given the interface at k.  One shared pass over slice k's tables
    between the two then answers every node; a node observed at slice k gets
    the template's shared indicator marginal, and no elimination.
    """
    slices = model._slices
    alpha = _sweep(slices, evidence, obs, range(k), slices.interface, slices.size)
    beta = _sweep(slices, evidence, obs, range(last, k, -1), slices.previous, -slices.size)
    return _all_marginals(model.template.model,
                          _slice_factors(slices, evidence, k, [alpha, beta]),
                          slices.order, obs.unrolled_evidence, evidence.get(k, {}))


def filter_marginals(model: TemporalModel, obs: ObservationSeries, t: int) -> dict:
    """Current-state estimate: P(node@t | observations through t), per node."""
    t = _check_int(t, "time index", 0, InvalidHorizon)
    evidence = _prepare(model, obs, t)
    _check_horizon(model, t, f"time index {t}")
    return _posteriors(model, obs, evidence, t, t)


def smooth_marginals(model: TemporalModel, obs: ObservationSeries,
                     k: int, t: int) -> dict:
    """Past-state estimate: P(node@k | observations through t), k <= t."""
    k = _check_int(k, "smoothed slice", 0, InvalidHorizon)
    t = _check_int(t, "time index", k, InvalidHorizon)
    evidence = _prepare(model, obs, t)
    _check_horizon(model, t, f"time index {t}")
    return _posteriors(model, obs, evidence, k, t)


def predict_marginals(model: TemporalModel, obs: ObservationSeries,
                      t: int, h: int) -> dict:
    """Future-state estimate: P(node@(t+h) | observations through t), h >= 1."""
    t = _check_int(t, "time index", 0, InvalidHorizon)
    h = _check_int(h, "prediction horizon", 1, InvalidHorizon)
    evidence = _prepare(model, obs, t)
    _check_horizon(model, t + h, f"predicted slice {t + h} (time index {t} + horizon {h})")
    # No evidence after t: the forward pass simply runs on through t+h-1.
    return _posteriors(model, obs, evidence, t + h, t + h)
