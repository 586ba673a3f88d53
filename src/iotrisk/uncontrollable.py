"""Handling of nodes that lack probabilistic data.

A node without a CPT is *uncontrollable*: nobody has quantified how its state
responds to its inputs.  Rather than blocking inference, such a node gets a
:class:`StateCatalogue` -- a plain prior over its possible states, declared by
the operator or defaulting to uniform (maximum entropy, nothing assumed).

:func:`resolve_uncontrollable` then treats the catalogue as the node's CPT --
identical across parent configurations, i.e. the node is modelled as
independent of its (retained but unquantified) incoming edges -- and runs
exact latent-variable inference.  Observed dependents pull the posterior away
from the catalogue exactly as Bayes' rule dictates, which is what makes an
uncontrollable state assessable at all: its children's tables encode how its
state shows up elsewhere.

Deterministic AND / OR table builders live here too, for goals whose state is
a pure logic function of their parents.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .errors import (
    InvalidArgument,
    InvalidDistribution,
    ModelError,
    NotUncontrollable,
    UnknownState,
    UnresolvableNode,
)
from .graph import StateDomain
from .inference import eliminate_marginal
from .model import BayesianModel, Cpt, Marginal, check_distribution

# Most parent-state combinations a catalogue-backed table may have, one row
# each.  Building 2^16 rows takes about 0.8 s (16 binary parents; 18 take
# 3.5 s, on a 2-core x86-64 host), and the rows grow as the product of the
# parents' domain sizes, so a wider gap is refused before any row is built.
MAX_GAP_ROWS = 1 << 16


class CatalogueSource(enum.Enum):
    DECLARED = "declared"
    DEFAULT_UNIFORM = "uniform"


@dataclass(frozen=True)
class StateCatalogue:
    """Prior probability per possible state of an uncontrollable node."""

    node: str
    prior: tuple[float, ...]
    source: CatalogueSource

    def __post_init__(self):
        check_distribution(self.prior, f"catalogue[{self.node!r}]")


def detect_uncontrollable(model: BayesianModel) -> frozenset:
    """Exactly the nodes with no declared CPT."""
    return frozenset(n.id for n in model.graph.nodes if n.id not in model.cpts)


def catalogue(model: BayesianModel, node_id: str, declared=None) -> StateCatalogue:
    """The node's state catalogue: the declared prior, or uniform by default."""
    node = model.graph.node(node_id)
    if node_id in model.cpts:
        raise NotUncontrollable(
            f"node {node_id!r} has a CPT; catalogues are for uncontrollable nodes")
    if declared is not None:
        prior = tuple(float(p) for p in declared)
        if len(prior) != len(node.domain):
            raise InvalidDistribution(
                f"catalogue[{node_id!r}]: {len(prior)} entries for a "
                f"{len(node.domain)}-state domain")
        return StateCatalogue(node_id, prior, CatalogueSource.DECLARED)
    n = len(node.domain)
    return StateCatalogue(node_id, (1.0 / n,) * n, CatalogueSource.DEFAULT_UNIFORM)


def complete_model(model: BayesianModel, catalogues=None) -> BayesianModel:
    """Substitute a catalogue-backed CPT for every uncontrollable node.

    The substituted table repeats the catalogue prior for every parent-state
    combination: with no data there is no conditional structure to assert, so
    the node is treated as independent of its parents until data exists.
    A model with no uncontrollable node is returned as it is.  A node whose
    parents have more than ``MAX_GAP_ROWS`` state combinations raises
    :class:`ModelError` naming it.
    """
    catalogues = dict(catalogues or {})
    extra = {}
    for node_id in sorted(detect_uncontrollable(model)):
        cat = catalogues.get(node_id) or catalogue(model, node_id)
        if cat.node != node_id:
            raise NotUncontrollable(
                f"catalogue for {cat.node!r} supplied under key {node_id!r}")
        parents = model.graph.parents(node_id)
        domains = [tuple(model.domain(p)) for p in parents]
        combinations = math.prod(map(len, domains))
        if combinations > MAX_GAP_ROWS:
            raise ModelError(f"uncontrollable node {node_id!r} has {combinations} parent-state "
                             "combinations; a catalogue-backed table may have at most "
                             f"{MAX_GAP_ROWS}")
        rows = {combo: cat.prior for combo in itertools.product(*domains)}
        extra[node_id] = Cpt(node_id, parents, rows)
    return model.with_cpts(extra) if extra else model


def resolve_uncontrollable(model: BayesianModel, node_id: str, evidence=None,
                           catalogues=None) -> Marginal:
    """Posterior of an uncontrollable node given observations elsewhere.

    The node's children must all have declared CPTs (they are the only place
    its state leaves a trace); a CPT-less child raises
    :class:`UnresolvableNode`.  Other uncontrollable nodes in the model are
    completed from their own catalogues so exact inference can run.
    """
    model.graph.node(node_id)  # raises UnknownNode
    uncontrollable = detect_uncontrollable(model)
    if node_id not in uncontrollable:
        raise NotUncontrollable(f"node {node_id!r} has a CPT; nothing to resolve")
    blocked = [c for c in model.graph.children(node_id) if c in uncontrollable]
    if blocked:
        raise UnresolvableNode(
            f"cannot resolve {node_id!r}: dependent(s) {blocked} also lack CPTs")
    completed = complete_model(model, catalogues)
    return eliminate_marginal(completed, node_id, evidence or {})


# ------------------------------------------------------- logic-gate builders

def _true_state(domain, true_state: str | None, node_id: str) -> str:
    states = tuple(domain)
    if true_state is None:
        return states[0]
    if true_state not in states:
        raise UnknownState(f"{true_state!r} is not a state of {node_id!r}")
    return true_state


def logic_gate_cpt(node_id: str, domain: StateDomain, parent_domains,
                   gate: str, true_states=None) -> Cpt:
    """Deterministic table: the node is 'true' per an AND/OR of its parents.

    ``parent_domains`` maps parent id -> domain; ``true_states`` maps ids to
    the state counted as true, defaulting to the first state of each domain.
    AND: true iff every parent is true.  OR: true iff at least one parent is.
    The node's own domain must be binary.

    Raises :class:`InvalidArgument` (a ``ValueError``) for an unknown gate or
    a non-binary domain, and :class:`UnknownState` for a true state the node
    or parent lacks.
    """
    if gate not in ("and", "or"):
        raise InvalidArgument(f"gate must be 'and' or 'or', got {gate!r}")
    states = tuple(domain)
    if len(states) != 2:
        raise InvalidArgument(
            f"logic-gate tables require a binary domain; {node_id!r} has {len(states)} states")
    true_states = dict(true_states or {})
    parent_domains = {p: tuple(d) for p, d in dict(parent_domains).items()}
    parents = tuple(sorted(parent_domains))
    node_true = _true_state(domain, true_states.get(node_id), node_id)
    node_false = next(s for s in states if s != node_true)
    parent_true = {p: _true_state(parent_domains[p], true_states.get(p), p)
                   for p in parents}

    rows = {}
    for combo in itertools.product(*(parent_domains[p] for p in parents)):
        flags = [s == parent_true[p] for p, s in zip(parents, combo)]
        result = all(flags) if gate == "and" else any(flags)
        value = node_true if result else node_false
        rows[combo] = tuple(1.0 if s == value else 0.0 for s in states)
    return Cpt(node_id, parents, rows)


def and_cpt(node_id: str, domain: StateDomain, parent_domains, true_states=None) -> Cpt:
    return logic_gate_cpt(node_id, domain, parent_domains, "and", true_states)


def or_cpt(node_id: str, domain: StateDomain, parent_domains, true_states=None) -> Cpt:
    return logic_gate_cpt(node_id, domain, parent_domains, "or", true_states)
