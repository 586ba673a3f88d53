"""Seeded Monte Carlo forward sampling, used as an independent check on the
exact inference paths.

Samples are drawn in topological order from the model's compiled tables
(``model.compiled``, shared with exact inference) with numpy's PCG64
generator, whose stream is specified and stable across platforms for a given
seed, so the same (model, n, seed) triple always yields bitwise-identical
frequencies.  With n = 10^6 the empirical marginals sit within ~0.0015
(3 sigma) of the exact values, which is why the agreement tolerance used by
the test suite is 0.002.

The node at topological position k reads uniforms k*n .. (k+1)*n - 1 of the
stream of ``default_rng(seed)``, one 64-bit output per uniform.  Each node
gets its own PCG64 generator jumped ahead to its offset (``advance`` costs
O(log k*n) steps), so all nodes can be drawn together one block of
``BLOCK`` samples at a time, and the frequencies equal those of drawing
every node's n uniforms from one generator in one call.  Within a block a
node's states are kept only while a child of it is still to be drawn.
Memory is O(BLOCK x (live nodes + states)) whatever n is.
"""

from __future__ import annotations

from .errors import InvalidArgument
from .model import BayesianModel, Marginal, _check_int

# Samples per block: the uniforms and row indices of one node's block, and
# the states of the block's live nodes, are the only arrays whose size does
# not come from the model's tables.
BLOCK = 1 << 14


def monte_carlo_sample(model: BayesianModel, n: int, seed: int) -> dict:
    """Empirical per-node state frequencies from ``n`` forward samples.

    ``n`` must be an integer from 1 to the largest array index, and ``seed``
    an integer >= 0.  Any other value raises :class:`InvalidArgument` before
    anything is allocated.
    """
    import numpy as np

    n = _check_int(n, "sample count", 1)
    largest = np.iinfo(np.intp).max
    if n > largest:
        raise InvalidArgument(f"sample count must be <= {largest}, got {n}")
    seed = _check_int(seed, "seed", 0)
    compiled = model.compiled
    order = compiled.topological
    # A node's factor axes are its parents' ids and its own, ascending.
    parent_ids = {i: [v for v in compiled.factors[i].vars if v != i] for i in order}
    last_child = {p: k for k, i in enumerate(order) for p in parent_ids[i]}

    counts: dict[int, np.ndarray] = {}
    draws = []
    for k, i in enumerate(order):
        f = compiled.factors[i]
        # Back to the CPT's layout: parents in order, the node's axis last.
        table = np.moveaxis(f.values, f.vars.index(i), -1)
        card = table.shape[-1]
        # The last cumulative column is pinned to 1.0 and u < 1, so it never
        # counts; only the first card - 1 thresholds are compared.
        cumulative = np.cumsum(table.reshape(-1, card), axis=1)
        parents = [(p, table.shape[a]) for a, p in enumerate(parent_ids[i])]
        bits = np.random.PCG64(seed)
        bits.advance(k * n)
        draws.append((i, np.random.Generator(bits), cumulative, parents,
                      np.min_scalar_type(card - 1)))
        counts[i] = np.zeros(card, dtype=np.int64)

    for lo in range(0, n, BLOCK):
        size = min(BLOCK, n - lo)
        states: dict[int, np.ndarray] = {}
        for k, (i, rng, cumulative, parents, dtype) in enumerate(draws):
            u = rng.random(size)
            # Row index per sample: mixed-radix over the parents' states, the
            # row order of the CPT table.
            row = np.zeros(size, dtype=np.intp)
            for p, pcard in parents:
                row *= pcard
                row += states[p]
            card = cumulative.shape[1]
            state = np.zeros(size, dtype=dtype)
            for col in range(card - 1):
                state += u > cumulative[row, col]
            counts[i] += np.bincount(state, minlength=card)
            if i in last_child:
                states[i] = state
            for p, _ in parents:
                if last_child[p] == k:
                    del states[p]

    out = {}
    for i, node in enumerate(model.graph.nodes):
        freq = counts[i] / float(n)
        out[node.id] = Marginal(node.id, node.domain.states,
                                tuple(float(x) for x in freq))
    return out
