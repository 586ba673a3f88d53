"""Seeded Monte Carlo forward sampling, used as an independent check on the
exact inference paths.

Samples are drawn in topological order from the model's compiled tables
(``model.compiled``, shared with exact inference) with numpy's PCG64
generator, whose stream is specified and stable across platforms for a given
seed, so the same (model, n, seed) triple always yields bitwise-identical
frequencies.  With n = 10^6 the empirical marginals sit within ~0.0015
(3 sigma) of the exact values, which is why the agreement tolerance used by
the test suite is 0.002.

Memory is bounded by n bytes per live node plus O(BLOCK x card) scratch.  A
node's sampled states are kept, one byte each (the smallest unsigned dtype
that holds its state index), only while a child of it is still to be drawn;
everything else is worked in blocks of ``BLOCK`` samples.
Node by node the generator still hands out n uniforms in topological order,
and drawing them block by block consumes the same stream, so the
frequencies are the same as drawing all n at once.
"""

from __future__ import annotations

from .errors import InvalidArgument
from .model import BayesianModel, Marginal

# Samples per block: the uniforms, row indices and thresholds of one block
# of one node are the only float/index arrays alive at a time.
BLOCK = 1 << 18


def monte_carlo_sample(model: BayesianModel, n: int, seed: int) -> dict:
    """Empirical per-node state frequencies from ``n`` forward samples.

    ``n`` must be at least 1 and at most the largest array index; ``seed``
    must be non-negative.  Either fault raises :class:`InvalidArgument`
    before anything is allocated.
    """
    import numpy as np

    if n < 1:
        raise InvalidArgument(f"sample count must be >= 1, got {n}")
    largest = np.iinfo(np.intp).max
    if n > largest:
        raise InvalidArgument(f"sample count must be <= {largest}, got {n}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    model.require_fully_specified()
    rng = np.random.default_rng(seed)
    compiled = model.compiled
    order = compiled.topological
    # A node's factor axes are its parents' ids and its own, ascending.
    parent_ids = {i: [v for v in compiled.factors[i].vars if v != i] for i in order}
    last_child = {p: k for k, i in enumerate(order) for p in parent_ids[i]}

    samples: dict[int, np.ndarray] = {}
    counts: dict[int, np.ndarray] = {}
    for k, i in enumerate(order):
        f = compiled.factors[i]
        # Back to the CPT's layout: parents in order, the node's axis last.
        table = np.moveaxis(f.values, f.vars.index(i), -1)
        card = table.shape[-1]
        # The last cumulative column is pinned to 1.0 and u < 1, so it never
        # counts; only the first card - 1 thresholds are compared.
        cumulative = np.cumsum(table.reshape(-1, card), axis=1)
        parents = [(samples[p], table.shape[a]) for a, p in enumerate(parent_ids[i])]
        dtype = np.min_scalar_type(card - 1)
        drawn = np.empty(n, dtype=dtype) if i in last_child else None
        tally = np.zeros(card, dtype=np.int64)
        for lo in range(0, n, BLOCK):
            hi = min(lo + BLOCK, n)
            u = rng.random(hi - lo)
            # Row index per sample: mixed-radix over the parents' states, the
            # row order of the CPT table.
            row = np.zeros(hi - lo, dtype=np.intp)
            for states, pcard in parents:
                row *= pcard
                row += states[lo:hi]
            state = np.zeros(hi - lo, dtype=dtype)
            for col in range(card - 1):
                state += u > cumulative[row, col]
            tally += np.bincount(state, minlength=card)
            if drawn is not None:
                drawn[lo:hi] = state
        counts[i] = tally
        if drawn is not None:
            samples[i] = drawn
        for p in parent_ids[i]:
            if last_child[p] == k:
                del samples[p]

    out = {}
    for i, node in enumerate(model.graph.nodes):
        freq = counts[i] / float(n)
        out[node.id] = Marginal(node.id, node.domain.states,
                                tuple(float(x) for x in freq))
    return out
