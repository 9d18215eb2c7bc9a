"""Differential properties of the batch-reveal path of ``y'``.

Random graphs sit on both sides of 63 edges (int64 masks up to 63 edges,
Python ints in ``object`` arrays past that), take their weights from a
small pool, so that tied optima reach networkx, and include ``p = 1``
edges.  Their reveals are the batches of arrivals in random orders on drawn
realizations, as ``run_vb`` forms them.  Each property compares the array
code with a plain reference:

- ``MonteCarloConditional.y_primes`` with a row-by-row Python count of its
  pool for the reveals that at least ``trials`` rows agree with, and of the
  reveal's own ``trials`` rows, drawn from its stream, for the others;
- ``MatchingLaw.y_primes`` with ``MatchingLaw.y_prime``, edge by edge;
- ``run_vb`` with ``reference_run_vb``, row by row.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochmatch import estimator
from stochmatch.estimator import MonteCarloConditional, estimate_y
from stochmatch.exact import MatchingLaw
from stochmatch.graph_core import Edge, StochasticGraph, mask_edges, sample_masks
from stochmatch.parallel import rng_from
from stochmatch.vb_matching import draw_run_inputs

from test_estimator import empty_pool, pool_reference, resampled_y_primes
from vb_reference import assert_rows_equal_reference

WEIGHTS = (1.0, 2.0, 3.0)
PROBS = (0.3, 0.7, 1.0)
# Edge counts on both sides of 63; a graph past 63 edges has no matching
# table, so each of its masks is a networkx solve and its budgets stay small.
EDGES = st.one_of(st.integers(1, 20), st.integers(60, 68))


def random_graph(m, seed):
    """``m`` distinct edges on the fewest vertices that hold them (at least
    3) plus up to two more, weights from ``WEIGHTS``, probabilities from
    ``PROBS``, and a random crucial mask."""
    rng = rng_from(seed)
    n = 3
    while n * (n - 1) // 2 < m:
        n += 1
    n += int(rng.integers(3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(rng.choice(len(pairs), size=m, replace=False).tolist())
    g = StochasticGraph(n=n, edges=tuple(
        Edge(*pairs[i], float(rng.choice(WEIGHTS)), float(rng.choice(PROBS))) for i in chosen))
    crucial_mask = sum(1 << e for e in range(m) if rng.random() < 0.7)
    return g, crucial_mask


def arrival_reveals(g, crucial_mask, seed, runs):
    """The distinct batch reveals ``(batch_mask, batch_bits)`` with a
    realized edge of ``runs`` runs, each in a random arrival order on a drawn
    realization, in order of first appearance."""
    rng = rng_from(seed, 1)
    reveals = {}
    for real in sample_masks(g, rng, runs).tolist():
        arrived = set()
        for v in rng.permutation(g.n).tolist():
            batch_mask = sum(1 << e for e in g.incident[v]
                             if crucial_mask >> e & 1 and g.other_end(e, v) in arrived)
            arrived.add(v)
            if batch_mask & real:
                reveals[batch_mask, batch_mask & real] = None
    return list(reveals)


@settings(max_examples=30)
@given(m=EDGES, seed=st.integers(0, 1 << 16), pool_rows=st.integers(1, 40),
       at_rows=st.integers(0, 100), per_chunk=st.sampled_from([1, 2, 3, 1 << 20]))
@example(m=63, seed=1, pool_rows=12, at_rows=1, per_chunk=2)
@example(m=64, seed=2, pool_rows=12, at_rows=1, per_chunk=2)
def test_monte_carlo_y_primes_pool_or_resample_each_reveal(m, seed, pool_rows, at_rows,
                                                           per_chunk):
    g, crucial_mask = random_graph(m, seed)
    _y_hat, pool = estimate_y(g, crucial_mask, min(pool_rows, 12) if m > 63 else pool_rows,
                              seed=seed)
    reveals = arrival_reveals(g, crucial_mask, seed, 6)
    rows = [sum(r & mask == bits for r in pool[0].tolist()) for mask, bits in reveals]
    # the trial budget is the row count of some reveal, so that this reveal
    # sits exactly at the pooling threshold; a chunk holds `per_chunk` reveals
    counts = sorted({r for r in rows if r > 0}) or [1]
    trials = counts[at_rows % len(counts)]
    law = MonteCarloConditional(g, crucial_mask, np.full(g.m, 0.5), trials, seed, rows=pool)
    expected = []
    for reveal, count in zip(reveals, rows):
        edges = mask_edges(reveal[1])
        if count >= trials:
            expected.append([pool_reference(pool, crucial_mask, e, *reveal)[0] / count
                             for e in edges])
        else:
            expected.append(resampled_y_primes(g, crucial_mask, *reveal, trials, seed))
    with mock.patch.object(estimator, "SCAN_CELLS", per_chunk * law.pool.words.size):
        assert law.y_primes(reveals) == expected
    pooled = sum(count >= trials for count in rows)
    assert (law.pooled_reveals, law.resampled_reveals) == (pooled, len(reveals) - pooled)


@settings(max_examples=30)
@given(m=st.integers(1, 12), seed=st.integers(0, 1 << 16))
def test_matching_law_y_primes_equal_y_prime_edge_by_edge(m, seed):
    g, crucial_mask = random_graph(m, seed)
    law = MatchingLaw.from_pipeline(g, crucial_mask)
    reveals = arrival_reveals(g, crucial_mask, seed, 6)
    reveals += [(mask, 0) for mask, _bits in reveals[:1]]  # no realized edge: no y'
    assert law.y_primes(reveals) == [[law.y_prime(e, *reveal) for e in mask_edges(reveal[1])]
                                     for reveal in reveals]


@settings(max_examples=30)
@given(m=EDGES, seed=st.integers(0, 1 << 16), pool_rows=st.integers(0, 40),
       trials=st.integers(1, 6), runs=st.integers(1, 12), y=st.sampled_from([0.1, 0.5, 1.0]))
@example(m=63, seed=3, pool_rows=10, trials=3, runs=8, y=0.5)
@example(m=64, seed=4, pool_rows=10, trials=3, runs=8, y=0.5)
@example(m=8, seed=5, pool_rows=0, trials=1, runs=12, y=0.1)
def test_run_vb_rows_equal_the_reference(m, seed, pool_rows, trials, runs, y):
    # a pool of 0 rows: the exact law on small graphs, every reveal
    # resampled on large ones; the reference asks a second copy of the law
    # one reveal at a time
    g, crucial_mask = random_graph(m, seed)
    if pool_rows == 0 and m <= 12:
        law = ref_law = MatchingLaw.from_pipeline(g, crucial_mask)
    else:
        rows = estimate_y(g, crucial_mask, min(pool_rows, 12 if m > 63 else 40), seed=seed)[1] \
            if pool_rows else empty_pool(g)
        law, ref_law = (MonteCarloConditional(g, crucial_mask, np.full(g.m, y), trials, seed,
                                              rows=rows) for _ in range(2))
    perms, reals, uniforms = draw_run_inputs(law, rng_from(seed, 2), runs)
    assert_rows_equal_reference(law, perms, reals, uniforms, ref_law)
