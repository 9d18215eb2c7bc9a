"""A differential property of the sweep: ``end_to_end`` equals the per-run
reference of ``augment_reference`` and ``vb_reference``, run by run and
point by point (``test_augmenter.assert_matches_reference``).

Random graphs sit on both sides of 16 edges (exact tables up to 16 edges,
Monte Carlo tables past them) and of 63 edges (int64 masks, then Python ints
in ``object`` arrays), take their weights from a small pool, so that tied
optima occur, and include ``p = 1`` edges.  ``tau`` is random, the sweep
points are drawn with ``0`` and the ``None`` control among them, and
``BLOCK_LEN`` is patched small, so that the runs of one sweep fall into
several blocks.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochmatch import graph_core, parallel
from stochmatch.augmenter import build_tables_exact, build_tables_monte_carlo, end_to_end
from stochmatch.exact import enumerable
from stochmatch.graph_core import Params

from test_augmenter import assert_matches_reference
from test_reveal_properties import random_graph

EDGES = st.one_of(st.integers(1, 20), st.integers(60, 66))
POINTS = st.lists(st.sampled_from([0, 1, 2, 4, None]), min_size=1, max_size=4, unique=True)


@settings(max_examples=50)
@given(m=EDGES, seed=st.integers(0, 1 << 16), tau=st.floats(0.02, 0.5), ts=POINTS,
       runs=st.integers(1, 9), block_len=st.integers(1, 4))
@example(m=16, seed=1, tau=0.1, ts=[0, 2, None], runs=7, block_len=3)
@example(m=17, seed=2, tau=0.1, ts=[None, 1, 0], runs=7, block_len=2)
@example(m=63, seed=3, tau=0.2, ts=[4, 0, None], runs=5, block_len=2)
@example(m=64, seed=4, tau=0.2, ts=[0, None, 1], runs=5, block_len=2)
# exact tables whose law once summed a marginal to just past 1
@example(m=16, seed=2145, tau=0.13721508702886803, ts=[0, 4, 1, None], runs=2, block_len=1)
def test_end_to_end_equals_the_reference_runs(m, seed, tau, ts, runs, block_len):
    g, _crucial_mask = random_graph(m, seed)
    params = Params.for_graph(g, 0.2, 1 / 576.0)
    t_max = max(t or 0 for t in ts)
    if enumerable(g):
        tables = build_tables_exact(g, params, t_max, tau=tau, pair_trials=40, seed=seed)
    else:
        tables = build_tables_monte_carlo(g, params, t_max, seed, tau=tau, x_trials=40,
                                          q_trials=10, pair_trials=10, cond_trials=4)
    with mock.patch.object(parallel, "BLOCK_LEN", block_len), \
            mock.patch.object(graph_core, "BLOCK_LEN", block_len):
        sweep = end_to_end(g, tables, ts, runs, seed)
        assert [res.t for res in sweep] == ts
        assert_matches_reference(g, tables, sweep, runs, seed)
