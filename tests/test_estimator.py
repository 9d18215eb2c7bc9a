import math
from collections import Counter

import numpy as np
import pytest

from stochmatch import estimator
from stochmatch.estimator import (
    MonteCarloConditional,
    ProbEstimate,
    estimate_pair_alive,
    estimate_q,
    estimate_x,
    estimate_y,
    estimate_y_conditional,
)
from stochmatch.exact import MatchingLaw, exact_x
from stochmatch.gadgets import benchmark_6v8e, four_cycle, isolated_pair, two_path
from stochmatch.graph_core import (
    Edge,
    StochasticGraph,
    gen_random_graph,
    mask_dtype,
    mask_edges,
    sample_masks,
)
from stochmatch.mwm import mm_edge_mask
from stochmatch.parallel import rng_from, worker_pool
from stochmatch.sparsifier import classify_edges, draw_plans
from stochmatch.vb_matching import draw_run_inputs, exact_vb_enumeration, run_vb

from vb_reference import reference_run_vb


def graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


def test_prob_estimate_se():
    est = ProbEstimate.from_count(250, 1000)
    assert est.value == 0.25
    assert est.std_err == pytest.approx(math.sqrt(0.25 * 0.75 / 1000))


def test_estimate_x_deterministic_single_edge_p1():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    (est,) = estimate_x(g, trials=500, seed=0)
    assert est.value == 1.0 and est.std_err == 0.0


def test_estimate_x_single_edge_matches_p():
    g = graph(2, [(0, 1, 1.0, 0.3)])
    (est,) = estimate_x(g, trials=100_000, seed=5)
    assert abs(est.value - 0.3) <= 3 * est.std_err


def test_estimate_x_shared_vertex_sums_to_one_exactly():
    g = graph(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    ests = estimate_x(g, trials=2000, seed=1)
    assert ests[0].value + ests[1].value == 1.0


def test_estimate_x_per_vertex_fractional_property_exact():
    g = graph(5, [(0, 1, 1.0, 0.6), (1, 2, 1.2, 0.7), (2, 3, 0.8, 0.5),
                  (3, 4, 1.1, 0.6), (0, 4, 0.9, 0.8)])
    trials = 4000
    ests = estimate_x(g, trials=trials, seed=2)
    counts = [round(e.value * trials) for e in ests]
    for v in range(g.n):
        assert sum(counts[e] for e in g.incident[v]) <= trials


def test_estimate_x_matches_enumeration():
    gadget = four_cycle()
    g = gadget.graph
    x = exact_x(g)
    ests = estimate_x(g, trials=60_000, seed=3)
    for e in range(g.m):
        assert abs(ests[e].value - x[e]) <= 3.5 * max(ests[e].std_err, 1e-9)


def test_estimate_x_deterministic_across_workers():
    g = four_cycle().graph
    a = estimate_x(g, trials=5000, seed=9)
    with worker_pool(3):
        b = estimate_x(g, trials=5000, seed=9)
    assert [e.value for e in a] == [e.value for e in b]


def test_estimate_x_on_graph_without_matching_table():
    # 66 edges: realizations do not fit an int64 and the oracle has no table
    g = gen_random_graph(12, 1.0, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=5)
    assert g.m == 66
    trials = 48
    xs = estimate_x(g, trials=trials, seed=2)
    assert xs == estimate_x(g, trials=trials, seed=2)
    counts = [round(est.value * trials) for est in xs]
    assert any(counts[e] for e in range(63, 66))
    for v in range(g.n):
        assert sum(counts[e] for e in g.incident[v]) <= trials
    # every realization of a dense graph has a matching covering most vertices
    assert sum(counts) >= trials * 4


def test_estimate_y_no_crucial_edges():
    g = two_path().graph
    ests, _rows = estimate_y(g, crucial_mask=0, trials=1000, seed=0)
    assert all(e.value == 0.0 for e in ests)


def test_estimate_y_single_crucial_edge_p1():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    (est,), _rows = estimate_y(g, crucial_mask=1, trials=1000, seed=0)
    assert est.value == 1.0


def test_estimate_y_all_crucial_matches_x_distribution():
    gadget = two_path()
    g = gadget.graph
    xs = estimate_x(g, trials=40_000, seed=21)
    ys, _rows = estimate_y(g, g.full_mask, trials=40_000, seed=22)
    for e in range(g.m):
        gap = abs(xs[e].value - ys[e].value)
        assert gap <= 3.5 * math.hypot(xs[e].std_err, ys[e].std_err)


def empty_pool(g):
    """Rows ``(reals, answers)`` of a pool that holds none: a law built on it
    resamples every reveal."""
    empty = np.zeros(0, dtype=mask_dtype(g.m))
    return empty, empty


def test_estimate_y_conditional_single_edge():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    [(counts, rows)] = estimate_y_conditional(g, 1, [(1, 1)], trials=200, seed=0)
    assert counts.tolist() == [rows] == [200]  # a realized positive-weight edge is always kept


def test_estimate_y_conditional_requires_realized_edge():
    # the realized edges of a reveal are edges of its revealed batch
    g = graph(3, [(0, 1, 1.0, 0.5), (1, 2, 1.0, 0.5)])
    for reveal in ((0b10, 0b11), (0, 0b01)):
        with pytest.raises(ValueError, match="bits must lie in the batch mask"):
            estimate_y_conditional(g, 0b11, [(0b11, 0b10), reveal], trials=10, seed=0)


def test_estimate_y_conditional_empty_reveal_matches_unconditional():
    # an empty reveal (first arrival) has no realized edge to count; a
    # batch of edge 0 alone conditions on nothing but its own realization,
    # so its y' is y / p
    gadget = two_path()
    g = gadget.graph
    [(counts, rows)] = estimate_y_conditional(g, g.full_mask, [(0, 0)], trials=10, seed=7)
    assert counts.tolist() == [] and rows == 10
    [(counts, rows)] = estimate_y_conditional(g, g.full_mask, [(0b01, 0b01)], trials=50_000,
                                              seed=7)
    est = ProbEstimate.from_count(int(counts[0]), rows)
    y = gadget.law.y[0] / g.edges[0].p
    assert abs(est.value - y) <= 3.5 * max(est.std_err, 1e-9)


def test_estimate_y_conditional_matches_exact_conditional():
    # two crucial edges sharing a vertex, both revealed realized
    gadget = two_path()
    g = gadget.graph
    [(counts, rows)] = estimate_y_conditional(g, g.full_mask, [(0b11, 0b11)], trials=50_000,
                                              seed=8)
    assert counts.sum() <= rows
    for e, count in enumerate(counts.tolist()):
        est = ProbEstimate.from_count(count, rows)
        exact = gadget.law.y_prime(e, 0b11, 0b11)
        assert abs(est.value - exact) <= 3.5 * max(est.std_err, 1e-9)


def batch_reveals(g, crucial_mask, seed, count):
    """``count`` distinct batch reveals ``(batch_mask, batch_bits)``, the
    first one empty: each other one the crucial edges of a random endpoint
    of a random crucial edge ``e``, a random part of them realized with
    ``e``."""
    rng = rng_from(seed)
    crucial = mask_edges(crucial_mask)
    reveals = {(0, 0): None}
    while len(reveals) < count:
        e = int(rng.choice(crucial))
        v = g.endpoints(e)[int(rng.integers(2))]
        batch = [f for f in g.incident[v] if (crucial_mask >> f) & 1]
        batch_mask = sum(1 << f for f in batch)
        batch_bits = (1 << e) | sum(1 << f for f in batch if rng.random() < 0.5)
        reveals[batch_mask, batch_bits] = None
    return list(reveals)


def resampled_rows(g, batch_mask, batch_bits, trials, seed):
    """The ``trials`` rows ``(reals, answers)`` a law draws for a thin
    reveal, each realization answered on its own: the reveal's hidden edges
    from the stream the law derives for it, its revealed bits fixed."""
    rng = rng_from(seed, estimator._TAG_COND, batch_mask, batch_bits)
    hidden = mask_edges(g.full_mask & ~batch_mask)
    reals = [mask | batch_bits for mask in sample_masks(g, rng, trials, scope=hidden).tolist()]
    dtype = mask_dtype(g.m)
    return (np.array(reals, dtype=dtype),
            np.array([mm_edge_mask(g, real) for real in reals], dtype=dtype))


def resampled_y_primes(g, crucial_mask, batch_mask, batch_bits, trials, seed):
    """y' of each realized edge of a thin reveal, counted row by row on the
    reveal's own rows (:func:`resampled_rows`)."""
    rows = resampled_rows(g, batch_mask, batch_bits, trials, seed)
    counted = [pool_reference(rows, crucial_mask, e, batch_mask, batch_bits)
               for e in mask_edges(batch_bits)]
    assert all(agree == trials for _count, agree in counted)
    return [count / trials for count, _agree in counted]


@pytest.mark.parametrize("n, density, trials", [(12, 0.3, 40), (14, 0.8, 6)],
                         ids=["19_edges", "76_edges"])
def test_y_primes_equal_the_per_query_estimates(n, density, trials):
    # every reveal is thin on an empty pool: each is counted on its own rows
    g = gen_random_graph(n, density, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=3)
    assert g.m in (19, 76)  # int64 masks, and object masks past 63 edges
    crucial_mask = sum(1 << e for e in range(0, g.m, 2))
    law = MonteCarloConditional(g, crucial_mask, np.full(g.m, 0.4), trials, seed=5,
                                rows=empty_pool(g))
    reveals = batch_reveals(g, crucial_mask, 6, 12)
    expected = [resampled_y_primes(g, crucial_mask, *reveal, trials, 5) for reveal in reveals]
    assert law.y_primes(reveals) == expected
    flat = [value for values in expected for value in values]
    assert expected[0] == [] and 0.0 < sum(flat) < len(flat)
    assert all(sum(values) <= 1.0 for values in expected)
    assert law.y_primes([]) == []
    assert (law.pooled_reveals, law.resampled_reveals) == (0, len(reveals))
    # the resampler answers any reveal, one whose realized edge is not
    # crucial (edge 1) included
    counted = estimate_y_conditional(g, crucial_mask, reveals + [(0b10, 0b10)], trials, 5)
    assert [(counts / rows).tolist() for counts, rows in counted] == expected + [[0.0]]
    assert [rows for _counts, rows in counted] == [trials] * (len(reveals) + 1)


def pool_reference(pool, crucial_mask, e, batch_mask, batch_bits):
    """``(count, rows)`` of a query on a pool, row by row in Python ints."""
    reals, answers = pool
    rows = [a for r, a in zip(reals.tolist(), answers.tolist()) if r & batch_mask == batch_bits]
    return sum(1 for a in rows if (a & crucial_mask) >> e & 1), len(rows)


@pytest.mark.parametrize("n, density, pool_rows, trials, cells", [
    (12, 0.3, 400, 40, 1000), (14, 0.8, 150, 6, 700)], ids=["19_edges", "76_edges"])
def test_pooled_y_primes_equal_the_reference(monkeypatch, n, density, pool_rows, trials,
                                             cells):
    # reveals with at least `trials` agreeing rows are counted on the pool, the
    # others resampled from their own streams; chunks of a few reveals, on
    # int64 masks and on object masks past 63 edges
    g = gen_random_graph(n, density, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=3)
    monkeypatch.setattr(estimator, "SCAN_CELLS", cells)
    crucial_mask = sum(1 << e for e in range(0, g.m, 2))
    y_hat, pool = estimate_y(g, crucial_mask, pool_rows, seed=4)
    assert pool[0].dtype == (np.int64 if g.m <= 63 else object) and len(pool[0]) == pool_rows
    # y is counted on the rows it returns
    assert [est.value for est in y_hat] == [
        pool_reference(pool, crucial_mask, e, 0, 0)[0] / pool_rows for e in range(g.m)]
    law = MonteCarloConditional(g, crucial_mask, np.full(g.m, 0.4), trials, seed=5, rows=pool)
    reveals = batch_reveals(g, crucial_mask, 6, 40)
    expected, thin, pooled = [], set(), set()
    for reveal in reveals:
        counts = [pool_reference(pool, crucial_mask, e, *reveal)[0]
                  for e in mask_edges(reveal[1])]
        rows = pool_reference(pool, crucial_mask, 0, *reveal)[1]  # the same for any edge
        if rows >= trials:
            pooled.add(reveal)
            expected.append([count / rows for count in counts])
        else:
            thin.add(reveal)
            expected.append(resampled_y_primes(g, crucial_mask, *reveal, trials, 5))
    assert law.y_primes(reveals) == expected
    flat = [value for values in expected for value in values]
    assert thin and pooled and 0.0 < sum(flat) < len(flat)
    assert (law.pooled_reveals, law.resampled_reveals) == (len(pooled), len(thin))


@pytest.mark.parametrize("case", ["fixed", "classified", "thin_pool"])
def test_pooled_y_primes_pass_a_z_test_against_the_exact_law(case):
    # every y' of the batch reveals of 300 runs against the exact
    # conditional, with the null standard error at the row count it was
    # counted on: the agreeing pool rows, or the `cond_trials` rows of a
    # resampled reveal.  Bonferroni: at most 400 comparisons at 5 standard
    # errors (two-sided normal tail 5.7e-7 each) raise a false alarm with
    # probability at most 2.3e-4 per case, whatever the dependence between
    # them (they share pool rows).  "classified" takes the crucial edges from
    # an x estimate, as the Monte Carlo tables do, with edges of x near tau on
    # both sides; the pool is drawn apart from it, so y' is not counted on
    # the rows that chose them.  "thin_pool" has too few pool rows for some
    # reveals, which are resampled.
    g = gen_random_graph(8, 0.5, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=4)
    assert g.m == 16
    if case == "classified":
        x = np.array([est.value for est in estimate_x(g, 2000, seed=10)])
        crucial_mask = classify_edges(x, 0.13).crucial_mask
        assert bin(crucial_mask).count("1") == 8
    else:
        crucial_mask = sum(1 << e for e in range(g.m) if e % 3)
    exact = MatchingLaw.from_pipeline(g, crucial_mask)
    _y_hat, pool = estimate_y(g, crucial_mask, 4000 if case == "thin_pool" else 100_000,
                              seed=11)
    law = MonteCarloConditional(g, crucial_mask, exact.y, 400, seed=12, rows=pool)
    block = run_vb(law, *draw_run_inputs(law, rng_from(13), 300))
    assert block.clip_events == 0
    assert (law.resampled_reveals > 0) == (case == "thin_pool")
    reveals = list(law._activation_table.rows)
    queries = [(e, *reveal) for reveal in reveals for e in mask_edges(reveal[1])]
    values = [value for values in law.y_primes(reveals) for value in values]
    assert 50 <= len(queries) == len(values) <= 400
    for query, value in zip(queries, values):
        p0 = exact.y_prime(*query)
        _count, rows = pool_reference(pool, crucial_mask, *query)
        rows = rows if rows >= law.trials else law.trials
        assert abs(value - p0) <= 5.0 * math.sqrt(p0 * (1.0 - p0) / rows), (query, value, p0)


def test_monte_carlo_conditional_deterministic():
    gadget = two_path()
    g = gadget.graph
    a = MonteCarloConditional(g, g.full_mask, gadget.law.y, 500, 4, empty_pool(g))
    b = MonteCarloConditional(g, g.full_mask, gadget.law.y, 500, 4, empty_pool(g))
    v1 = a.y_primes([(0b11, 0b11)])
    v2 = a.y_primes([(0b11, 0b11)])
    assert v1 == v2  # a repeated reveal reads the same stream
    assert v1 == b.y_primes([(0b11, 0b11)])  # seed-derived streams


def test_tower_property_monte_carlo():
    # resampling reveals and averaging the conditional reproduces y
    gadget = two_path()
    g = gadget.graph
    law = gadget.law
    rng = rng_from(31)
    batch_mask = 0b11
    acc = 0.0
    trials = 20_000
    for _ in range(trials):
        bits = 0
        for e in range(2):
            if rng.random() < g.edges[e].p:
                bits |= 1 << e
        acc += law.y_prime(0, batch_mask, bits)
    y = law.y[0]
    assert abs(acc / trials - y) <= 0.01


def test_tower_property_through_estimator_op():
    # same tower identity, but through the sampled conditional estimator
    gadget = two_path()
    g = gadget.graph
    cond = MonteCarloConditional(g, g.full_mask, gadget.law.y, 4000, 77, empty_pool(g))
    rng = rng_from(78)
    batch_mask = 0b11
    reveals = Counter()
    trials = 30_000
    for _ in range(trials):
        bits = 0
        for e in range(2):
            if rng.random() < g.edges[e].p:
                bits |= 1 << e
        if bits & 1:  # an unrealized edge contributes zero membership
            reveals[bits] += 1
    assert sorted(reveals) == [0b01, 0b11]
    # one estimate per distinct reveal, weighted by how often it was drawn
    acc = sum(k * cond.y_primes([(batch_mask, bits)])[0][0] for bits, k in reveals.items())
    ys, _rows = estimate_y(g, g.full_mask, trials=40_000, seed=79)
    assert abs(acc / trials - ys[0].value) <= 0.015


def test_estimate_q_single_edge_closed_form():
    g = graph(2, [(0, 1, 1.0, 0.4)])
    (est,) = estimate_q(g, t=5, trials=30_000, seed=6)
    assert abs(est.value - (1 - 0.6**5)) <= 3 * est.std_err


def test_estimate_pair_alive_isolated_pair_is_one():
    out = estimate_pair_alive(isolated_pair().law, [(0, 1)], trials=300, seed=0)
    assert out[(0, 1)].value == 1.0


def test_estimate_pair_alive_matches_enumeration_four_cycle():
    law = four_cycle().law
    dist = exact_vb_enumeration(law)
    pairs = [(0, 2), (1, 3)]
    out = estimate_pair_alive(law, pairs, trials=60_000, seed=13)
    for pair in pairs:
        exact = dist.pair_alive_prob(*pair)
        est = out[pair]
        assert abs(est.value - exact) <= 3.5 * max(est.std_err, 1e-9)


def test_estimate_pair_alive_worker_independence():
    law = two_path().law
    a = estimate_pair_alive(law, [(0, 2)], trials=4000, seed=5)
    with worker_pool(2):
        b = estimate_pair_alive(law, [(0, 2)], trials=4000, seed=5)
    assert a[(0, 2)].value == b[(0, 2)].value


def test_counted_q_and_pair_alive_blocks_equal_per_run_loops():
    gadget = benchmark_6v8e()
    g = gadget.graph
    rng = rng_from(51, estimator._TAG_Q, 1)
    q_counts = np.zeros(g.m, dtype=np.int64)
    for _ in range(300):
        [q_mask] = draw_plans(g, 3, rng, 1).tolist()
        for e in mask_edges(q_mask):
            q_counts[e] += 1
    assert np.array_equal(estimator._q_counts_block(g, 3, 51, 1, 300), q_counts)

    pairs = ((0, 3), (1, 4), (2, 5), (0, 1))
    inputs = draw_run_inputs(gadget.law, rng_from(52, estimator._TAG_PAIR, 0), 400)
    pair_counts = np.zeros(len(pairs), dtype=np.int64)
    for row in zip(*inputs):
        alive = reference_run_vb(gadget.law, *row).alive
        for j, (u, v) in enumerate(pairs):
            if (alive >> u) & 1 and (alive >> v) & 1:
                pair_counts[j] += 1
    got = estimator._vb_stats_block(gadget.law, pairs, 52, estimator._TAG_PAIR, 0, 400)
    assert np.array_equal(got[3], pair_counts)
