import math

import numpy as np
import pytest

from stochmatch.augmenter import (
    build_fractional,
    build_g_table,
    build_tables_exact,
    build_tables_monte_carlo,
    combine,
    end_to_end,
    round_fractional,
)
from stochmatch import augmenter, mwm, sparsifier
from stochmatch.estimator import MonteCarloConditional
from stochmatch.exact import EnumerationTooLarge, MatchingLaw, exact_x
from stochmatch.gadgets import benchmark_6v8e, relaxed_suite_8v, star, verification_gadgets
from stochmatch.graph_core import (
    Edge,
    FractionalMatching,
    Params,
    StochasticGraph,
    gen_random_graph,
    mask_edges,
    mask_weight,
)
from stochmatch.mwm import mm_edge_mask, mm_edge_masks
from stochmatch.parallel import BLOCK_LEN, rng_from, worker_pool
from stochmatch.sparsifier import classify_edges, plan_round_masks
from stochmatch.vb_matching import run_vb

import augment_reference
from pipeline_runs import f_weight, max_load, mean_f, point_runs, reference_runs


def graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


def vertex_mask(vertices):
    return sum(1 << v for v in vertices)


def params_for(g, eps=0.2):
    return Params(epsilon=eps, delta=1 / 576.0, p_min=g.p_min)


def survival_flags(g, alive, record):
    """A vertex survives the fractional stage iff it is alive and was not
    zeroed; an edge iff both its endpoints survive, queried or not."""
    survived = alive & ~record.overloaded_mask
    vertices = tuple(bool((survived >> v) & 1) for v in range(g.n))
    edges = tuple(vertices[u] and vertices[v] for u, v, _w, _p in g.edges)
    return vertices, edges


def test_build_g_table_values_and_flags():
    g = graph(3, [(0, 1, 2.0, 0.8), (1, 2, 1.0, 0.5)])
    classes = classify_edges(np.array([0.8, 0.004]), tau=0.05)
    table = build_g_table(g, classes, np.array([0.8, 0.004]), [1.0, 0.4], {1: 0.2})
    # g = 0.004 / (0.5 * 0.4 * 0.2) = 0.1
    assert table[1] == pytest.approx(0.1)
    assert 0 not in table  # crucial edges are not in the table


def test_build_g_table_zero_denominator_flagged():
    g = graph(3, [(0, 1, 2.0, 0.8), (1, 2, 1.0, 0.5)])
    classes = classify_edges(np.array([0.8, 0.004]), tau=0.05)
    table = build_g_table(g, classes, np.array([0.8, 0.004]), [1.0, 0.0], {1: 0.2})
    assert table[1] == 0.0


def test_build_fractional_empty_alive_set():
    g = graph(3, [(0, 1, 2.0, 0.8), (1, 2, 1.0, 0.5)])
    classes = classify_edges(np.array([0.8, 0.004]), tau=0.05)
    params = params_for(g)
    table = build_g_table(g, classes, np.array([0.8, 0.004]), [1.0, 0.4], {1: 0.2})
    f, record = build_fractional(g, classes, g.full_mask, g.full_mask, 0, table, params)
    assert f.values == {}
    assert not any(survival_flags(g, 0, record)[0])


def test_build_fractional_direct_rule():
    g = graph(3, [(0, 1, 2.0, 0.8), (1, 2, 1.0, 0.5)])
    classes = classify_edges(np.array([0.8, 0.004]), tau=0.05)
    params = params_for(g)
    table = {1: 0.001}
    alive = vertex_mask([0, 1, 2])
    f, record = build_fractional(g, classes, g.full_mask, g.full_mask, alive, table, params)
    assert f.values[1] == pytest.approx(params.gamma * 0.001)
    assert 0 not in f.values
    assert survival_flags(g, alive, record) == ((True, True, True), (True, True))


def test_build_fractional_requires_queried_and_realized():
    g = graph(3, [(0, 1, 2.0, 0.8), (1, 2, 1.0, 0.5)])
    classes = classify_edges(np.array([0.8, 0.004]), tau=0.05)
    params = params_for(g)
    table = {1: 0.001}
    not_queried = 0b01
    f, _ = build_fractional(g, classes, not_queried, g.full_mask,
                            vertex_mask([0, 1, 2]), table, params)
    assert f.values == {}
    unrealized = 0b01
    f2, _ = build_fractional(g, classes, g.full_mask, unrealized,
                             vertex_mask([0, 1, 2]), table, params)
    assert f2.values == {}


def test_build_fractional_star_overload_zeroes_all():
    gadget = star(4)
    g = gadget.graph
    params = params_for(g)
    # force gamma*g = 0.3 per spoke: center degree 1.2 > 1, all four zeroed
    target = 0.3 / params.gamma
    classes = classify_edges(np.zeros(g.m), tau=0.5)  # everything non-crucial
    table = {e: target for e in range(g.m)}
    alive = vertex_mask(range(g.n))
    f, record = build_fractional(g, classes, g.full_mask, g.full_mask, alive, table, params)
    assert f.values == {}
    assert record.overloaded[0]
    assert not any(record.overloaded[1:])
    # leaves are alive and under the cap, yet their only edge died with the center
    vertex_survived, edge_survived = survival_flags(g, alive, record)
    assert vertex_survived[1]
    assert edge_survived == (False,) * g.m


def test_round_fractional_trivial_cases():
    g = graph(3, [(0, 1, 2.0, 0.8), (1, 2, 1.0, 0.5)])
    empty = FractionalMatching(values={}, parent=g.token)
    assert round_fractional(g, empty) == 0
    single = FractionalMatching(values={1: 0.2}, parent=g.token)
    m = round_fractional(g, single)
    assert mask_edges(m) == [1]


def test_round_fractional_triangle_bound():
    g = graph(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    f = FractionalMatching(values={0: 0.3, 1: 0.3, 2: 0.3}, parent=g.token)
    m = round_fractional(g, f)
    eps = 0.2
    assert mask_weight(g, m) == 1.0
    assert mask_weight(g, m) >= (1 - eps / 2) * f_weight(g, f)


def test_round_fractional_small_value_regime_bound():
    # constructed fractional matchings with values <= eps^3 satisfy the
    # rounding guarantee on every instance
    eps = 0.3
    cap = eps**3
    rng = np.random.default_rng(15)
    for trial in range(40):
        g = gen_random_graph(8, 0.5, {"name": "uniform", "low": 0.2, "high": 3.0},
                             {"name": "constant", "value": 0.5},
                             seed=int(rng.integers(0, 2**31)))
        if g.m == 0:
            continue
        values = {}
        load = np.zeros(g.n)
        for e in range(g.m):
            if rng.random() < 0.7:
                val = float(rng.uniform(0, cap))
                u, v, _w, _p = g.edges[e]
                if load[u] + val <= 1 and load[v] + val <= 1:
                    values[e] = val
                    load[u] += val
                    load[v] += val
        f = FractionalMatching(values=values, parent=g.token)
        m = round_fractional(g, f)
        assert mask_weight(g, m) >= (1 - eps / 2) * f_weight(g, f) - 1e-12


def test_combine_trivial_sides():
    g = graph(4, [(0, 1, 2.0, 0.9), (2, 3, 1.0, 0.9)])
    classes = classify_edges(np.array([0.9, 0.004]), tau=0.05)
    plan = g.full_mask
    realization = g.full_mask
    # no non-crucial matching: crucial side returned
    vb_matching = 0b01
    m, scheme = combine(g, plan, realization, vb_matching, 0, classes)
    assert mask_edges(m) == [0]
    assert scheme == "crucial"
    # no crucial edges at all: the rounded matching is returned
    classes_none = classify_edges(np.array([0.004, 0.004]), tau=0.05)
    m2, scheme2 = combine(g, plan, realization, 0, 0b10, classes_none)
    assert mask_edges(m2) == [1]
    assert scheme2 == "augmented"


def test_combine_prefers_heavier_scheme():
    # crucial-only beats the augmented union when the run matched nothing
    g = graph(4, [(0, 1, 5.0, 0.9), (1, 2, 1.0, 0.9), (2, 3, 0.5, 0.9)])
    classes = classify_edges(np.array([0.9, 0.9, 0.004]), tau=0.05)
    plan = g.full_mask
    realization = g.full_mask
    m_n = 0b100
    m, scheme = combine(g, plan, realization, 0, m_n, classes)
    # scheme a = MM{edges 0,1} = edge 0 (5.0) vs scheme b = {2} (0.5)
    assert scheme == "crucial"
    assert mask_weight(g, m) == 5.0
    both = (mask_weight(g, 0b001), mask_weight(g, 0b100))
    assert mask_weight(g, m) >= max(both)


def test_combine_detects_invariant_breach():
    g = graph(3, [(0, 1, 2.0, 0.9), (1, 2, 1.0, 0.9)])
    classes = classify_edges(np.array([0.9, 0.004]), tau=0.05)
    vb_matching = 0b01
    bogus_m_n = 0b10  # touches matched vertex 1
    with pytest.raises(RuntimeError):
        combine(g, g.full_mask, g.full_mask, vb_matching, bogus_m_n, classes)


def test_end_to_end_full_plan_control_ratio_one():
    gadget = benchmark_6v8e()
    g = gadget.graph
    params = params_for(g)
    tables = build_tables_exact(g, params, gadget.t, tau=gadget.tau)
    [res] = end_to_end(g, tables, [None], runs=200, seed=4)
    assert res.ratio == 1.0
    for mm_q, mm_g in zip(res.mm_Q.tolist(), res.mm_G.tolist()):
        assert (mm_q / mm_g if mm_g > 0.0 else 1.0) == 1.0  # each run's ratio


def test_end_to_end_single_edge_expected_weight():
    g = graph(2, [(0, 1, 2.0, 0.6)])
    params = params_for(g)
    tables = build_tables_exact(g, params, 4, tau=0.5)
    # sampled plan: E[ALG] = w * p * Pr[edge in plan]
    [res] = end_to_end(g, tables, [4], runs=20_000, seed=6)
    mean_alg = float(np.mean(res.alg))
    keep = 0.6 * (1 - 0.4**4)
    target = 2.0 * keep
    se = 2.0 * math.sqrt(keep * (1 - keep) / len(res.alg))
    assert abs(mean_alg - target) <= 3 * se
    # querying everything: E[ALG] = w * p exactly
    [full] = end_to_end(g, tables, [None], runs=20_000, seed=6)
    mean_full = float(np.mean(full.alg))
    se_full = 2.0 * math.sqrt(0.6 * 0.4 / len(full.alg))
    assert abs(mean_full - 2.0 * 0.6) <= 3 * se_full


def test_end_to_end_paired_sweep_monotone():
    gadget = benchmark_6v8e()
    g = gadget.graph
    tables = build_tables_exact(g, params_for(g), gadget.t, tau=gadget.tau)
    r1, r16 = end_to_end(g, tables, [1, 16], runs=800, seed=7)
    for a, b in zip(r1.mm_Q.tolist(), r16.mm_Q.tolist()):
        assert b >= a - 1e-12
    assert r16.ratio >= r1.ratio - 3 * (r1.ratio_std_err() + r16.ratio_std_err())


def test_end_to_end_structural_invariants():
    gadget = benchmark_6v8e()
    g = gadget.graph
    tables = build_tables_exact(g, params_for(g), gadget.t, tau=gadget.tau)
    [res] = end_to_end(g, tables, [4], runs=600, seed=9)
    for _vb_out, f, _m_n in point_runs(g, tables, 4, 600, 9):
        assert max_load(g, f) <= 1.0 + 1e-9
    for alg, mm_q, mm_g in zip(res.alg.tolist(), res.mm_Q.tolist(), res.mm_G.tolist()):
        assert alg <= mm_q + 1e-9  # ALG lives inside the plan
        assert mm_q <= mm_g + 1e-9


def test_end_to_end_f_support_flags():
    # f_e nonzero only for realized, queried, non-crucial, both-alive edges
    gadget = relaxed_suite_8v()
    g = gadget.graph
    params = Params(epsilon=gadget.epsilon, delta=1 / 576.0, p_min=g.p_min)
    tables = build_tables_exact(g, params, gadget.t, tau=gadget.tau)
    for out, f, _m_n in point_runs(g, tables, gadget.t, 50, 3):
        for e in f.values:
            assert not (tables.classes.crucial_mask >> e) & 1
            u, v = g.endpoints(e)
            assert (out.alive >> u) & 1 and (out.alive >> v) & 1


def test_end_to_end_worker_independence():
    gadget = benchmark_6v8e()
    g = gadget.graph
    tables = build_tables_exact(g, params_for(g), gadget.t, tau=gadget.tau)
    # Two blocks, so the second worker really runs one and its arrays are
    # pickled back to this process.
    [a] = end_to_end(g, tables, [4], runs=BLOCK_LEN + 300, seed=12)
    with worker_pool(2):
        [b] = end_to_end(g, tables, [4], runs=BLOCK_LEN + 300, seed=12)
    assert_same_point(a, b)
    assert a.ratio == b.ratio


def test_monte_carlo_tables_agree_with_exact():
    gadget = benchmark_6v8e()
    g = gadget.graph
    params = params_for(g)
    exact = build_tables_exact(g, params, gadget.t, tau=gadget.tau)
    mc = build_tables_monte_carlo(g, params, gadget.t, seed=31, tau=gadget.tau,
                                  x_trials=40_000, q_trials=8000,
                                  pair_trials=20_000)
    assert mc.classes.crucial_mask == exact.classes.crucial_mask
    for e in mc.classes.noncrucial():
        rel = abs(mc.g_table[e] - exact.g_table[e]) / exact.g_table[e]
        assert rel < 0.15, (e, mc.g_table[e], exact.g_table[e])
    [res] = end_to_end(g, mc, [4], runs=400, seed=32)
    assert 0.5 <= res.ratio <= 1.0


def generated_mc_tables(t, seed, tau=0.05):
    """Monte Carlo tables at the ``generated_mc`` benchmark's graph and
    budgets: 19 edges, past the enumeration cap, so y' comes from the y
    stage's pool of rows."""
    g = gen_random_graph(12, 0.3, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=3)
    assert g.m == 19
    tables = build_tables_monte_carlo(g, params_for(g), t, seed=seed, tau=tau,
                                      x_trials=1000, q_trials=200, pair_trials=80,
                                      cond_trials=40)
    assert isinstance(tables.law, MonteCarloConditional)
    return g, tables


def test_monte_carlo_tables_with_sampled_conditionals():
    # the pooled conditional path end to end
    g, mc = generated_mc_tables(4, seed=33)
    [res] = end_to_end(g, mc, [4], runs=200, seed=34)
    for _vb_out, f, _m_n in point_runs(g, mc, 4, 200, 34):
        assert max_load(g, f) <= 1.0 + 1e-9
    assert 0.5 <= res.ratio <= 1.0


def test_pooled_tables_are_worker_independent():
    # the x and y stages and the pair-alive runs each span two blocks: with 2
    # workers the pool is drawn in worker processes, and the law goes back
    # to them pickled with it
    g = gen_random_graph(12, 0.3, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=3)
    budgets = dict(x_trials=BLOCK_LEN + 300, q_trials=200, pair_trials=BLOCK_LEN + 1,
                   cond_trials=40)
    one = build_tables_monte_carlo(g, params_for(g), 4, seed=8, tau=0.05, **budgets)
    with worker_pool(2):
        two = build_tables_monte_carlo(g, params_for(g), 4, seed=8, tau=0.05, **budgets)
    assert len(one.law.pool[0]) == BLOCK_LEN + 300
    assert all(np.array_equal(a, b) for a, b in zip(one.law.pool, two.law.pool))
    assert one.x.tolist() == two.x.tolist() and one.g_table == two.g_table
    reveals = list(one.law._activation_table.rows)
    assert sum(bits.bit_count() for _mask, bits in reveals) > 20
    assert one.law.y_primes(reveals) == two.law.y_primes(reveals)


def test_mean_f_tracks_gamma_x_on_relaxed_suite():
    gadget = relaxed_suite_8v()
    g = gadget.graph
    params = Params(epsilon=gadget.epsilon, delta=1 / 576.0, p_min=g.p_min)
    tables = build_tables_exact(g, params, gadget.t, tau=gadget.tau)
    # The floor is nearly tight here, so this 3-standard-error gate
    # false-fails 2 of the seeds 0-99 (13 and 70, both at z = -3.4).
    mean, se = mean_f(g, [f for _vb_out, f, _m_n in point_runs(g, tables, gadget.t, 6000, 14)])
    for e in tables.classes.noncrucial():
        target = (1 - params.epsilon / 2) * tables.x[e]
        assert mean[e] >= target - 3 * se[e]


def test_build_tables_exact_propagates_activation_breach(monkeypatch):
    # exact conditionals that overfill a batch are a broken invariant, not a
    # size limit: they must not fall back to Monte Carlo pair-alive estimates
    g = graph(3, [(0, 1, 1.0, 0.9), (1, 2, 1.3, 0.9)])
    monkeypatch.setattr(MatchingLaw, "y_prime", lambda self, e, mask, bits: 1.0)
    with pytest.raises(ValueError, match="exceed one") as info:
        build_tables_exact(g, params_for(g), 4, tau=0.05)
    assert not isinstance(info.value, EnumerationTooLarge)


# ---------------------------------------------------------------------------
# The sweep against one point at a time


SWEEP = [1, 2, 4, 8, None]


def reference_run(g, tables, real_mask, vb, q_mask):
    """One pipeline run on its own inputs, through the one-row entry points:
    its ``(alg, mm_Q, mm_G, augmented)`` row, fractional vector, rounding
    and survival record."""
    f, survival = build_fractional(g, tables.classes, q_mask, real_mask, vb.alive,
                                   tables.g_table, tables.params)
    m_n = round_fractional(g, f)
    alg, scheme = combine(g, q_mask, real_mask, vb.matching, m_n, tables.classes)
    mmq = mask_weight(g, mm_edge_mask(g, q_mask & real_mask))
    mmg = mask_weight(g, mm_edge_mask(g, real_mask))
    return (mask_weight(g, alg), mmq, mmg, scheme == "augmented"), f, m_n, survival


COLUMNS = ("alg", "mm_Q", "mm_G", "augmented")


def assert_same_point(a, b):
    assert a.t == b.t
    for name in COLUMNS:  # every run of every array, bit for bit
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y) and x.tobytes() == y.tobytes(), name


def rows(res):
    """Each run's ``(alg, mm_Q, mm_G, augmented)`` as Python values."""
    return list(zip(*(getattr(res, name).tolist() for name in COLUMNS)))


def assert_sweep_equals_single_points(g, tables, runs, seed, workers=None):
    with worker_pool(workers):
        sweep = end_to_end(g, tables, SWEEP, runs, seed)
        assert [res.t for res in sweep] == SWEEP
        assert [res.t is None for res in sweep] == [False] * 4 + [True]
        for res in sweep:
            [single] = end_to_end(g, tables, [res.t], runs, seed)
            assert_same_point(res, single)
    return sweep


def exact_tables(gadget):
    g = gadget.graph
    params = Params(epsilon=gadget.epsilon, delta=1 / 576.0, p_min=g.p_min)
    return build_tables_exact(g, params, gadget.t, tau=gadget.tau)


def assert_matches_reference(g, tables, sweep, runs, seed):
    """Every run of every point of the sweep equals the per-run reference of
    ``augment_reference`` and the one-row entry points: its weights and
    scheme, its fractional vector, its rounding and its zeroed vertices.
    Returns the number of augmented runs and of zeroed vertices over all
    points."""
    assert [len(res.alg) for res in sweep] == [runs] * len(sweep)
    inputs = [list(reference_runs(g, tables, seed, runs, res.t)) for res in sweep]
    sweep_rows = [rows(res) for res in sweep]
    augmented = zeroed = 0
    for r in range(runs):
        real_mask, vb, _q_mask = inputs[0][r]
        q_masks = [point[r][2] for point in inputs]
        points = augment_reference.pipeline_run(
            g, tables, q_masks, real_mask, vb.matching, vb.alive,
            mm_edge_mask(g, real_mask), [mm_edge_mask(g, q & real_mask) for q in q_masks])
        for res_rows, point, (row, f, m_n) in zip(sweep_rows, inputs, points):
            ref, ref_f, ref_m_n, survival = reference_run(g, tables, *point[r])
            assert res_rows[r] == row == ref
            assert f.values == ref_f.values  # exact float equality, edge by edge
            assert m_n == ref_m_n
            _f, ref_survival = augment_reference.build_fractional(
                g, tables.classes, point[r][2], real_mask, vb.alive, tables.g_table,
                tables.params)
            assert survival.overloaded_mask == ref_survival.overloaded_mask
            augmented += row[3]
            zeroed += bin(survival.overloaded_mask).count("1")
    return augmented, zeroed


def test_sweep_equals_single_points_across_blocks_and_workers():
    gadget = relaxed_suite_8v()
    g = gadget.graph
    tables = exact_tables(gadget)
    runs = BLOCK_LEN + 17
    one = assert_sweep_equals_single_points(g, tables, runs, seed=41, workers=1)
    two = assert_sweep_equals_single_points(g, tables, runs, seed=41, workers=2)
    for a, b in zip(one, two):
        assert_same_point(a, b)
    assert_matches_reference(g, tables, one, runs, seed=41)


@pytest.mark.parametrize("gadget", [gd for gd in verification_gadgets()
                                    if gd.name != "relaxed_suite_8v"],
                         ids=lambda gd: gd.name)
def test_sweep_equals_single_points_on_gadgets(gadget):
    g = gadget.graph
    tables = exact_tables(gadget)
    sweep = assert_sweep_equals_single_points(g, tables, 50, seed=42)
    assert_matches_reference(g, tables, sweep, 50, seed=42)


def test_sweep_equals_single_points_with_sampled_conditionals():
    g, tables = generated_mc_tables(8, seed=43)
    sweep = assert_sweep_equals_single_points(g, tables, 50, seed=44)
    assert_matches_reference(g, tables, sweep, 50, seed=44)


def low_p_66e_tables():
    """Monte Carlo tables on the complete 12-vertex graph: 66 edges, so
    every mask array is an ``object`` array of Python ints.  Its edges exist
    with probability 0.05 to 0.3, so no ``x_e`` reaches 0.3; at ``tau`` 0.15
    8 of them are crucial and both schemes win some runs."""
    g = gen_random_graph(12, 1.0, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.05, "high": 0.3}, seed=3)
    assert g.m == 66
    tables = build_tables_monte_carlo(g, params_for(g), 4, seed=5, tau=0.15, x_trials=300,
                                      q_trials=60, pair_trials=40, cond_trials=20)
    assert len(tables.classes.crucial()) == 8
    return g, tables


@pytest.mark.parametrize("build", [lambda: generated_mc_tables(8, seed=45, tau=0.3),
                                   low_p_66e_tables],
                         ids=["generated_mc_19e_tau_0.3", "low_p_66e"])
def test_sweep_matches_reference_where_the_augmented_scheme_wins(build):
    # At the default tau 0.05 the augmented scheme hardly ever wins on the
    # generated_mc graph, so runs equal to the reference there say little
    # about the fractional stage and the combiner.  Here both graphs have
    # augmented runs and zeroed vertices.
    g, tables = build()
    sweep = end_to_end(g, tables, [1, 4, None], 150, seed=46)
    augmented, zeroed = assert_matches_reference(g, tables, sweep, 150, seed=46)
    assert augmented > 0 and zeroed > 0


def star_at_the_overload_bound():
    """A 10-vertex star whose centre's degree is exactly ``1 + _DEGREE_TOL``
    when summed in ascending edge order: edge 0 carries that value, and each
    of the other 8 edges a value below half a unit in the last place of it,
    which that order rounds away but any sum of two of them does not."""
    g = graph(10, [(0, leaf, 1.0, 0.5) for leaf in range(1, 10)])
    params = params_for(g)
    bound = 1.0 + augmenter._DEGREE_TOL
    big = bound / params.gamma
    while params.gamma * big != bound:  # the g value whose gamma * g is the bound
        big = np.nextafter(big, np.inf if params.gamma * big < bound else 0.0)
    tiny = 0.75 * 2.0**-53 / params.gamma
    small = params.gamma * tiny
    assert bound + small == bound and bound + (small + small) > bound
    table = {0: big, **{e: tiny for e in range(1, g.m)}}
    return g, params, classify_edges(np.zeros(g.m), tau=0.5), table


def test_fractional_block_sums_degrees_in_edge_order_with_a_strict_bound():
    # The reference keeps the centre, since the sequential sum equals the
    # bound; a `>=` test or a sum in any other order would zero it.
    g, params, classes, table = star_at_the_overload_bound()
    full = g.full_mask
    everyone = vertex_mask(range(g.n))
    rows = [(full, full, everyone), (full, full & ~0b10, everyone), (0b1, full, everyone),
            (full, full, everyone & ~0b100), (0, full, everyone), (full, full, everyone)]
    q, real, alive = (np.array(column, dtype=np.int64) for column in zip(*rows))
    values, support, overloaded = augmenter._fractional_block(
        g, classes, table, params.gamma, q, real, alive)
    for k, (q_mask, real_mask, alive_mask) in enumerate(rows):
        ref_f, ref_survival = augment_reference.build_fractional(
            g, classes, q_mask, real_mask, alive_mask, table, params)
        assert support[k] == ref_f.support_mask()
        assert {e: values[e] for e in mask_edges(int(support[k]))} == ref_f.values
        assert vertex_mask(np.flatnonzero(overloaded[k])) == ref_survival.overloaded_mask
    assert ref_survival.overloaded_mask == 0 and ref_f.values[0] == 1.0
    f, survival = build_fractional(g, classes, full, full, everyone, table, params)
    assert f.values == ref_f.values and survival.overloaded_mask == 0


def test_block_combiner_names_the_first_overlapping_edge():
    g = graph(4, [(0, 1, 1.0, 0.9), (1, 2, 1.0, 0.9), (2, 3, 1.0, 0.9)])
    classes = classify_edges(np.array([0.8, 0.8, 0.01]), tau=0.5)
    # (vb matching, m_n) per run: run 1 overlaps at edge 2, run 3 at edge 1
    rows = [(0b001, 0b100), (0b010, 0b100), (0b000, 0b100), (0b001, 0b010)]
    vb, m_n = (np.array(column, dtype=np.int64) for column in zip(*rows))
    full = np.full(len(rows), g.full_mask, dtype=np.int64)
    crucial = mm_edge_masks(g, full & classes.crucial_mask)
    with pytest.raises(RuntimeError, match="combiner invariant breach: overlap at edge 2"):
        augmenter._combine_block(g, classes, full, full, vb, m_n, crucial)
    ok = [0, 2]
    alg, augmented, weights = augmenter._combine_block(g, classes, full[ok], full[ok],
                                                       vb[ok], m_n[ok], crucial[ok])
    for k, row in enumerate(ok):
        mask, scheme = augment_reference.combine(g, g.full_mask, g.full_mask, *rows[row],
                                                 classes)
        assert (alg[k], "augmented" if augmented[k] else "crucial") == (mask, scheme)
        assert weights[k] == mask_weight(g, mask)


@pytest.mark.parametrize("gadget,noncrucial", [(relaxed_suite_8v(), [4, 5, 6]),
                                               (benchmark_6v8e(), [1, 2, 3, 5])],
                         ids=["relaxed_suite_8v", "benchmark_6v8e"])
def test_sweep_draws_realizations_from_the_edge_law(gadget, noncrucial):
    # E[w(MM(G))] = sum_e w_e Pr[e in MM(G)] only if every edge, crucial or
    # not, is drawn with its own p.  Dropping the non-crucial edges moves the
    # mean by 0.047 (z about -7 at 40k runs) on benchmark_6v8e, but by only
    # 0.009 against a standard deviation of 6 on relaxed_suite_8v.
    g = gadget.graph
    tables = exact_tables(gadget)
    assert tables.classes.noncrucial() == noncrucial
    [res] = end_to_end(g, tables, [None], runs=40_000, seed=51)
    mmg = res.mm_G
    se = mmg.std() / math.sqrt(len(mmg))
    assert abs(mmg.mean() - exact_x(g) @ g.weights) <= 4 * se


def test_end_to_end_rejects_empty_and_negative_sweeps():
    gadget = benchmark_6v8e()
    g = gadget.graph
    tables = exact_tables(gadget)
    with pytest.raises(ValueError):
        end_to_end(g, tables, [], 10, seed=1)
    with pytest.raises(ValueError):
        end_to_end(g, tables, [2, -1], 10, seed=1)
    with pytest.raises(ValueError):
        end_to_end(g, tables, [2], 0, seed=1)


@pytest.mark.parametrize("ts,runs", [([True], 10), ([2, 2.0], 10), ([2], True), ([2], 10.0)],
                         ids=["bool_point", "float_point", "bool_runs", "float_runs"])
def test_end_to_end_rejects_ill_typed_sweeps(ts, runs):
    gadget = benchmark_6v8e()
    with pytest.raises(ValueError):
        end_to_end(gadget.graph, exact_tables(gadget), ts, runs, seed=1)


def test_sweep_runs_one_block_call_per_block_equal_to_reference_runs(monkeypatch):
    gadget = benchmark_6v8e()
    g = gadget.graph
    tables = exact_tables(gadget)
    calls = []

    def recording(law, perms, reals, uniforms):
        out = run_vb(law, perms, reals, uniforms)
        calls.append(out)
        return out

    streams = []

    def recording_rng_from(*path):
        streams.append(path)
        return rng_from(*path)

    monkeypatch.setattr(augmenter, "run_vb", recording)
    monkeypatch.setattr(augmenter, "rng_from", recording_rng_from)
    end_to_end(g, tables, [2, None], BLOCK_LEN + 17, seed=43)
    assert [len(out.alive) for out in calls] == [BLOCK_LEN, 17]
    assert streams == [(43, augmenter._TAG_E2E, 0), (43, augmenter._TAG_E2E, 1)]
    rows = [row for out in calls for row in zip(out.matching, out.alive)]
    references = reference_runs(g, tables, 43, BLOCK_LEN + 17, None)
    for r, (_real_mask, vb, _q_mask) in enumerate(references):
        assert rows[r] == (vb.matching, vb.alive), r


# The 19-edge graph has a matching table and int64 masks; the 66-edge one has
# neither, so its masks are ``object`` arrays answered by networkx.
WITH_AND_WITHOUT_TABLE = pytest.mark.parametrize(
    "build", [lambda: generated_mc_tables(8, seed=45, tau=0.3), low_p_66e_tables],
    ids=["generated_mc_19e_table", "low_p_66e_no_table"])


def count_oracle_rows(monkeypatch):
    """Record the rows of every ``mm_edge_masks`` call the augmenter and the
    sparsifier make and of every ``plan_round_masks`` call of the sweep."""
    oracle_rows, round_rows = [], []

    def counting_oracle(graph, masks):
        oracle_rows.append(len(masks))
        return mm_edge_masks(graph, masks)

    def counting_rounds(graph, t, rng):
        round_rows.append(t)
        return plan_round_masks(graph, t, rng)

    for module in (augmenter, sparsifier):
        monkeypatch.setattr(module, "mm_edge_masks", counting_oracle)
    monkeypatch.setattr(augmenter, "plan_round_masks", counting_rounds)
    return oracle_rows, round_rows


@WITH_AND_WITHOUT_TABLE
def test_sweep_block_asks_the_oracle_twice(build, monkeypatch):
    # Phase 1 answers every plan round of the block in one call, phase 2 the
    # rounding, the crucial scheme, MM(Q & G) and MM(G) in one more.
    g, tables = build()
    assert (mwm.matching_table(g) is None) == (g.m > 62)
    oracle_rows, round_rows = count_oracle_rows(monkeypatch)
    ts, runs = [1, 4, None], BLOCK_LEN + 17
    sweep = end_to_end(g, tables, ts, runs, seed=47)
    assert round_rows == [4 * BLOCK_LEN, 4 * 17]
    assert oracle_rows == [4 * BLOCK_LEN, 10 * BLOCK_LEN, 4 * 17, 10 * 17]
    monkeypatch.undo()
    augmented, _zeroed = assert_matches_reference(g, tables, sweep, runs, seed=47)
    assert augmented > 0


@pytest.mark.parametrize("ts", [[0], [None], [0, None]], ids=["zero", "control", "both"])
@WITH_AND_WITHOUT_TABLE
def test_sweep_without_plan_rounds_equals_single_points_and_reference(build, ts, monkeypatch):
    # max(t) is 0: the block draws no plan round and its phase-1 call is empty
    g, tables = build()
    oracle_rows, round_rows = count_oracle_rows(monkeypatch)
    sweep = end_to_end(g, tables, ts, 60, seed=48)
    assert round_rows == [0] and oracle_rows == [0, (3 * len(ts) + 1) * 60]
    monkeypatch.undo()
    assert [res.t for res in sweep] == ts
    for res in sweep:
        [single] = end_to_end(g, tables, [res.t], 60, seed=48)
        assert_same_point(res, single)
    assert_matches_reference(g, tables, sweep, 60, seed=48)
