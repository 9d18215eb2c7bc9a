from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy import stats as sps

from stochmatch import augmenter, estimator, exact, mwm, sparsifier, verifier
from stochmatch.exact import exact_x, mm_answers, realizations
from stochmatch.gadgets import (
    benchmark_6v8e,
    relaxed_suite_8v,
    shared_tie_fixture,
    verification_gadgets,
)
from stochmatch.graph_core import (
    WEIGHT_TIE_TOL,
    Edge,
    Params,
    StochasticGraph,
    gen_random_graph,
    mask_dtype,
    mask_edges,
    mask_weight,
    sample_masks,
)
from stochmatch.mwm import GraphView, brute_force_mwm, mm_edge_mask
from stochmatch.parallel import BLOCK_LEN, rng_from
from stochmatch.sparsifier import classify_edges, draw_plans, max_degree, plan_round_masks
from stochmatch.verifier import _TAG_COVERAGE, check_crucial_coverage


def graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


def one_plan(g, t, rng):
    """One plan of ``draw_plans``, as a Python int."""
    [q_mask] = draw_plans(g, t, rng, 1).tolist()
    return q_mask


def test_plan_t1_is_single_matching():
    g = benchmark_6v8e().graph
    q_mask = one_plan(g, 1, rng_from(0))
    rounds = plan_round_masks(g, 1, rng_from(0))
    assert max_degree(g, q_mask) <= 1
    assert len(rounds) == 1
    assert q_mask == rounds[0]


def test_plan_deterministic_p1_graph():
    g = graph(4, [(0, 1, 2.0, 1.0), (1, 2, 3.0, 1.0), (2, 3, 2.0, 1.0)])
    fixed = mm_edge_mask(g, g.full_mask)
    assert one_plan(g, 7, rng_from(3)) == fixed
    assert all(r == fixed for r in plan_round_masks(g, 7, rng_from(3)))


def test_plan_determinism_per_seed():
    g = benchmark_6v8e().graph
    assert one_plan(g, 4, rng_from(9)) == one_plan(g, 4, rng_from(9))


def test_plan_max_degree_bound_random_family():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = gen_random_graph(7, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                             {"name": "uniform", "low": 0.3, "high": 0.9},
                             seed=int(rng.integers(0, 2**31)))
        if g.m == 0:
            continue
        t = int(rng.integers(1, 6))
        q_mask = one_plan(g, t, rng_from(int(rng.integers(0, 2**31))))
        assert max_degree(g, q_mask) <= t


def test_single_edge_membership_closed_form():
    # Pr[e in Q] = 1 - (1-p)^t for a lone edge, where x_e = p_e
    g = graph(2, [(0, 1, 1.0, 0.4)])
    t, draws = 5, 30_000
    hits = sum(q_mask & 1 for q_mask in draw_plans(g, t, rng_from(0), draws))
    freq = hits / draws
    target = 1 - 0.6**5
    se = np.sqrt(target * (1 - target) / draws)
    assert abs(freq - target) <= 3 * se
    assert round(target, 5) == 0.92224


def test_nested_prefix_rounds():
    g = benchmark_6v8e().graph
    small = one_plan(g, 3, rng_from(77))
    large = one_plan(g, 9, rng_from(77))
    assert small & ~large == 0


def test_plan_round_masks_prefix_stream():
    g = benchmark_6v8e().graph
    a = plan_round_masks(g, 4, rng_from(5))
    b = plan_round_masks(g, 11, rng_from(5))
    assert b[:4].tolist() == a.tolist()


def complete_66e():
    return gen_random_graph(12, 1.0, {"name": "uniform", "low": 0.1, "high": 2.0},
                            {"name": "uniform", "low": 0.3, "high": 0.9}, seed=5)


@pytest.mark.parametrize("make", [lambda: benchmark_6v8e().graph, complete_66e],
                         ids=["benchmark_6v8e", "complete_66e"])
def test_draw_plan_prefix_stream(make):
    g = make()
    small = one_plan(g, 3, rng_from(5))
    large = one_plan(g, 7, rng_from(5))
    small_rounds = plan_round_masks(g, 3, rng_from(5))
    large_rounds = plan_round_masks(g, 7, rng_from(5))
    assert large_rounds[:3].tolist() == small_rounds.tolist()
    for q_mask, rounds in ((small, small_rounds), (large, large_rounds)):
        union = 0
        for mask in rounds:
            union |= mask
        assert q_mask == union
    assert small & ~large == 0


def test_plan_round_masks_without_matching_table():
    g = complete_66e()
    assert g.m == 66 and mwm.matching_table(g) is None
    realized = sample_masks(g, rng_from(6), 4)
    rounds = plan_round_masks(g, 4, rng_from(6))
    assert rounds.tolist() == [mwm._solve_networkx(g, mask) for mask in realized]
    for mask, round_mask in zip(realized, rounds):
        assert round_mask & ~mask == 0
        ends = [v for e in mask_edges(round_mask) for v in g.endpoints(e)]
        assert len(ends) == len(set(ends))
    assert plan_round_masks(g, 2, rng_from(6)).tolist() == rounds[:2].tolist()


def test_classify_extremes_and_ties():
    x = np.array([0.3, 0.05])
    assert classify_edges(x, 0.0).crucial() == [0, 1]
    assert classify_edges(x, 1.1).crucial() == []
    classes = classify_edges(x, 0.1)
    assert classes.crucial() == [0]
    assert classes.noncrucial() == [1]
    tie = classify_edges(np.array([0.1]), 0.1)
    assert tie.crucial() == [0]  # ties go to the crucial side


def test_round_homogeneity_across_plan_rounds():
    # rounds are iid draws of the optimum: per-edge membership counts across
    # rounds pass a chi-square homogeneity test
    g = benchmark_6v8e().graph
    t, draws = 4, 4000
    counts = np.zeros((t, g.m), dtype=np.int64)
    rng = rng_from(123)
    for _ in range(draws):
        for i, mask in enumerate(plan_round_masks(g, t, rng)):
            for e in range(g.m):
                counts[i, e] += (mask >> e) & 1
    for e in range(g.m):
        obs = np.array([counts[:, e], draws - counts[:, e]])
        if obs[0].min() < 5:
            continue
        _stat, p_value, _dof, _exp = sps.chi2_contingency(obs)
        assert p_value > 1e-4, (e, counts[:, e])


def test_coverage_report_floors():
    g = graph(2, [(0, 1, 1.0, 0.5)])
    x = exact_x(g)  # = [0.5]
    classes = classify_edges(x, tau=0.4)
    report = check_crucial_coverage(g, classes, x, epsilon=0.5, t=10,
                                    trials=4000, seed=3)
    assert report.theory_precondition_met  # 10 >= 1/(0.4*0.5) = 5
    freq, floor, passed = report.coverage[0]
    assert passed
    target = 1 - 0.5**10
    assert abs(freq - target) <= 3 * np.sqrt(target * (1 - target) / 4000)
    # unconditional floor holds for every edge
    assert all(ok for _f, _fl, ok in report.claim_floor.values())
    assert report.degree_bound_ok
    # the counts are those of draw_plans on the coverage stream, here and on
    # a graph whose plans vary more from draw to draw
    wide = benchmark_6v8e().graph
    wide_x = exact_x(wide)
    wide_report = check_crucial_coverage(wide, classify_edges(wide_x, tau=0.05), wide_x,
                                         epsilon=0.5, t=2, trials=500, seed=3)
    for h, rep in ((g, report), (wide, wide_report)):
        plans = list(draw_plans(h, rep.t, rng_from(3, _TAG_COVERAGE), rep.trials))
        counts = np.zeros(h.m, dtype=np.int64)
        for q_mask in plans:
            counts[mask_edges(q_mask)] += 1
        assert [rep.claim_floor[e][0] for e in range(h.m)] == list(counts / rep.trials)
        assert rep.max_degree_seen == max(max_degree(h, q_mask) for q_mask in plans)


def test_coverage_informational_when_precondition_unmet():
    g = benchmark_6v8e().graph
    x = exact_x(g)
    classes = classify_edges(x, tau=0.02)
    report = check_crucial_coverage(g, classes, x, epsilon=0.05, t=2,
                                    trials=500, seed=1)
    assert not report.theory_precondition_met
    # crucial coverage entries are then never gated failures
    assert all(ok for _f, _fl, ok in report.coverage.values())


@pytest.mark.parametrize("t,count", [(1, 5), (3, 40), (120, 40), (0, 3)])
def test_draw_plans_equals_sequential_draw_plan(t, count):
    g = relaxed_suite_8v().graph
    rng_batch, rng_seq, rng_rounds = rng_from(9), rng_from(9), rng_from(9)
    plans = list(draw_plans(g, t, rng_batch, count))
    assert plans == [one_plan(g, t, rng_seq) for _ in range(count)]
    for q_mask in plans:  # each plan is the OR of the next t rounds of one stream
        union = 0
        for mask in plan_round_masks(g, t, rng_rounds):
            union |= mask
        assert q_mask == union
    assert rng_batch.bit_generator.state == rng_seq.bit_generator.state
    assert rng_batch.bit_generator.state == rng_rounds.bit_generator.state
    assert list(draw_plans(g, t, rng_from(9), 0)) == []


# ---------------------------------------------------------------------------
# Gathered rounds on enumerable graphs against the per-round oracle


def reference_draw_plans(g, t, rng, count):
    """``draw_plans`` as written before rounds were gathered: one oracle
    answer per round, each plan the OR of its ``t`` rounds.  The answers are
    kept per distinct mask, since a one-mask oracle call makes no memo."""
    per_call = max(1, BLOCK_LEN // max(t, 1))
    plans = []
    answers = {}
    for start in range(0, count, per_call):
        k = min(per_call, count - start)
        rounds = []
        for mask in sample_masks(g, rng, k * t).tolist():
            if mask not in answers:
                answers[mask] = mm_edge_mask(g, mask)
            rounds.append(answers[mask])
        for i in range(k):
            q_mask = 0
            for mask in rounds[i * t:(i + 1) * t]:
                q_mask |= mask
            plans.append(q_mask)
    return plans


def matching_weights(g, mask):
    """Weights of every matching inside ``mask``, heaviest first."""
    edges = mask_edges(mask)
    weights = []
    for bits in range(1 << len(edges)):
        chosen = [e for i, e in enumerate(edges) if (bits >> i) & 1]
        ends = [v for e in chosen for v in g.endpoints(e)]
        if len(ends) == len(set(ends)):
            weights.append(sum(g.edges[e].w for e in chosen))
    return sorted(weights, reverse=True)


ANSWER_GRAPHS = [(gd.name, gd.graph) for gd in verification_gadgets()] + [
    ("shared_tie", shared_tie_fixture().graph),  # p = 1 edges: zero-probability masks
]


@pytest.mark.parametrize("g", [g for _name, g in ANSWER_GRAPHS],
                         ids=[name for name, _g in ANSWER_GRAPHS])
def test_mm_answers_equal_networkx_and_brute_force(g):
    g = StochasticGraph(n=g.n, edges=g.edges)  # a fresh copy: empty memo and caches
    answers = mm_answers(g)
    assert answers.dtype == np.int64 and answers.shape == (1 << g.m,)
    for mask in range(1 << g.m):
        prob = 1.0
        for e, edge in enumerate(g.edges):
            prob *= edge.p if (mask >> e) & 1 else 1.0 - edge.p
        answer = int(answers[mask])
        if prob == 0.0:  # the enumeration skips it
            assert answer == -1, mask
            continue
        assert answer == mwm._solve_networkx(g, mask), mask
        weights = matching_weights(g, mask)
        assert abs(mask_weight(g, answer) - weights[0]) <= WEIGHT_TIE_TOL, mask
        if len(weights) == 1 or weights[0] - weights[1] > WEIGHT_TIE_TOL:
            assert answer == sum(1 << e for e in brute_force_mwm(GraphView(g, mask)).edges), mask
    assert int((answers >= 0).sum()) == len(realizations(g)[0])


class HalfStream:
    """Stands in for a generator in :func:`sample_masks`: each edge is
    realized with probability 1/2 whatever its ``p``."""

    def __init__(self, g, seed):
        self.rng, self.probs = rng_from(seed), g.probs

    def random(self, shape):
        return self.rng.random(shape) * 2.0 * self.probs


def test_underflowed_masks_are_answered_by_the_oracle():
    # p = 1e-100 on each edge of K4: a mask of 4 or more realized edges has
    # probability product 0.0 by underflow, so the enumeration skips it
    g = graph(4, [(0, 1, 1.0, 1e-100), (0, 2, 1.3, 1e-100), (0, 3, 1.7, 1e-100),
                  (1, 2, 2.1, 1e-100), (1, 3, 2.6, 1e-100), (2, 3, 3.2, 1e-100)])
    skipped = [mask for mask in range(1 << g.m) if bin(mask).count("1") >= 4]
    assert np.flatnonzero(mm_answers(g) < 0).tolist() == skipped
    drawn = sample_masks(g, HalfStream(g, 4), 200)
    assert sum(mask in skipped for mask in drawn) > 10
    rounds = plan_round_masks(g, 200, HalfStream(g, 4)).tolist()
    assert rounds == [mwm._solve_networkx(g, mask) for mask in drawn]
    assert all(type(mask) is int for mask in rounds)
    plans = draw_plans(g, 4, HalfStream(g, 4), 50).tolist()
    assert plans == reference_draw_plans(g, 4, HalfStream(g, 4), 50)


@pytest.mark.parametrize("gadget", verification_gadgets(), ids=lambda gd: gd.name)
def test_draw_plans_equals_per_round_oracle_loop(gadget):
    g = gadget.graph
    for t in (0, 1, 3, 120):
        for count in (0, 1, BLOCK_LEN + 5):
            rng, ref_rng = rng_from(11, t, count), rng_from(11, t, count)
            plans = draw_plans(g, t, rng, count).tolist()
            assert plans == reference_draw_plans(g, t, ref_rng, count), (t, count)
            assert all(type(q_mask) is int for q_mask in plans)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gathered_rounds_make_no_oracle_call(monkeypatch):
    g = benchmark_6v8e().graph
    answers = mm_answers(g)
    assert (answers >= 0).all()  # every mask has positive probability

    def no_oracle(g, masks):
        raise AssertionError(f"oracle asked about masks {masks}")

    monkeypatch.setattr(sparsifier, "mm_edge_masks", no_oracle)
    rounds = plan_round_masks(g, 500, rng_from(12))
    assert rounds.tolist() == answers[sample_masks(g, rng_from(12), 500)].tolist()
    assert len(list(draw_plans(g, 16, rng_from(12), 300))) == 300


def test_batched_answers_make_no_per_mask_oracle_call(monkeypatch):
    # 19 edges: not enumerable, but a 589-row matching table with no tied
    # optimum among the drawn masks, so every batched answer is a table scan
    g = gen_random_graph(12, 0.3, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=3)
    assert not exact.enumerable(g) and len(mwm.matching_table(g)[0]) == 589

    def per_mask(_g, mask):
        raise AssertionError(f"per-mask oracle call for mask {mask}")

    conditionals = []
    y_conditional = estimator.estimate_y_conditional
    monkeypatch.setattr(estimator, "estimate_y_conditional",
                        lambda *args: conditionals.append(args) or y_conditional(*args))
    monkeypatch.setattr(mwm, "_memo_mask", per_mask)
    # x, y, y' (through the pair-alive runs) and the plans of q
    tables = augmenter.build_tables_monte_carlo(
        g, Params.for_graph(g, 0.2, 1 / 576.0), 8, seed=1, tau=0.05, x_trials=1000,
        q_trials=200, pair_trials=80, cond_trials=40)
    assert isinstance(tables.law, estimator.MonteCarloConditional) and conditionals
    sweep = augmenter.end_to_end(g, tables, [1, 2, 4, 8, None], 200, seed=2)
    assert [len(res.alg) for res in sweep] == [200] * 5
    assert len(draw_plans(g, 8, rng_from(3), 300)) == 300


# ---------------------------------------------------------------------------
# Masks as arrays: dtype, empty draws and the counts taken from them

CONTRACT_GRAPHS = ANSWER_GRAPHS + [("complete_66e", complete_66e())]


@pytest.mark.parametrize("g", [g for _name, g in CONTRACT_GRAPHS],
                         ids=[name for name, _g in CONTRACT_GRAPHS])
def test_mask_arrays_are_int64_up_to_63_edges_and_python_ints_past(g):
    dtype = np.int64 if g.m <= 63 else object
    for masks in (sample_masks(g, rng_from(1), 50), plan_round_masks(g, 50, rng_from(1)),
                  draw_plans(g, 3, rng_from(1), 50)):
        assert masks.dtype == dtype and masks.shape == (50,)
        assert all(type(mask) is int for mask in masks.tolist())
    assert type(one_plan(g, 3, rng_from(1))) is int


@pytest.mark.parametrize("g", [benchmark_6v8e().graph, complete_66e()],
                         ids=["benchmark_6v8e", "complete_66e"])
def test_zero_rounds_and_zero_plans_read_nothing(g):
    rng = rng_from(13)
    rounds = plan_round_masks(g, 0, rng)
    assert rounds.dtype == mask_dtype(g.m) and rounds.shape == (0,)
    for t, count in ((0, 5), (0, BLOCK_LEN + 1), (0, 0), (3, 0)):
        plans = draw_plans(g, t, rng, count)
        assert plans.dtype == mask_dtype(g.m) and plans.tolist() == [0] * count
    assert one_plan(g, 0, rng) == 0
    assert rng.bit_generator.state == rng_from(13).bit_generator.state


@pytest.mark.parametrize("g", [g for _name, g in CONTRACT_GRAPHS],
                         ids=[name for name, _g in CONTRACT_GRAPHS])
def test_plan_counts_equal_per_plan_loops(g):
    # the negative-association cells, the q counts and the coverage counts,
    # each against one pass per plan over reference_draw_plans on its stream
    t, count = 3, 40 if g.m > 63 else 500
    pairs = tuple(combinations_with_replacement(range(g.m), 2))
    if pairs:
        cells = np.zeros((len(pairs), 4), dtype=np.int64)  # n00 n01 n10 n11
        for q_mask in reference_draw_plans(g, t, rng_from(44, verifier._TAG_NA, 2), count):
            for j, (e1, e2) in enumerate(pairs):
                cells[j, 2 * ((q_mask >> e1) & 1) + ((q_mask >> e2) & 1)] += 1
        assert np.array_equal(verifier._plan_pair_block(g, t, pairs, 44, 2, count), cells)

    q_counts = np.zeros(g.m, dtype=np.int64)
    for q_mask in reference_draw_plans(g, t, rng_from(51, estimator._TAG_Q, 1), count):
        for e in mask_edges(q_mask):
            q_counts[e] += 1
    assert np.array_equal(estimator._q_counts_block(g, t, 51, 1, count), q_counts)

    x_hat = np.full(g.m, 0.5)
    report = check_crucial_coverage(g, classify_edges(x_hat, 0.3), x_hat, epsilon=0.5, t=t,
                                    trials=count, seed=3)
    plans = reference_draw_plans(g, t, rng_from(3, _TAG_COVERAGE), count)
    counts = np.zeros(g.m, dtype=np.int64)
    for q_mask in plans:
        counts[mask_edges(q_mask)] += 1
    assert [report.claim_floor[e][0] for e in range(g.m)] == list(counts / count)
    assert report.max_degree_seen == max(max_degree(g, q_mask) for q_mask in plans)
