"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every Monte Carlo figure uses a pinned seed, so the whole gate
is deterministic.
"""

import math

import numpy as np

from stochmatch.augmenter import build_tables_exact, end_to_end
from stochmatch.cli import ExperimentConfig, cmd_run
from stochmatch.estimator import estimate_q
from stochmatch.exact import exact_x
from stochmatch.augmenter import round_fractional
from stochmatch.gadgets import (
    benchmark_6v8e,
    four_cycle,
    relaxed_suite_8v,
    shared_tie_fixture,
    single_edge,
    three_path,
    triangle,
    two_path,
    var_z_synthetic_x,
    verification_gadgets,
)
from stochmatch.graph_core import (
    Edge,
    FractionalMatching,
    Params,
    StochasticGraph,
    gen_random_graph,
    mask_weight,
)
from stochmatch.mwm import GraphView, brute_force_mwm, max_weight_matching
from stochmatch.parallel import rng_from
from stochmatch.sparsifier import classify_edges, draw_plans, max_degree
from stochmatch.verifier import (
    check_activation,
    check_crucial_coverage,
    check_negative_association,
    check_pair_alive,
    check_selectability,
    check_var_z,
    two_point_covariance,
)

from pipeline_runs import f_weight, max_load, mean_f, point_runs

BIG = 100_000


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def matching_weight(matching, g):
    return mask_weight(g, sum(1 << e for e in matching.edges))


def test_criterion_1_mwm_oracle_equivalence():
    """500 random instances, solver weight == brute force weight to 1e-9."""
    rng = np.random.default_rng(20_240_101)
    instances = 0
    worst = 0.0
    while instances < 500:
        n = int(rng.integers(2, 9))
        g = gen_random_graph(
            n, float(rng.uniform(0.2, 0.8)),
            {"name": "uniform", "low": 0.01, "high": 5.0},
            {"name": "uniform", "low": 0.2, "high": 1.0},
            seed=int(rng.integers(0, 2**31)))
        if g.m > 18:
            continue
        view = GraphView(g)
        gap = abs(matching_weight(max_weight_matching(view), g)
                  - matching_weight(brute_force_mwm(view), g))
        assert gap <= 1e-9, (instances, gap)
        worst = max(worst, gap)
        instances += 1
    report(1, f"500/500 instances agree; worst weight gap {worst:.2e} <= 1e-9")


def test_criterion_2_activation_law():
    """Activation frequency vs enumeration and g(y) on the stated gadgets."""
    single = check_activation(single_edge(y=1.0), trials=BIG, seed=101)
    assert single.verdict == "pass"
    freq = single.details["edges"]["0"]["freq"]
    assert abs(freq - 0.600) <= 3 * single.details["edges"]["0"]["se"]
    half = check_activation(single_edge(y=0.5), trials=BIG, seed=102)
    assert half.verdict == "pass"
    path = check_activation(three_path(), trials=BIG, seed=103)
    assert path.verdict == "pass"
    assert path.details["enumerated"]
    report(2, f"single edge y=1 activates at {freq:.4f} (target 0.600); "
              f"3-path worst z = {path.estimate:.2f} <= 3")


def test_criterion_3_pair_alive_floor():
    """All non-adjacent pairs of every bundled gadget clear 1/576 - 3*SE."""
    worst_name, worst_z = "", 0.0
    for gadget in verification_gadgets():
        rep = check_pair_alive(gadget, trials=BIG, seed=301)
        assert rep.verdict == "pass", (gadget.name, rep.details)
        if rep.details["enumerated"]:
            for key, entry in rep.details["pairs"].items():
                if "exact" in entry and entry["se"] > 0:
                    z = abs(entry["freq"] - entry["exact"]) / entry["se"]
                    if z > worst_z:
                        worst_name, worst_z = f"{gadget.name}:{key}", z
    assert worst_z <= 3.0
    report(3, f"floor 1/576 held on every bundled gadget at {BIG} runs; "
              f"worst oracle gap z = {worst_z:.2f} ({worst_name})")


def test_criterion_4_selectability():
    """Matched-edge frequency vs the enumeration oracle and the 8/15 line."""
    gadgets = [single_edge(y=1.0), single_edge(y=0.5), two_path(), three_path(),
               four_cycle(), triangle()]
    for gadget in gadgets:
        rep = check_selectability(gadget, trials=BIG, seed=401)
        assert rep.verdict == "pass", (gadget.name, rep.details)
    single = check_selectability(single_edge(y=0.5), trials=BIG, seed=402)
    assert single.details["eight_fifteenths_gated"]
    assert single.details["eight_fifteenths_floor_ok"]
    # larger instances: the 8/15 comparison is reported, never gated
    bench = check_selectability(benchmark_6v8e(), trials=BIG, seed=403)
    assert not bench.details["eight_fifteenths_gated"]
    below = sum(1 for e in bench.details["edges"].values() if e.get("below_8_15"))
    report(4, "selectability matches enumeration on all <=4-vertex gadgets; "
              f"single edge clears (8/15)y; benchmark edges below 8/15 line: {below} "
              "(reported, not gated)")


def test_criterion_5_negative_association():
    """Two-point oracle exact; sampled covariances below +3*SE."""
    assert two_point_covariance(0.5) == -0.25  # exact, by construction
    tie = check_negative_association(shared_tie_fixture(), trials=40_000, seed=501)
    entry = tie.details["pairs"]["0,1"]
    assert entry["exactly_one_freq"] == 1.0  # exactly one edge per plan, always
    assert entry["cov"] <= 3 * entry["se"]
    for gadget in (two_path(), three_path(), four_cycle(), benchmark_6v8e()):
        rep = check_negative_association(gadget, trials=40_000, seed=502)
        assert rep.verdict == "pass", (gadget.name, rep.details)
    report(5, "two-point oracle covariance -0.25 exactly; tie fixture degenerate "
              "as expected; all incident-pair covariances <= +3*SE")


def test_criterion_6_query_plan_laws():
    """Single-edge closed form, the degree bound, and the min(1/3, tx/3) floor."""
    g = StochasticGraph(n=2, edges=(Edge(0, 1, 1.0, 0.4),))
    (q,) = estimate_q(g, t=5, trials=60_000, seed=601)
    target = 1 - 0.6**5
    assert abs(q.value - target) <= 3 * q.std_err
    # structural degree bound on every sampled plan
    bench = benchmark_6v8e()
    for i in range(2000):
        [q_mask] = draw_plans(bench.graph, 4, rng_from(10_000 + i), 1).tolist()
        assert max_degree(bench.graph, q_mask) <= 4
    # unconditional membership floor on all bundled instances
    for gadget in (bench, two_path(), four_cycle(), relaxed_suite_8v()):
        x = exact_x(gadget.graph)
        classes = classify_edges(x, gadget.tau)
        rep = check_crucial_coverage(gadget.graph, classes, x, gadget.epsilon,
                                     t=gadget.t, trials=3000, seed=602)
        assert all(ok for _f, _fl, ok in rep.claim_floor.values()), gadget.name
        assert rep.degree_bound_ok
    report(6, f"single-edge Pr[in plan] = {q.value:.5f} vs 0.92224; degree <= t on "
              "2000/2000 plans; min(1/3, t*x/3) floor held on all bundled instances")


def test_criterion_7_fractional_stage():
    """Degree cap, rounding bound, and the E[f_e] floor at relaxed scale."""
    relaxed = relaxed_suite_8v()
    g = relaxed.graph
    params = Params(epsilon=relaxed.epsilon, delta=1 / 576.0, p_min=g.p_min)
    tables = build_tables_exact(g, params, relaxed.t, tau=relaxed.tau)
    runs = [(f, m_n) for _vb_out, f, m_n in point_runs(g, tables, relaxed.t, 30_000, 701)]
    assert all(max_load(g, f) <= 1.0 + 1e-9 for f, _m_n in runs)
    # rounding bound on every run in the small-values regime
    eps = params.epsilon
    checked = 0
    for f, m_n in runs:
        if 0 < max(f.values.values(), default=0.0) <= eps**3:
            assert mask_weight(g, m_n) >= (1 - eps / 2) * f_weight(g, f) - 1e-12
            checked += 1
    # the regime is exercised directly with constructed fractional vectors
    rng = np.random.default_rng(702)
    constructed = 0
    for _ in range(60):
        h = gen_random_graph(8, 0.5, {"name": "uniform", "low": 0.2, "high": 3.0},
                             {"name": "constant", "value": 0.5},
                             seed=int(rng.integers(0, 2**31)))
        if h.m == 0:
            continue
        values = {}
        load = np.zeros(h.n)
        for e in range(h.m):
            val = float(rng.uniform(0, eps**3))
            u, v, _w, _p = h.edges[e]
            if load[u] + val <= 1 and load[v] + val <= 1:
                values[e] = val
                load[u] += val
                load[v] += val
        f = FractionalMatching(values=values, parent=h.token)
        m = round_fractional(h, f)
        assert mask_weight(h, m) >= (1 - eps / 2) * f_weight(h, f) - 1e-12
        constructed += 1
    # expected fractional value per non-crucial edge
    mean, se_f = mean_f(g, [f for f, _m_n in runs])
    for e in tables.classes.noncrucial():
        floor = (1 - eps / 2) * tables.x[e]
        assert mean[e] >= floor - 3 * se_f[e], (e, mean[e], floor, se_f[e])
    report(7, f"post-zero degree <= 1 on 30000/30000 runs; rounding bound held on "
              f"{checked} in-regime pipeline runs and {constructed} constructed vectors; "
              "E[f_e] floor held on the relaxed 8-vertex suite")


def test_criterion_8_var_z_gate():
    """Sample Var(Z_v) <= 10*tau/delta_hat^2 * 1.2 over 1e5 runs."""
    relaxed = relaxed_suite_8v()
    rep = check_var_z(relaxed, var_z_synthetic_x(relaxed, relaxed.tau),
                      relaxed.tau, trials=BIG, seed=801)
    assert rep.verdict == "pass"
    assert rep.estimate <= rep.threshold
    report(8, f"max Var(Z_v) = {rep.estimate:.4f} <= bound {rep.threshold:.2f} "
              f"(delta_hat = {rep.details['delta_hat']:.4f}) over {BIG} runs")


def test_criterion_9_end_to_end_ratios():
    """Q=E control at 1.0; paired t-sweep non-decreasing; 0.681 line reported."""
    bench = benchmark_6v8e()
    g = bench.graph
    params = Params(epsilon=bench.epsilon, delta=1 / 576.0, p_min=g.p_min)
    tables = build_tables_exact(g, params, bench.t, tau=bench.tau)
    [control] = end_to_end(g, tables, [None], runs=1500, seed=901)
    assert control.ratio == 1.0
    assert control.ratio_std_err() <= 1e-12
    t_big = math.ceil(g.m / g.p_min)  # ceil(8 / 0.5) = 16
    assert t_big == 16
    r1, r16 = end_to_end(g, tables, [1, t_big], runs=4000, seed=902)
    band = 3 * (r1.ratio_std_err() + r16.ratio_std_err())
    assert r16.ratio >= r1.ratio - band
    for a, b in zip(r1.mm_Q.tolist(), r16.mm_Q.tolist()):  # paired seeds: surely monotone
        assert b >= a - 1e-12
    report(9, f"control ratio 1.0 exactly; ratio t=1 {r1.ratio:.4f} -> t=16 "
              f"{r16.ratio:.4f} (reference line 0.681, reported not gated)")


def test_criterion_10_cmd_run_determinism(tmp_path):
    """Byte-identical outputs across reruns and worker counts 1 and 8."""
    def config(path, workers):
        return ExperimentConfig(
            graph={"bundled": "benchmark_6v8e"}, seed=7, trials=150,
            t=[1, 4], epsilon=0.2, tau=0.02, tables="exact",
            out=str(path), workers=workers)

    out_a = cmd_run(config(tmp_path / "a", 1))
    out_b = cmd_run(config(tmp_path / "b", 1))
    out_c = cmd_run(config(tmp_path / "c", 8))
    names = ("aggregate.csv", "runs.jsonl", "ratio_vs_t.txt", "summary.json")
    for name in names:
        blob = (out_a / name).read_bytes()
        assert blob == (out_b / name).read_bytes(), name
        assert blob == (out_c / name).read_bytes(), name
    report(10, "cmd_run outputs byte-identical across reruns and workers 1 vs 8")
