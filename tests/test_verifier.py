import dataclasses

import numpy as np
import pytest

from stochmatch.augmenter import build_tables_exact
from stochmatch.exact import EnumerationTooLarge, MatchingLaw
from stochmatch.gadgets import (
    benchmark_6v8e,
    isolated_pair,
    positive_covariance_control,
    relaxed_suite_8v,
    shared_tie_fixture,
    single_edge,
    star,
    three_path,
    two_disjoint_edges,
    two_path,
    var_z_synthetic_x,
)
from stochmatch import estimator, gadgets, sparsifier, verifier
from stochmatch.graph_core import Edge, Params, StochasticGraph, mask_edges, sample_masks
from stochmatch.parallel import BLOCK_LEN, rng_from, worker_pool
from stochmatch.sparsifier import draw_plans
from stochmatch.vb_matching import draw_run_inputs
from stochmatch.verifier import (
    PAIR_ALIVE_FLOOR,
    check_activation,
    check_concentration_y,
    check_influence_independence,
    check_negative_association,
    check_pair_alive,
    check_selectability,
    check_var_z,
    covariance_from_cells,
    format_report_table,
    gated_failures,
    incident_edge_pairs,
    two_point_covariance,
)

from vb_reference import reference_run_vb


def test_two_point_covariance_oracle():
    assert two_point_covariance(0.5) == -0.25
    assert two_point_covariance(0.0) == 0.0
    assert two_point_covariance(1.0) == -0.0
    with pytest.raises(ValueError):
        two_point_covariance(1.5)


def test_covariance_from_cells_exact():
    # joint counts (n00, n01, n10, n11) = (10, 40, 40, 10):
    # pa = pb = 0.5, p11 = 0.1 -> cov = 0.1 - 0.25 = -0.15
    cov, se = covariance_from_cells(np.array([10, 40, 40, 10]))
    assert cov == pytest.approx(-0.15)
    assert se > 0


def test_check_activation_single_edge():
    report = check_activation(single_edge(y=1.0), trials=40_000, seed=1)
    assert report.verdict == "pass"
    entry = report.details["edges"]["0"]
    assert abs(entry["freq"] - 0.6) <= 3 * entry["se"]
    assert report.details["oracle_vs_g_gap"] <= 1e-9


def test_check_activation_three_path():
    report = check_activation(three_path(), trials=40_000, seed=2)
    assert report.verdict == "pass"
    assert report.details["enumerated"]


def test_check_activation_zero_marginal_edge_never_active():
    report = check_activation(single_edge(y=0.0), trials=2000, seed=3)
    assert report.details["edges"]["0"]["freq"] == 0.0
    assert report.verdict == "pass"


def test_check_selectability_single_edge_floor():
    report = check_selectability(single_edge(y=0.5), trials=40_000, seed=4)
    assert report.verdict == "pass"
    assert report.details["eight_fifteenths_gated"]
    assert report.details["eight_fifteenths_floor_ok"]


def test_check_selectability_three_path_vs_oracle():
    report = check_selectability(three_path(), trials=40_000, seed=5)
    assert report.verdict == "pass"
    assert report.estimate <= 3.0


def test_check_pair_alive_isolated():
    report = check_pair_alive(isolated_pair(), trials=500, seed=6)
    assert report.verdict == "pass"
    assert report.details["pairs"]["0-1"]["freq"] == 1.0


def test_check_pair_alive_adjacent_excluded():
    report = check_pair_alive(single_edge(y=1.0), trials=2000, seed=7)
    assert report.details["pairs"]["0-1"] == {
        "freq": report.details["pairs"]["0-1"]["freq"], "adjacent": True}
    assert report.verdict == "pass"


def test_check_pair_alive_two_path_floor_and_oracle():
    # Seed 9: at seed 8 pair 0-2 reads 0.3766 against the exact 0.3844
    # (z = -3.2), a false alarm of the 3-standard-error gate; over seeds
    # 100-199 that z has mean 0.03 and SD 1.02.
    report = check_pair_alive(two_path(), trials=40_000, seed=9)
    assert report.verdict == "pass"
    entry = report.details["pairs"]["0-2"]
    assert entry["freq"] >= PAIR_ALIVE_FLOOR - 3 * entry["se"]
    assert "exact" in entry


def test_incident_pairs_enumeration():
    g = star(3).graph
    assert incident_edge_pairs(g) == [(0, 1), (0, 2), (1, 2)]


def test_negative_association_tie_fixture_structural():
    # deterministic optimum: covariance 0, and exactly one edge per plan
    report = check_negative_association(shared_tie_fixture(), trials=4000, seed=9)
    assert report.verdict == "pass"
    entry = report.details["pairs"]["0,1"]
    assert entry["exactly_one_freq"] == 1.0
    assert entry["cov"] == 0.0


def test_negative_association_disjoint_edges_zero_cov():
    gadget = two_disjoint_edges(p=1.0)
    report = check_negative_association(gadget, trials=1000, seed=10)
    assert report.verdict == "pass"  # no incident pairs, nothing to gate


def test_negative_association_monte_carlo_instances():
    report = check_negative_association(benchmark_6v8e(), trials=20_000, seed=11)
    assert report.verdict == "pass"
    for entry in report.details["pairs"].values():
        assert entry["cov"] <= 3 * entry["se"] + 1e-12


def test_negative_association_positive_control_fails():
    report = check_negative_association(positive_covariance_control(),
                                        trials=20_000, seed=12)
    assert report.verdict == "fail"
    entry = report.details["pairs"]["0,2"]
    assert entry["cov"] > 0


def test_check_var_z_passes_relaxed_suite():
    gadget = relaxed_suite_8v()
    report = check_var_z(gadget, var_z_synthetic_x(gadget, gadget.tau),
                         gadget.tau, trials=20_000, seed=13)
    assert report.verdict == "pass"
    assert report.estimate <= report.threshold


def test_check_var_z_zero_x_zero_variance():
    gadget = relaxed_suite_8v()
    report = check_var_z(gadget, {}, gadget.tau, trials=500, seed=14)
    assert report.verdict == "pass"
    assert report.estimate == 0.0


def test_check_var_z_single_neighbor_closed_form():
    # lone synthetic pair: Z_v = h * Bernoulli(q), Var = h^2 q (1 - q)
    gadget = two_disjoint_edges(p=0.9)
    x = {(0, 2): 0.05}
    report = check_var_z(gadget, x, 0.05, trials=60_000, seed=15)
    assert report.verdict == "pass"
    q = report.details["pair_alive"]["0-2"] ** 0.5  # pair = q_u * q_v, symmetric
    h = 0.05 / report.details["pair_alive"]["0-2"]
    closed = h**2 * q * (1 - q)
    measured = max(report.details["variance_per_vertex"])
    assert measured == pytest.approx(closed, rel=0.15)


def test_check_var_z_rejects_oversized_values():
    gadget = relaxed_suite_8v()
    with pytest.raises(ValueError):
        check_var_z(gadget, {(1, 2): 0.5}, 0.05, trials=100, seed=16)


@pytest.mark.parametrize("trials", [0, 1])
def test_check_var_z_needs_two_trials_before_drawing(monkeypatch, trials):
    # one trial has no sample variance: (trials - 1) would divide by zero and
    # write NaN and Infinity into the verify report
    def no_draw(*args, **kwargs):
        raise AssertionError("check_var_z drew samples")

    monkeypatch.setattr(verifier, "estimate_pair_alive", no_draw)
    monkeypatch.setattr(verifier, "run_blocks", no_draw)
    gadget = relaxed_suite_8v()
    with pytest.raises(ValueError, match="trials must be >= 2"):
        check_var_z(gadget, var_z_synthetic_x(gadget, gadget.tau), gadget.tau,
                    trials=trials, seed=9)


def test_check_concentration_y_no_noncrucial_edges():
    gadget = two_path()  # everything crucial: Y is identically zero
    params = Params(epsilon=0.2, delta=1 / 576.0, p_min=gadget.graph.p_min)
    tables = build_tables_exact(gadget.graph, params, gadget.t, tau=0.0)
    report = check_concentration_y(gadget, tables, trials=2000, seed=17)
    assert report.verdict in ("pass", "inconclusive")
    assert max(report.details["tail_center_vs_eta"]) == 0.0
    assert not report.failed


def test_check_concentration_y_relaxed_suite():
    gadget = relaxed_suite_8v()
    params = Params(epsilon=gadget.epsilon, delta=1 / 576.0, p_min=gadget.graph.p_min)
    tables = build_tables_exact(gadget.graph, params, gadget.t, tau=gadget.tau)
    report = check_concentration_y(gadget, tables, trials=8000, seed=18)
    assert not report.failed
    assert report.verdict == "inconclusive"  # desk t is far below the theory t
    assert not report.details["theory_tails_gated"]


def test_check_influence_independence_three_path():
    gadget = three_path()
    report = check_influence_independence(gadget, u=1, w=2, perm=(0, 1, 2, 3),
                                          trials=20_000, seed=19)
    assert report.verdict == "pass"
    assert report.estimate >= report.threshold


def test_report_table_and_failures():
    reports = [
        check_pair_alive(isolated_pair(), trials=200, seed=20),
        check_negative_association(positive_covariance_control(),
                                   trials=10_000, seed=21),
    ]
    table = format_report_table(reports)
    assert "pair_alive[isolated_pair]" in table
    fails = gated_failures(reports)
    assert [r.name for r in fails] == ["negative_association[positive_covariance_control]"]


def test_try_enumeration_skips_only_oversized_instances(monkeypatch):
    assert star(5).enumeration is None
    monkeypatch.setattr(MatchingLaw, "y_prime", lambda self, e, mask, bits: 1.0)
    with pytest.raises(ValueError, match="exceed one") as info:
        two_path().enumeration
    assert not isinstance(info.value, EnumerationTooLarge)


def test_each_gadget_is_enumerated_once_across_its_checks(monkeypatch):
    calls = []
    real = gadgets.exact_vb_enumeration

    def counting(law):
        calls.append(law)
        return real(law)

    monkeypatch.setattr(gadgets, "exact_vb_enumeration", counting)
    for gadget in (three_path(), star(5)):
        reports = [check(gadget, 200, 1) for check in
                   (check_activation, check_selectability, check_pair_alive)]
        assert len(calls) == 1 and calls[0] is gadget.law
        assert [r.details["enumerated"] for r in reports] == [gadget.name != "star5"] * 3
        calls.clear()


# ---------------------------------------------------------------------------
# Block outputs do not depend on the worker count or on plan chunking


CHUNK_TRIALS = BLOCK_LEN + 17  # a full block and a partial one


@pytest.mark.parametrize("check", [check_activation, check_pair_alive,
                                   check_negative_association],
                         ids=lambda fn: fn.__name__)
def test_relaxed_checks_identical_with_one_and_two_workers(check):
    gadget = relaxed_suite_8v()
    one = dataclasses.asdict(check(gadget, CHUNK_TRIALS, 31))
    with worker_pool(2):
        two = dataclasses.asdict(check(gadget, CHUNK_TRIALS, 31))
    assert one == two
    assert one["trials"] == CHUNK_TRIALS


def test_draw_plans_asks_for_at_most_block_len_rows(monkeypatch):
    gadget = relaxed_suite_8v()  # t = 120: a block's plans need many calls
    rows = []
    real = sparsifier.sample_masks

    def recording(g, rng, count, scope=None):
        rows.append(count)
        return real(g, rng, count, scope)

    monkeypatch.setattr(sparsifier, "sample_masks", recording)
    check_negative_association(gadget, CHUNK_TRIALS, 32)
    assert sum(rows) == CHUNK_TRIALS * gadget.t
    assert 1 < len(rows) and max(rows) <= BLOCK_LEN


# ---------------------------------------------------------------------------
# The outcome-counting blocks against one pass per run, as they were written


def test_vb_stats_block_equals_per_run_loop():
    law = benchmark_6v8e().law
    pairs = ((0, 3), (1, 4), (2, 5))
    inputs = draw_run_inputs(law, rng_from(41, verifier._TAG_VB, 2), 400)
    g = law.graph
    active, selected = np.zeros(g.m, np.int64), np.zeros(g.m, np.int64)
    alive, pair_counts, clip = np.zeros(g.n, np.int64), np.zeros(3, np.int64), 0
    for row in zip(*inputs):
        out = reference_run_vb(law, *row)
        clip += out.clip_events
        for _v, partner, e in out.log:
            if partner is not None:
                active[e] += 1
        for e in mask_edges(out.matching):
            selected[e] += 1
        for v in mask_edges(out.alive):
            alive[v] += 1
        for j, (u, v) in enumerate(pairs):
            if (out.alive >> u) & 1 and (out.alive >> v) & 1:
                pair_counts[j] += 1
    got = estimator._vb_stats_block(law, pairs, 41, verifier._TAG_VB, 2, 400)
    for a, b in zip(got, (active, selected, alive, pair_counts, clip)):
        assert np.array_equal(a, b)


def test_z_block_sums_equal_per_run_loop_bit_for_bit():
    gadget = relaxed_suite_8v()
    x = var_z_synthetic_x(gadget, gadget.tau)
    support = tuple(sorted(x))
    h_values = tuple(x[pair] / 0.37 for pair in support)
    n = gadget.graph.n
    inputs = draw_run_inputs(gadget.law, rng_from(42, verifier._TAG_Z, 1), 500)
    sums, sumsq = np.zeros(n), np.zeros(n)
    for row in zip(*inputs):
        alive = reference_run_vb(gadget.law, *row).alive
        z = np.zeros(n)
        for (u, v), h in zip(support, h_values):
            if (alive >> u) & 1:
                z[v] += h
            if (alive >> v) & 1:
                z[u] += h
        sums += z
        sumsq += z * z
    got_sums, got_sumsq = verifier._z_block(gadget.law, support, h_values, n, 42, 1, 500)
    assert got_sums.tobytes() == sums.tobytes()
    assert got_sumsq.tobytes() == sumsq.tobytes()


def test_y_block_rows_equal_per_run_loop():
    gadget = relaxed_suite_8v()
    g = gadget.graph
    params = Params(epsilon=gadget.epsilon, delta=PAIR_ALIVE_FLOOR, p_min=g.p_min)
    tables = build_tables_exact(g, params, gadget.t, tau=gadget.tau)
    rng = rng_from(43, verifier._TAG_Y, 0)
    perms, reals, uniforms = draw_run_inputs(tables.law, rng, 200)
    q_masks = [draw_plans(g, 30, rng, 1).tolist()[0] for _ in range(200)]
    noncrucial = tables.classes.noncrucial()
    rows = np.zeros((200, g.n))
    for i in range(200):
        real_mask = reals[i] | sample_masks(g, rng, 1, scope=noncrucial)[0]
        alive = reference_run_vb(tables.law, perms[i], real_mask, uniforms[i]).alive
        queried = q_masks[i] & real_mask
        for e in tables.classes.noncrucial():
            if not (queried >> e) & 1:
                continue
            u, v = g.endpoints(e)
            if (alive >> u) & 1:
                rows[i, v] += tables.g_table[e]
            if (alive >> v) & 1:
                rows[i, u] += tables.g_table[e]
    got = verifier._y_block(g, tables, 30, 43, 0, 200)
    assert got.shape == rows.shape and got.tobytes() == rows.tobytes()
    assert np.count_nonzero(rows) > 10


def test_plan_pair_and_log_joint_blocks_equal_per_run_loops():
    g = benchmark_6v8e().graph
    pairs = tuple(incident_edge_pairs(g))
    rng = rng_from(44, verifier._TAG_NA, 3)
    cells = np.zeros((len(pairs), 4), dtype=np.int64)
    for _ in range(300):
        [q_mask] = draw_plans(g, 3, rng, 1).tolist()
        for j, (e1, e2) in enumerate(pairs):
            cells[j, 2 * ((q_mask >> e1) & 1) + ((q_mask >> e2) & 1)] += 1
    assert np.array_equal(verifier._plan_pair_block(g, 3, pairs, 44, 3, 300), cells)

    law = three_path().law
    perm = (0, 1, 2, 3)
    inputs = draw_run_inputs(law, rng_from(45, verifier._TAG_IND, 0), 300, perm)
    counts = {}
    for row in zip(*inputs):
        log = reference_run_vb(law, *row).log
        xu = next(p for v, p, _e in log if v == 1)
        xw = next(p for v, p, _e in log if v == 3)
        counts[(xu, xw)] = counts.get((xu, xw), 0) + 1
    got = verifier._log_joint_block(law, perm, 1, 3, 45, 0, 300)
    assert list(got.items()) == list(counts.items())


def relaxed_concentration_y(gadget, trials, seed):
    g = gadget.graph
    params = Params(epsilon=gadget.epsilon, delta=PAIR_ALIVE_FLOOR, p_min=g.p_min)
    tables = build_tables_exact(g, params, gadget.t, tau=gadget.tau)
    return check_concentration_y(gadget, tables, trials, seed)


def relaxed_coverage(gadget, trials, seed):
    x = gadget.law.y
    return verifier.check_crucial_coverage(gadget.graph, sparsifier.classify_edges(x, 0.1),
                                           x, 0.5, gadget.t, trials, seed)


@pytest.mark.parametrize("check", [check_activation, check_selectability, check_pair_alive,
                                   check_negative_association, relaxed_concentration_y,
                                   relaxed_coverage])
def test_zero_trials_raise_a_value_error(check):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check(relaxed_suite_8v(), 0, 5)


# ---------------------------------------------------------------------------
# Every gated comparison reads Z_GATE


def gate_outcomes() -> dict[str, list[bool]]:
    """Per gate, whether each of its comparisons with a positive standard
    error failed, on small fixtures that exercise every gated comparison."""
    def positive(entries, se=lambda entry: entry["se"]):
        return [entry for entry in entries if se(entry) > 0]

    activation = check_activation(three_path(), trials=2000, seed=1)
    oracle_selected = check_selectability(three_path(), trials=2000, seed=2)
    floor_selected = check_selectability(single_edge(y=0.5), trials=2000, seed=3)
    alive = check_pair_alive(two_path(), trials=2000, seed=4)
    pairs = positive(e for e in alive.details["pairs"].values() if "adjacent" not in e)
    singles = positive(alive.details["alive_single"].values(),
                       lambda entry: 0.0 < entry["freq"] < 1.0)
    association = check_negative_association(benchmark_6v8e(), trials=2000, seed=5)
    concentration = relaxed_concentration_y(relaxed_suite_8v(), trials=2000, seed=6)
    g = StochasticGraph(n=2, edges=(Edge(0, 1, 1.0, 0.5),))
    x = np.array([0.5])
    coverage = verifier.check_crucial_coverage(g, sparsifier.classify_edges(x, 0.4), x,
                                               epsilon=0.5, t=5, trials=2000, seed=7)
    assert coverage.theory_precondition_met  # 5 >= 1/(0.4*0.5)
    assert all(0.0 < freq < 1.0 for freq, _floor, _ok in coverage.claim_floor.values())
    for report in (activation, oracle_selected):  # gated on the worst edge: all must count
        edges = list(report.details["edges"].values())
        assert positive(edges) == edges and report.details["enumerated"]
    assert not oracle_selected.details["eight_fifteenths_gated"]
    return {
        "activation": [activation.verdict == "fail"],
        "selectability_oracle": [oracle_selected.verdict == "fail"],
        "selectability_8_15": ["below_8_15" in entry for entry in
                               positive(floor_selected.details["edges"].values())],
        "pair_alive_floor": ["below_floor" in entry for entry in pairs],
        "pair_alive_oracle": ["off_oracle" in entry for entry in pairs],
        "alive_single_floor": ["below_floor" in entry for entry in singles],
        "negative_association": ["positive" in entry for entry in
                                 positive(association.details["pairs"].values())],
        "chebyshev": ["exceeded" in entry for entry in
                      positive(concentration.details["chebyshev"].values())],
        "coverage_crucial": [not ok for _f, _floor, ok in coverage.coverage.values()],
        "coverage_claim": [not ok for _f, _floor, ok in coverage.claim_floor.values()],
    }


@pytest.mark.parametrize("z_gate, failed", [(-1e9, True), (1e9, False)])
def test_every_gate_reads_z_gate(monkeypatch, z_gate, failed):
    # a gate at minus a billion standard errors fails every comparison with a
    # positive standard error, and one at plus a billion passes them all; a
    # gate with a threshold of its own would keep its verdict under either
    monkeypatch.setattr(verifier, "Z_GATE", z_gate)
    for gate, flags in gate_outcomes().items():
        assert flags, gate
        assert all(flag is failed for flag in flags), (gate, flags)
