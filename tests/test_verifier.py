import numpy as np
import pytest

from stochmatch.augmenter import build_tables_exact
from stochmatch.exact import EnumerationTooLarge, ExactConditional
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
from stochmatch.graph_core import Params
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
from stochmatch.verifier import _try_enumeration


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
    report = check_pair_alive(two_path(), trials=40_000, seed=8)
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
    assert _try_enumeration(star(5)) is None
    monkeypatch.setattr(ExactConditional, "y_prime", lambda self, e, mask, bits: 1.0)
    with pytest.raises(ValueError, match="exceed one") as info:
        _try_enumeration(two_path())
    assert not isinstance(info.value, EnumerationTooLarge)
