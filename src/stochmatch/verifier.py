"""Statistical verification of the pipeline's probabilistic guarantees.

Every check is a deterministic function of (instance, seed, trials) and
produces a :class:`CheckReport` (:class:`CoverageReport` for plan coverage).
A check lists its comparisons as :class:`Comparison` rows (a frequency
against ``g(y)``, an enumeration oracle or a floor such as 8/15 y or 1/576;
an exact quantity against its bound at zero standard error), and the one
gate :func:`fails` decides each row at ``Z_GATE`` standard errors.
Structural facts (matching validity, degree caps, alive-set disjointness)
are asserted exactly inside the sampled runs themselves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .augmenter import PipelineTables, build_tables_exact
from .estimator import binomial_se, estimate_pair_alive, sample_vb_statistics
from .gadgets import (
    Gadget,
    positive_covariance_control,
    relaxed_suite_8v,
    shared_tie_fixture,
    var_z_synthetic_x,
    verification_gadgets,
)
from .graph_core import Params, StochasticGraph, mask_bits, mask_edges, sample_masks
from .parallel import rng_from, run_blocks
from .sparsifier import EdgeClasses, draw_plans, max_degree
from .vb_matching import (
    ActivationLaw,
    attenuation_g,
    draw_run_inputs,
    exact_vb_enumeration,
    run_vb,
)

_TAG_VB = 0x21
_TAG_NA = 0x22
_TAG_Z = 0x23
_TAG_Y = 0x24
_TAG_IND = 0x25
_TAG_COVERAGE = 0x5152

PAIR_ALIVE_FLOOR = 1.0 / 576.0  # 1/36 * 0.25^2
Z_GATE = 3.0  # a gated comparison fails past this many standard errors


@dataclass(frozen=True)
class CheckReport:
    name: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    gated: bool
    estimate: float
    std_err: float
    threshold: float
    trials: int
    details: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.gated and self.verdict == "fail"


def two_point_covariance(q: float) -> float:
    """Covariance of indicators under the law 'exactly one of two, first w.p. q'."""
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must be a probability")
    return -q * (1.0 - q)


def z_gap(estimate: float, target: float, se: float) -> float:
    """``|estimate - target|`` in standard errors ``se`` (infinite for a gap
    at zero standard error)."""
    gap = abs(estimate - target)
    return gap / se if se > 0 else (0.0 if gap == 0 else math.inf)


class Comparison(NamedTuple):
    """``estimate`` against ``target``, failing ``"below"``, ``"above"`` or
    ``"either"`` way; a failing row sets ``entry[flag]`` and, if it
    ``gates``, fails its report."""

    estimate: float
    target: float
    se: float
    side: str = "either"
    entry: dict | None = None
    flag: str | None = None
    gates: bool = True


def fails(row: Comparison) -> bool:
    """The one gate: whether ``row`` misses its target by more than
    ``Z_GATE`` standard errors on its failing side."""
    if row.side == "below":
        return row.estimate < row.target - Z_GATE * row.se
    if row.side == "above":
        return row.estimate > row.target + Z_GATE * row.se
    return z_gap(row.estimate, row.target, row.se) > Z_GATE


def _flag_failures(rows) -> bool:
    """Flag the entry of every failing row; whether a gated row failed."""
    failed = False
    for row in rows:
        if fails(row):
            if row.flag is not None:
                row.entry[row.flag] = True
            failed = failed or row.gates
    return failed


def _report(name: str, rows, estimate: float, threshold: float, trials: int,
            details: dict, inconclusive: bool = False) -> CheckReport:
    """A check's report: ``fail`` when a gated row fails, else ``pass`` or ``inconclusive``."""
    verdict = "fail" if _flag_failures(rows) else "inconclusive" if inconclusive else "pass"
    return CheckReport(name=name, verdict=verdict, gated=True, estimate=estimate,
                       std_err=0.0, threshold=threshold, trials=trials, details=details)


def _worst_excess(rows) -> float:
    """The largest ``estimate - target - Z_GATE * se`` of ``rows``, or 0.0."""
    return max((row.estimate - row.target - Z_GATE * row.se for row in rows), default=0.0)


def _noncrucial_pairs(g: StochasticGraph, crucial_mask: int):
    """Vertex pairs with no crucial edge between them (guarantee scope), and the rest."""
    pairs = list(combinations(range(g.n), 2))
    adjacent = [p for p in pairs if p in g.pair_index and (crucial_mask >> g.pair_index[p]) & 1]
    return [p for p in pairs if p not in adjacent], adjacent


# ---------------------------------------------------------------------------
# Checks


def check_activation(gadget: Gadget, trials: int, seed: int) -> CheckReport:
    """Activation frequency of every crucial edge vs g(y) and the oracle."""
    active, _sel, _alive, _pairs, clip = sample_vb_statistics(gadget.law, (), trials, seed, _TAG_VB)
    dist = gadget.enumeration
    y = gadget.law.y
    details = {}
    rows = []
    z_max = 0.0
    oracle_gap = 0.0
    for e in mask_edges(gadget.crucial_mask):
        freq = active[e] / trials
        target = attenuation_g(float(y[e]))
        entry = {"freq": freq, "g_of_y": target, "se": binomial_se(freq, trials)}
        targets = [target]
        if dist is not None:
            exact = dist.edge_active_prob(e)
            entry["exact"] = exact
            targets.append(exact)
            oracle_gap = max(oracle_gap, abs(exact - target))
        rows += [Comparison(freq, value, entry["se"]) for value in targets]
        entry["z"] = max(z_gap(freq, value, entry["se"]) for value in targets)
        z_max = max(z_max, entry["z"])
        details[str(e)] = entry
    return _report(f"activation[{gadget.name}]", rows, z_max, Z_GATE, trials,
                   {"edges": details, "oracle_vs_g_gap": oracle_gap,
                    "enumerated": dist is not None, "clip_events": clip})


def check_selectability(gadget: Gadget, trials: int, seed: int) -> CheckReport:
    """Matching membership vs the enumeration oracle, and the 8/15 line
    (gated only with a single crucial edge)."""
    _act, selected, _alive, _pairs, _clip = sample_vb_statistics(gadget.law, (), trials, seed, _TAG_VB)
    dist = gadget.enumeration
    y = gadget.law.y
    single_edge = bin(gadget.crucial_mask).count("1") == 1
    details = {}
    rows = []
    z_max = 0.0
    for e in mask_edges(gadget.crucial_mask):
        freq = selected[e] / trials
        floor = (8.0 / 15.0) * float(y[e])
        entry = {"freq": freq, "se": binomial_se(freq, trials), "target_8_15": floor}
        if dist is not None:
            entry["exact"] = dist.edge_selected_prob(e)
            rows.append(Comparison(freq, entry["exact"], entry["se"]))
            entry["z"] = z_gap(freq, entry["exact"], entry["se"])
            z_max = max(z_max, entry["z"])
        rows.append(Comparison(freq, floor, entry["se"], "below", entry, "below_8_15", single_edge))
        details[str(e)] = entry
    report = _report(f"selectability[{gadget.name}]", rows, z_max, Z_GATE, trials,
                     {"edges": details, "enumerated": dist is not None,
                      "eight_fifteenths_gated": single_edge})
    report.details["eight_fifteenths_floor_ok"] = all(
        "below_8_15" not in entry for entry in details.values())
    return report


def check_pair_alive(gadget: Gadget, trials: int, seed: int) -> CheckReport:
    """Joint alive frequency of non-adjacent pairs vs floor and oracle."""
    g = gadget.graph
    pairs, adjacent = _noncrucial_pairs(g, gadget.crucial_mask)
    _act, _sel, alive, pair_counts, _clip = sample_vb_statistics(
        gadget.law, tuple(pairs + adjacent), trials, seed, _TAG_VB)
    dist = gadget.enumeration
    details = {}
    rows = []
    worst = 1.0
    for u, v in pairs:
        freq = pair_counts[(u, v)] / trials
        entry = {"freq": freq, "se": binomial_se(freq, trials)}
        rows.append(Comparison(freq, PAIR_ALIVE_FLOOR, entry["se"], "below", entry, "below_floor"))
        if dist is not None:
            entry["exact"] = dist.pair_alive_prob(u, v)
            rows.append(Comparison(freq, entry["exact"], entry["se"], entry=entry,
                                   flag="off_oracle"))
        worst = min(worst, freq)
        details[f"{u}-{v}"] = entry
    for u, v in adjacent:
        freq = pair_counts[(u, v)] / trials
        details[f"{u}-{v}"] = {"freq": freq, "adjacent": True}
    # marginal floor: Pr[v alive] >= 1 - y_v within the band
    y = gadget.law.y
    singles = {}
    for v in range(g.n):
        freq = alive[v] / trials
        y_v = float(sum(y[e] for e in g.incident[v] if (gadget.crucial_mask >> e) & 1))
        singles[str(v)] = {"freq": freq, "floor": 1.0 - y_v}
        rows.append(Comparison(freq, 1.0 - y_v, binomial_se(freq, trials), "below",
                               singles[str(v)], "below_floor"))
    return _report(f"pair_alive[{gadget.name}]", rows, worst, PAIR_ALIVE_FLOOR, trials,
                   {"pairs": details, "enumerated": dist is not None,
                    "alive_single": singles})


# ---------------------------------------------------------------------------
# Negative association of plan membership


def _plan_pair_block(g: StochasticGraph, t: int, pairs: tuple, seed: int,
                     block: int, count: int) -> np.ndarray:
    rng = rng_from(seed, _TAG_NA, block)
    plans = draw_plans(g, t, rng, count)
    first, second = (mask_bits(plans, edges) for edges in zip(*pairs))
    cell = 2 * first + second  # per plan and pair: 0..3 for n00 n01 n10 n11
    return np.stack([np.count_nonzero(cell == c, axis=0) for c in range(4)], axis=1)


def covariance_from_cells(cells: np.ndarray) -> tuple[float, float]:
    """Sample covariance of two Bernoulli indicators and its standard error."""
    total = int(cells.sum())
    p11 = cells[3] / total
    pa = (cells[2] + cells[3]) / total
    pb = (cells[1] + cells[3]) / total
    cov = p11 - pa * pb
    # moment estimator of Var(cov_hat): E[(a-pa)^2 (b-pb)^2] - cov^2, over n
    m22 = 0.0
    for cell, (a, b) in zip(cells, ((0, 0), (0, 1), (1, 0), (1, 1))):
        m22 += cell / total * ((a - pa) ** 2) * ((b - pb) ** 2)
    var = max(m22 - cov**2, 0.0) / total
    return float(cov), math.sqrt(var)


def incident_edge_pairs(g: StochasticGraph) -> list[tuple[int, int]]:
    return sorted({(min(a, b), max(a, b))
                   for inc in g.incident for a, b in combinations(inc, 2)})


def check_negative_association(gadget: Gadget, trials: int, seed: int) -> CheckReport:
    """Plan-membership covariance of incident edge pairs is <= +Z_GATE*SE.

    Declared pairs of the gadget are gated as well (that is how the negative
    control forces a failure).  The structural 'exactly one of the two edges
    per plan' fact is recorded for the tie fixture.
    """
    g = gadget.graph
    name = f"negative_association[{gadget.name}]"
    pairs = incident_edge_pairs(g)
    pairs += [p for p in gadget.declared_pairs if p not in pairs]
    if not pairs:
        return _report(name, [], 0.0, 0.0, 0, {"pairs": {}})
    parts = run_blocks(_plan_pair_block, (g, gadget.t, tuple(pairs), seed), trials)
    cells = sum(parts)
    details = {}
    rows = []
    for j, (e1, e2) in enumerate(pairs):
        cov, se = covariance_from_cells(cells[j])
        entry = {"cov": cov, "se": se, "exactly_one_freq": int(cells[j, 1] + cells[j, 2]) / trials}
        rows.append(Comparison(cov, 0.0, se, "above", entry, "positive"))
        details[f"{e1},{e2}"] = entry
    return _report(name, rows, _worst_excess(rows), 0.0, trials, {"pairs": details})


# ---------------------------------------------------------------------------
# Plan coverage


@dataclass(frozen=True)
class CoverageReport:
    """Per-edge plan-membership frequencies against their guaranteed floors."""

    trials: int
    t: int
    epsilon: float
    tau: float
    theory_precondition_met: bool
    coverage: dict  # edge -> (freq, floor, passed) for crucial edges
    claim_floor: dict  # edge -> (freq, floor, passed) for all edges
    max_degree_seen: int
    degree_bound_ok: bool


def check_crucial_coverage(g: StochasticGraph, classes: EdgeClasses, x_hat: np.ndarray,
                           epsilon: float, t: int, trials: int, seed: int) -> CoverageReport:
    """Measure Pr[edge joins the plan] across plan re-draws.

    Crucial edges are gated against the ``1 - epsilon`` floor whenever the
    ``t >= 1/(tau*epsilon)`` precondition actually holds (at practical ``t``
    it usually does not, and the floor is then informational only); every
    edge is gated against the unconditional ``min(1/3, t*x/3)`` floor.  The
    structural ``max degree <= t`` bound is checked on every sampled plan.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plans = draw_plans(g, t, rng_from(seed, _TAG_COVERAGE), trials)
    counts = mask_bits(plans, range(g.m)).sum(axis=0)
    max_degree_seen = max(max_degree(g, q_mask) for q_mask in set(plans.tolist()))

    freq = counts / trials
    precondition = t >= 1.0 / (classes.tau * epsilon)

    def entry(e: int, floor: float, gated: bool = True) -> tuple:
        row = Comparison(freq[e], floor, binomial_se(freq[e], trials), "below", gates=gated)
        return float(freq[e]), floor, not _flag_failures([row])

    coverage = {e: entry(e, 1.0 - epsilon, precondition) for e in classes.crucial()}
    claim_floor = {e: entry(e, min(1.0 / 3.0, t * float(x_hat[e]) / 3.0)) for e in range(g.m)}

    return CoverageReport(
        trials=trials, t=t, epsilon=epsilon, tau=classes.tau,
        theory_precondition_met=bool(precondition), coverage=coverage,
        claim_floor=claim_floor, max_degree_seen=max_degree_seen,
        degree_bound_ok=max_degree_seen <= t,
    )


# ---------------------------------------------------------------------------
# Var(Z_v) and Y_v concentration


def _z_block(law: ActivationLaw, support: tuple, h_values: tuple, n: int,
             seed: int, block: int, count: int):
    rng = rng_from(seed, _TAG_Z, block)
    # the distinct alive vertex masks, and for each run the row of its mask
    outcomes, runs = np.unique(run_vb(law, *draw_run_inputs(law, rng, count)).alive,
                               return_inverse=True)
    rows = np.zeros((len(outcomes), n))
    for i, alive in enumerate(outcomes.tolist()):
        for (u, v), h in zip(support, h_values):
            if (alive >> u) & 1:
                rows[i, v] += h
            if (alive >> v) & 1:
                rows[i, u] += h
    # add.accumulate sums the runs one by one in run order, so the float
    # sums are those of adding each run's vector in turn
    z = rows[runs]
    return np.add.accumulate(z)[-1], np.add.accumulate(z * z)[-1]


def check_var_z(gadget: Gadget, synthetic_x: dict[tuple[int, int], float],
                tau: float, trials: int, seed: int, slack: float = 0.2) -> CheckReport:
    """Sample variance of the alive-weighted neighborhood sums vs 10*tau/delta^2.

    ``synthetic_x`` must be a fractional matching on the complement of the
    crucial graph with every value at most ``tau``; pair-alive denominators
    are measured first, and ``delta_hat`` is their minimum.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2 for a sample variance")
    if any(x > tau + 1e-12 for x in synthetic_x.values()):
        raise ValueError("synthetic fractional matching exceeds tau")
    g = gadget.graph
    support = tuple(sorted((min(u, v), max(u, v)) for u, v in synthetic_x))
    pair_est = estimate_pair_alive(gadget.law, list(support), trials, seed + 1)
    delta_hat = min(est.value for est in pair_est.values()) if support else 1.0
    if delta_hat <= 0.0:
        raise ValueError("measured pair-alive floor is zero; cannot form h values")
    h_values = tuple(synthetic_x[pair] / pair_est[pair].value for pair in support)
    parts = run_blocks(_z_block, (gadget.law, support, h_values, g.n, seed), trials)
    sums = sum(p[0] for p in parts)
    sumsq = sum(p[1] for p in parts)
    mean = sums / trials
    var = (sumsq - trials * mean**2) / (trials - 1)
    bound = 10.0 * tau / delta_hat**2 * (1.0 + slack)
    worst = float(np.max(var)) if g.n else 0.0
    return _report(f"var_z[{gadget.name}]", [Comparison(worst, bound, 0.0, "above")],
                   worst, bound, trials,
                   {"delta_hat": delta_hat, "tau": tau,
                    "variance_per_vertex": [float(v) for v in var],
                    "pair_alive": {f"{u}-{v}": pair_est[(u, v)].value for u, v in support}})


def _y_block(g: StochasticGraph, tables: PipelineTables, t: int, seed: int,
             block: int, count: int) -> np.ndarray:
    rng = rng_from(seed, _TAG_Y, block)
    noncrucial = tables.classes.noncrucial_mask
    alive = run_vb(tables.law, *draw_run_inputs(tables.law, rng, count)).alive
    # the plans, then the non-crucial realizations, after the runs' inputs
    q_masks = draw_plans(g, t, rng, count)
    real_masks = sample_masks(g, rng, count, scope=mask_edges(noncrucial))
    outcomes: dict = {}  # (queried non-crucial edges, alive vertices) masks -> row of `rows`
    runs = [outcomes.setdefault(key, len(outcomes))
            for key in zip((q_masks & real_masks).tolist(), alive.tolist())]
    rows = np.zeros((len(outcomes), g.n))
    for (queried, alive), i in outcomes.items():
        for e in mask_edges(queried):
            u, v = g.endpoints(e)
            g_e = tables.g_table[e]
            if (alive >> u) & 1:
                rows[i, v] += g_e
            if (alive >> v) & 1:
                rows[i, u] += g_e
    return rows[runs]


def check_concentration_y(gadget: Gadget, tables: PipelineTables, trials: int,
                          seed: int) -> CheckReport:
    """Concentration of the fractional-degree precursor.

    The (eta, beta) tail bound needs the theory-scale plan size, which desk
    instances cannot realize, so those tails are reported without a gate and
    the verdict stays inconclusive below the theory t.  What *is* gated, at
    any scale, is the same functional form the bound rests on: the mass
    beyond c standard deviations of the mean must be at most 1/c^2 within
    the band, for several c.
    """
    g = gadget.graph
    params = tables.params
    parts = run_blocks(_y_block, (g, tables, gadget.t, seed), trials)
    rows = np.vstack(parts)
    eta, beta = params.eta, params.beta
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    tail_center = (np.abs(rows - means) >= eta).mean(axis=0)
    tail_high = (rows >= 1.0 + 3.0 * eta).mean(axis=0)

    cheb = {}
    comparisons = []
    for c in (3.0, 5.0, 10.0):
        bound = 1.0 / c**2
        for v in range(g.n):
            if stds[v] <= 0.0:
                continue
            mass = float((np.abs(rows[:, v] - means[v]) >= c * stds[v]).mean())
            se = binomial_se(mass, trials)
            entry = cheb[f"c={c:g},v={v}"] = {"mass": mass, "bound": bound, "se": se}
            comparisons.append(Comparison(mass, bound, se, "above", entry, "exceeded"))
    details = {
        "eta": eta,
        "beta": beta,
        "mean_Y": [float(x) for x in means],
        "tail_center_vs_eta": [float(x) for x in tail_center],
        "tail_high_vs_1_plus_3eta": [float(x) for x in tail_high],
        "theory_tails_gated": False,
        "chebyshev": cheb,
        "t_theory": params.t_theory,
        "t_used": gadget.t,
    }
    return _report(f"concentration_y[{gadget.name}]", comparisons, _worst_excess(comparisons),
                   0.0, trials, details, inconclusive=gadget.t < params.t_theory)


# ---------------------------------------------------------------------------
# Influential-variable independence


def _log_joint_block(law: ActivationLaw, perm: tuple, u: int, w: int, seed: int,
                     block: int, count: int) -> dict:
    rng = rng_from(seed, _TAG_IND, block)
    g = law.graph
    activated = Counter(run_vb(law, *draw_run_inputs(law, rng, count, perm)).activated.tolist())
    position = {v: i for i, v in enumerate(perm)}
    # the edges of each vertex's batch: its crucial edges to earlier arrivals
    batches = {x: [e for e in mask_edges(law.crucial_mask) if x in g.endpoints(e)
                   and position[g.other_end(e, x)] < position[x]] for x in (u, w)}

    def partner(x: int, active: int) -> int | None:
        """The other end of the edge that activated when ``x`` arrived."""
        return next((g.other_end(e, x) for e in batches[x] if (active >> e) & 1), None)

    counts: dict[tuple, int] = {}
    for active, k in activated.items():
        key = (partner(u, active), partner(w, active))
        counts[key] = counts.get(key, 0) + k
    return counts


def check_influence_independence(gadget: Gadget, u: int, w: int, perm,
                                 trials: int, seed: int, alpha: float = 1e-3) -> CheckReport:
    """Chi-square test of pairwise independence of two activation records.

    Runs with a fixed arrival order (the independence statement is per
    order); expected cell masses come from the exact enumeration marginals.
    """
    # Imported here: scipy.stats costs most of the package import time and
    # no other check or CLI command needs it.
    from scipy import stats as sps

    dist = exact_vb_enumeration(gadget.law)
    comp = dist.component_of(u)
    if w not in comp.vertices:
        raise ValueError("both vertices must be in one crucial component")
    rel_order = tuple(v for v in perm if v in comp.vertices)
    log_law = comp.per_order[rel_order]["log"]
    pu: dict = {}
    pw: dict = {}
    for log, prob in log_law.items():
        xu = next(p for v, p in log if v == u)
        xw = next(p for v, p in log if v == w)
        pu[xu] = pu.get(xu, 0.0) + prob
        pw[xw] = pw.get(xw, 0.0) + prob
    parts = run_blocks(_log_joint_block, (gadget.law, tuple(perm), u, w, seed), trials)
    counts: dict[tuple, int] = {}
    for part in parts:
        for key, k in part.items():
            counts[key] = counts.get(key, 0) + k
    statistic = 0.0
    cells = 0
    for xu, prob_u in pu.items():
        for xw, prob_w in pw.items():
            expected = prob_u * prob_w * trials
            if expected <= 0.0:
                continue
            observed = counts.get((xu, xw), 0)
            statistic += (observed - expected) ** 2 / expected
            cells += 1
    dof = max(cells - 1, 1)
    p_value = float(sps.chi2.sf(statistic, dof))
    return _report(f"influence_independence[{gadget.name}:{u},{w}]",
                   [Comparison(p_value, alpha, 0.0, "below")], p_value, alpha, trials,
                   {"statistic": statistic, "dof": dof,
                    "marginals_u": {str(k): v for k, v in pu.items()},
                    "marginals_w": {str(k): v for k, v in pw.items()}})


# ---------------------------------------------------------------------------
# Suite


def default_suite(trials: int = 20_000, seed: int = 2024,
                  include_negative_control: bool = False) -> list[CheckReport]:
    """The bundled verification suite over the shipped gadget instances."""
    reports: list[CheckReport] = []
    for gadget in verification_gadgets():
        reports.append(check_activation(gadget, trials, seed))
        reports.append(check_selectability(gadget, trials, seed + 1))
        reports.append(check_pair_alive(gadget, trials, seed + 2))
        if gadget.graph.m >= 2:
            reports.append(check_negative_association(gadget, trials, seed + 3))

    tie = shared_tie_fixture()
    oracle = two_point_covariance(0.5)
    reports.append(_report(
        "two_point_oracle[shared_tie]", [Comparison(oracle, -0.25, 0.0)], oracle, -0.25, 0,
        {"note": "covariance of the symmetric exactly-one-of-two law"}))
    reports.append(check_negative_association(tie, trials, seed + 4))

    relaxed = relaxed_suite_8v()
    params = Params(epsilon=relaxed.epsilon, delta=PAIR_ALIVE_FLOOR,
                    p_min=relaxed.graph.p_min)
    tables = build_tables_exact(relaxed.graph, params, relaxed.t, tau=relaxed.tau)
    reports.append(check_var_z(relaxed, var_z_synthetic_x(relaxed, relaxed.tau),
                               relaxed.tau, trials, seed + 5))
    reports.append(check_concentration_y(relaxed, tables, trials, seed + 6))

    if include_negative_control:
        reports.append(check_negative_association(
            positive_covariance_control(), trials, seed + 7))
    return reports


def format_report_table(reports: list[CheckReport]) -> str:
    name_width = max(len(r.name) for r in reports) if reports else 4
    lines = [f"{'check'.ljust(name_width)}  verdict       estimate      threshold   trials"]
    for r in reports:
        lines.append(
            f"{r.name.ljust(name_width)}  {r.verdict:<12}  {r.estimate:>12.6g}  "
            f"{r.threshold:>10.6g}  {r.trials:>6d}"
        )
    return "\n".join(lines)


def gated_failures(reports: list[CheckReport]) -> list[CheckReport]:
    return [r for r in reports if r.failed]
