"""Statistical verification of the pipeline's probabilistic guarantees.

Every check is a deterministic function of (instance, seed, trials) and
produces a :class:`CheckReport` (:class:`CoverageReport` for plan coverage).
Every statistical comparison fails past ``Z_GATE`` standard errors: a
frequency against a target (``g(y)``, an enumeration oracle) in
:func:`z_gap`, against a floor (8/15 y, 1/576, coverage) in :func:`short_of`,
both with the standard error of :func:`estimator.binomial_se`.  Structural
facts (matching validity, degree caps, alive-set disjointness) are asserted
exactly inside the sampled runs themselves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

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


def z_gap(freq: float, target: float, trials: int) -> float:
    """``|freq - target|`` in standard errors of ``freq`` (infinite for a gap
    at zero standard error); gates fail when it exceeds ``Z_GATE``."""
    se = binomial_se(freq, trials)
    gap = abs(freq - target)
    return gap / se if se > 0 else (0.0 if gap == 0 else math.inf)


def short_of(freq: float, floor: float, trials: int) -> bool:
    """Whether ``freq`` falls more than ``Z_GATE`` standard errors below ``floor``."""
    return freq < floor - Z_GATE * binomial_se(freq, trials)


def _noncrucial_pairs(g: StochasticGraph, crucial_mask: int):
    """Vertex pairs with no crucial edge between them (guarantee scope)."""
    out = []
    adjacent = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            idx = g.pair_index.get((u, v))
            if idx is not None and (crucial_mask >> idx) & 1:
                adjacent.append((u, v))
            else:
                out.append((u, v))
    return out, adjacent


# ---------------------------------------------------------------------------
# Checks


def check_activation(gadget: Gadget, trials: int, seed: int) -> CheckReport:
    """Activation frequency of every crucial edge vs g(y) and the oracle."""
    active, _sel, _alive, _pairs, clip = sample_vb_statistics(gadget.law, (), trials, seed, _TAG_VB)
    dist = gadget.enumeration
    y = gadget.law.y
    details = {}
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
        z_edge = max(z_gap(freq, value, trials) for value in targets)
        z_max = max(z_max, z_edge)
        entry["z"] = z_edge
        details[str(e)] = entry
    verdict = "pass" if z_max <= Z_GATE else "fail"
    return CheckReport(
        name=f"activation[{gadget.name}]", verdict=verdict, gated=True,
        estimate=z_max, std_err=0.0, threshold=Z_GATE, trials=trials,
        details={"edges": details, "oracle_vs_g_gap": oracle_gap,
                 "enumerated": dist is not None, "clip_events": clip},
    )


def check_selectability(gadget: Gadget, trials: int, seed: int) -> CheckReport:
    """Matching membership vs the enumeration oracle, and the 8/15 line."""
    _act, selected, _alive, _pairs, _clip = sample_vb_statistics(gadget.law, (), trials, seed, _TAG_VB)
    dist = gadget.enumeration
    y = gadget.law.y
    details = {}
    z_max = 0.0
    ratio_floor_ok = True
    for e in mask_edges(gadget.crucial_mask):
        freq = selected[e] / trials
        floor = (8.0 / 15.0) * float(y[e])
        entry = {"freq": freq, "se": binomial_se(freq, trials), "target_8_15": floor}
        if dist is not None:
            exact = dist.edge_selected_prob(e)
            z_edge = z_gap(freq, exact, trials)
            z_max = max(z_max, z_edge)
            entry["exact"] = exact
            entry["z"] = z_edge
        if short_of(freq, floor, trials):
            ratio_floor_ok = False
            entry["below_8_15"] = True
        details[str(e)] = entry
    single_edge = bin(gadget.crucial_mask).count("1") == 1
    oracle_fail = dist is not None and z_max > Z_GATE
    verdict = "fail" if oracle_fail or (single_edge and not ratio_floor_ok) else "pass"
    return CheckReport(
        name=f"selectability[{gadget.name}]", verdict=verdict, gated=True,
        estimate=z_max, std_err=0.0, threshold=Z_GATE, trials=trials,
        details={"edges": details, "enumerated": dist is not None,
                 "eight_fifteenths_floor_ok": ratio_floor_ok,
                 "eight_fifteenths_gated": single_edge},
    )


def check_pair_alive(gadget: Gadget, trials: int, seed: int) -> CheckReport:
    """Joint alive frequency of non-adjacent pairs vs floor and oracle."""
    g = gadget.graph
    pairs, adjacent = _noncrucial_pairs(g, gadget.crucial_mask)
    _act, _sel, alive, pair_counts, _clip = sample_vb_statistics(
        gadget.law, tuple(pairs + adjacent), trials, seed, _TAG_VB)
    dist = gadget.enumeration
    details = {}
    verdict = "pass"
    worst = 1.0
    for u, v in pairs:
        freq = pair_counts[(u, v)] / trials
        entry = {"freq": freq, "se": binomial_se(freq, trials)}
        if short_of(freq, PAIR_ALIVE_FLOOR, trials):
            verdict = "fail"
            entry["below_floor"] = True
        if dist is not None:
            exact = dist.pair_alive_prob(u, v)
            entry["exact"] = exact
            if z_gap(freq, exact, trials) > Z_GATE:
                verdict = "fail"
                entry["off_oracle"] = True
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
        if short_of(freq, 1.0 - y_v, trials):
            verdict = "fail"
            singles[str(v)]["below_floor"] = True
    return CheckReport(
        name=f"pair_alive[{gadget.name}]", verdict=verdict, gated=True,
        estimate=worst, std_err=0.0, threshold=PAIR_ALIVE_FLOOR, trials=trials,
        details={"pairs": details, "enumerated": dist is not None,
                 "alive_single": singles},
    )


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
    pairs = incident_edge_pairs(g)
    pairs += [p for p in gadget.declared_pairs if p not in pairs]
    if not pairs:
        return CheckReport(name=f"negative_association[{gadget.name}]",
                           verdict="pass", gated=True, estimate=0.0,
                           std_err=0.0, threshold=0.0, trials=0,
                           details={"pairs": {}})
    parts = run_blocks(_plan_pair_block, (g, gadget.t, tuple(pairs), seed), trials)
    cells = sum(parts)
    details = {}
    verdict = "pass"
    worst = -math.inf
    for j, (e1, e2) in enumerate(pairs):
        cov, se = covariance_from_cells(cells[j])
        entry = {"cov": cov, "se": se}
        exactly_one = int(cells[j, 1] + cells[j, 2])
        entry["exactly_one_freq"] = exactly_one / trials
        if cov > Z_GATE * se:
            verdict = "fail"
            entry["positive"] = True
        worst = max(worst, cov - Z_GATE * se)
        details[f"{e1},{e2}"] = entry
    return CheckReport(
        name=f"negative_association[{gadget.name}]", verdict=verdict, gated=True,
        estimate=worst, std_err=0.0, threshold=0.0, trials=trials,
        details={"pairs": details},
    )


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
    edge is gated against the unconditional ``min(1/3, t*x/3)`` floor.  Both
    floors are :func:`short_of` gates.  The structural ``max degree <= t``
    bound is checked on every sampled plan.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plans = draw_plans(g, t, rng_from(seed, _TAG_COVERAGE), trials)
    counts = mask_bits(plans, range(g.m)).sum(axis=0)
    max_degree_seen = max(max_degree(g, q_mask) for q_mask in set(plans.tolist()))

    freq = counts / trials
    precondition = t >= 1.0 / (classes.tau * epsilon)

    def entry(e: int, floor: float, gated: bool = True) -> tuple:
        return float(freq[e]), floor, not (gated and short_of(freq[e], floor, trials))

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
    verdict = "pass" if worst <= bound else "fail"
    return CheckReport(
        name=f"var_z[{gadget.name}]", verdict=verdict, gated=True,
        estimate=worst, std_err=0.0, threshold=bound, trials=trials,
        details={"delta_hat": delta_hat, "tau": tau,
                 "variance_per_vertex": [float(v) for v in var],
                 "pair_alive": {f"{u}-{v}": pair_est[(u, v)].value
                                for u, v in support}},
    )


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

    cheb_fail = False
    cheb = {}
    worst_excess = -math.inf
    for c in (3.0, 5.0, 10.0):
        bound = 1.0 / c**2
        for v in range(g.n):
            if stds[v] <= 0.0:
                continue
            mass = float((np.abs(rows[:, v] - means[v]) >= c * stds[v]).mean())
            se = binomial_se(mass, trials)
            key = f"c={c:g},v={v}"
            cheb[key] = {"mass": mass, "bound": bound, "se": se}
            worst_excess = max(worst_excess, mass - bound - Z_GATE * se)
            if mass > bound + Z_GATE * se:
                cheb_fail = True
                cheb[key]["exceeded"] = True
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
    if cheb_fail:
        verdict = "fail"
    else:
        verdict = "inconclusive" if gadget.t < params.t_theory else "pass"
    estimate = 0.0 if worst_excess == -math.inf else worst_excess
    return CheckReport(
        name=f"concentration_y[{gadget.name}]", verdict=verdict, gated=True,
        estimate=estimate, std_err=0.0, threshold=0.0, trials=trials,
        details=details,
    )


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
    verdict = "pass" if p_value >= alpha else "fail"
    return CheckReport(
        name=f"influence_independence[{gadget.name}:{u},{w}]", verdict=verdict,
        gated=True, estimate=p_value, std_err=0.0, threshold=alpha, trials=trials,
        details={"statistic": statistic, "dof": dof,
                 "marginals_u": {str(k): v for k, v in pu.items()},
                 "marginals_w": {str(k): v for k, v in pw.items()}},
    )


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
    reports.append(CheckReport(
        name="two_point_oracle[shared_tie]",
        verdict="pass" if oracle == -0.25 else "fail",
        gated=True, estimate=oracle, std_err=0.0, threshold=-0.25, trials=0,
        details={"note": "covariance of the symmetric exactly-one-of-two law"},
    ))
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
