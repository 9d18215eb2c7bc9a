"""Fractional augmentation on non-crucial edges and the two-scheme combiner.

A non-crucial edge is eligible when it was queried and realized and both its
endpoints are alive after the variance-bounding run; eligible edges get the
fractional value ``gamma * g_e`` where ``g_e = x_e / (Pr[queried & realized]
* Pr[both endpoints alive])``.  Vertices whose fractional degree then exceeds
one are zeroed out simultaneously.  The fractional vector is rounded by
taking an exact maximum-weight matching on its support (which dominates the
integral matching the small-values regime guarantees), and the final answer
is the heavier of that augmented matching and the plain maximum-weight
matching of the realized crucial plan edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import EnumerationTooLarge, ExactConditional, MatchingLaw, exact_x, prob_in_plan
from .graph_core import (
    FractionalMatching,
    Matching,
    Params,
    Realization,
    StochasticGraph,
    sample_mask,
    weight_of,
)
from .estimator import (
    EstimateTable,
    MonteCarloConditional,
    ProbEstimate,
    VBSampler,
    estimate_pair_alive,
    estimate_q,
    estimate_x,
    estimate_y,
)
from .mwm import GraphView, max_weight_matching
from .parallel import BLOCK_LEN, rng_from, run_blocks
from .sparsifier import EdgeClasses, QueryPlan, classify_edges, draw_plan
from .vb_matching import VBOutput, exact_vb_enumeration, run_vb

_TAG_E2E_PLAN = 0x11
_TAG_E2E_REAL = 0x12
_TAG_E2E_VB = 0x13

_DEGREE_TOL = 1e-12


@dataclass(frozen=True)
class GTable:
    """Per non-crucial edge: the fractional target and its denominators."""

    values: dict[int, float]
    q_in_plan: dict[int, ProbEstimate]
    pair_alive: dict[int, ProbEstimate]
    eps3_flags: tuple[int, ...]
    eps2_flags: tuple[int, ...]
    zero_denominator: tuple[int, ...]

    def get(self, e: int) -> float:
        return self.values.get(e, 0.0)


def build_g_table(
    g: StochasticGraph,
    classes: EdgeClasses,
    x_values: np.ndarray,
    q_in_plan: dict[int, ProbEstimate],
    pair_alive: dict[int, ProbEstimate],
    params: Params,
) -> GTable:
    """g_e = x_e / (p_e * Pr[e in plan] * Pr[both endpoints alive]).

    Queried-and-realized factors as ``p_e * Pr[e in plan]`` because the true
    realization is independent of the plan draw.  Edges whose denominator was
    never observed positive get 0 and are flagged rather than guessed.
    """
    values: dict[int, float] = {}
    zero_denom = []
    eps3 = []
    eps2 = []
    for e in classes.noncrucial():
        q = q_in_plan[e].value
        alive = pair_alive[e].value
        denom = g.edges[e].p * q * alive
        if denom <= 0.0:
            values[e] = 0.0
            zero_denom.append(e)
            continue
        g_e = float(x_values[e]) / denom
        if g_e < 0.0:
            raise ValueError(f"negative g value for edge {e}")
        values[e] = g_e
        if g_e > params.epsilon**3:
            eps3.append(e)
        if g_e > params.epsilon**2:
            eps2.append(e)
    return GTable(
        values=values,
        q_in_plan=dict(q_in_plan),
        pair_alive=dict(pair_alive),
        eps3_flags=tuple(eps3),
        eps2_flags=tuple(eps2),
        zero_denominator=tuple(zero_denom),
    )


@dataclass(frozen=True)
class SurvivalRecord:
    """Who made it through the fractional stage.

    A vertex survives iff it is alive and its pre-zeroing fractional degree
    did not exceed one; an edge survives iff both endpoints do, whether or
    not it was queried.
    """

    in_alive: tuple[bool, ...]
    overloaded: tuple[bool, ...]
    vertex_survived: tuple[bool, ...]
    edge_survived: tuple[bool, ...]


def build_fractional(
    g: StochasticGraph,
    classes: EdgeClasses,
    plan: QueryPlan,
    realization: Realization,
    vb_out: VBOutput,
    g_table: GTable,
    params: Params,
) -> tuple[FractionalMatching, SurvivalRecord]:
    """Assign gamma*g_e to eligible non-crucial edges, then zero overloads.

    Zeroing is simultaneous: degrees are computed once on the pre-zeroing
    vector and every vertex over the cap has all incident values dropped.
    """
    gamma = params.gamma
    alive = vb_out.alive
    pre: dict[int, float] = {}
    for e in classes.noncrucial():
        if not plan.contains(e) or not realization.includes(e):
            continue
        u, v = g.endpoints(e)
        if u not in alive or v not in alive:
            continue
        value = gamma * g_table.get(e)
        if value > 0.0:
            pre[e] = value

    degree = [0.0] * g.n
    for e, value in pre.items():
        u, v = g.endpoints(e)
        degree[u] += value
        degree[v] += value
    overloaded = tuple(d > 1.0 + _DEGREE_TOL for d in degree)

    final = {}
    for e, value in pre.items():
        u, v = g.endpoints(e)
        if not overloaded[u] and not overloaded[v]:
            final[e] = min(value, 1.0)

    in_alive = tuple(v in alive for v in range(g.n))
    vertex_survived = tuple(a and not o for a, o in zip(in_alive, overloaded))
    edge_survived = tuple(
        vertex_survived[g.edges[e].u] and vertex_survived[g.edges[e].v]
        for e in range(g.m)
    )
    f = FractionalMatching(values=final, parent=g.token)
    record = SurvivalRecord(
        in_alive=in_alive,
        overloaded=overloaded,
        vertex_survived=vertex_survived,
        edge_survived=edge_survived,
    )
    return f, record


def round_fractional(g: StochasticGraph, f: FractionalMatching) -> Matching:
    """Exact maximum-weight matching on the support of the fractional vector.

    In the small-values regime (every value at most eps^3) an integral
    matching of weight (1 - eps/2) * f.w exists inside the support, and the
    exact matching dominates it, so callers can gate that bound per run.
    """
    support = f.support_mask()
    return max_weight_matching(GraphView(g, support))


def combine(
    g: StochasticGraph,
    plan: QueryPlan,
    realization: Realization,
    vb_out: VBOutput,
    m_n: Matching,
    classes: EdgeClasses,
) -> tuple[Matching, str]:
    """Best of crucial-only and augmented schemes.

    Scheme "crucial": maximum-weight matching over realized crucial plan
    edges.  Scheme "augmented": the variance-bounding matching restricted to
    the plan, together with the rounded non-crucial matching.  The union in
    the augmented scheme is disjoint by construction (the non-crucial side
    only touches alive vertices, which the crucial matching left unmatched);
    a conflict would mean a broken invariant and raises.
    """
    crucial_realized = classes.crucial_mask & plan.q_mask & realization.mask
    scheme_a = max_weight_matching(GraphView(g, crucial_realized))

    mc_in_plan = [e for e in vb_out.matching.edges if plan.contains(e)]
    union = set(mc_in_plan) | set(m_n.edges)
    try:
        scheme_b = Matching(edges=frozenset(union), parent=g.token)
        used: set[int] = set()
        for e in sorted(union):
            u, v = g.endpoints(e)
            if u in used or v in used:
                raise ValueError(f"overlap at edge {e}")
            used.add(u)
            used.add(v)
    except ValueError as exc:
        raise RuntimeError(f"combiner invariant breach: {exc}") from exc

    w_a = weight_of(scheme_a, g)
    w_b = weight_of(scheme_b, g)
    if w_b > w_a:
        return scheme_b, "augmented"
    return scheme_a, "crucial"


# ---------------------------------------------------------------------------
# Pipeline tables


@dataclass(frozen=True)
class PipelineTables:
    """Frozen inputs shared by every run of the end-to-end pipeline."""

    params: Params
    classes: EdgeClasses
    x: np.ndarray
    g_table: GTable
    sampler: VBSampler
    estimates: EstimateTable | None = None
    exact: bool = False


def _pair_estimates_for_edges(g, classes, pair_alive_by_pair):
    out = {}
    for e in classes.noncrucial():
        u, v = g.endpoints(e)
        key = (min(u, v), max(u, v))
        out[e] = pair_alive_by_pair[key].estimate
    return out


def build_tables_exact(
    g: StochasticGraph,
    params: Params,
    t: int,
    tau: float | None = None,
    pair_trials: int = 200_000,
    seed: int = 0,
    workers: int | None = None,
) -> PipelineTables:
    """Enumeration-exact tables for small instances.

    x comes from full realization enumeration, plan membership from the
    closed form 1-(1-x)^t, the activation inputs from the exact oracle law,
    and pair-alive probabilities from the exact run distribution when the
    crucial components are small (Monte Carlo with ``pair_trials`` runs
    otherwise).
    """
    x = exact_x(g)
    tau_eff = params.tau if tau is None else tau
    classes = classify_edges(x, tau_eff)
    law = MatchingLaw.from_pipeline(g, classes.crucial_mask)
    law.validate_realization_marginals()
    y = law.y_values()
    sampler = VBSampler(view=GraphView(g, classes.crucial_mask), y=y,
                        cond=ExactConditional(law))

    q_prob = prob_in_plan(x, t)
    q_est = {e: ProbEstimate(float(q_prob[e]), 0, 0.0) for e in range(g.m)}

    pair_est: dict[int, ProbEstimate] = {}
    try:
        dist = exact_vb_enumeration(sampler.view, y, sampler.cond)
        for e in classes.noncrucial():
            u, v = g.endpoints(e)
            pair_est[e] = ProbEstimate(dist.pair_alive_prob(u, v), 0, 0.0)
    except EnumerationTooLarge:
        pairs = [g.endpoints(e) for e in classes.noncrucial()]
        by_pair = estimate_pair_alive(sampler, pairs, pair_trials, seed, workers)
        pair_est = _pair_estimates_for_edges(g, classes, by_pair)

    g_table = build_g_table(g, classes, x, q_est, pair_est, params)
    return PipelineTables(params=params, classes=classes, x=x, g_table=g_table,
                          sampler=sampler, exact=True)


def build_tables_monte_carlo(
    g: StochasticGraph,
    params: Params,
    t: int,
    seed: int,
    tau: float | None = None,
    x_trials: int = 20_000,
    q_trials: int = 4000,
    pair_trials: int = 20_000,
    cond_trials: int = 400,
    workers: int | None = None,
    exact_conditionals: bool | None = None,
) -> PipelineTables:
    """Estimate every pipeline input by Monte Carlo.

    ``exact_conditionals`` picks the activation-conditional source: the
    enumeration law when the instance is small enough (default), otherwise
    per-batch conditional resampling with ``cond_trials`` trials.
    """
    x_hat = estimate_x(g, x_trials, seed, workers)
    x = np.array([e.value for e in x_hat])
    tau_eff = params.tau if tau is None else tau
    classes = classify_edges(x, tau_eff)

    if exact_conditionals is None:
        exact_conditionals = g.m <= 16
    if exact_conditionals:
        law = MatchingLaw.from_pipeline(g, classes.crucial_mask)
        y = law.y_values()
        cond = ExactConditional(law)
    else:
        y_hat = estimate_y(g, classes.crucial_mask, x_trials, seed + 1, workers)
        y = np.array([e.value for e in y_hat])
        cond = MonteCarloConditional(g, classes.crucial_mask, cond_trials, seed + 2)
    sampler = VBSampler(view=GraphView(g, classes.crucial_mask), y=y, cond=cond)

    q_hat = estimate_q(g, t, q_trials, seed + 3, workers)
    q_est = {e: q_hat[e] for e in range(g.m)}

    pairs = [g.endpoints(e) for e in classes.noncrucial()]
    pair_est: dict[int, ProbEstimate] = {}
    if pairs:
        by_pair = estimate_pair_alive(sampler, pairs, pair_trials, seed + 4, workers)
        pair_est = _pair_estimates_for_edges(g, classes, by_pair)

    g_table = build_g_table(g, classes, x, q_est, pair_est, params)
    y_map = {e: ProbEstimate(float(y[e]), 0, 0.0) for e in classes.crucial()}
    table = EstimateTable(graph_token=g.token, x_hat=x_hat, y_hat=y_map, q_hat=q_hat)
    return PipelineTables(params=params, classes=classes, x=x, g_table=g_table,
                          sampler=sampler, estimates=table, exact=False)


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass(frozen=True)
class RunRecord:
    run: int
    alg_weight: float
    mmq_weight: float
    mmg_weight: float
    scheme: str
    clip_events: int
    zeroed_vertices: int
    f_weight: float
    f_max: float
    round_weight: float
    max_post_degree: float

    @property
    def ratio(self) -> float:
        if self.mmg_weight <= 0.0:
            return 1.0
        return self.mmq_weight / self.mmg_weight


@dataclass
class E2EResult:
    t: int
    runs: list[RunRecord]
    f_sums: np.ndarray
    f_sumsq: np.ndarray
    force_full_plan: bool

    @property
    def ratio(self) -> float:
        """Ratio of expectations: sum of plan optima over sum of true optima."""
        total_g = sum(r.mmg_weight for r in self.runs)
        if total_g <= 0.0:
            return 1.0
        return sum(r.mmq_weight for r in self.runs) / total_g

    @property
    def alg_ratio(self) -> float:
        total_g = sum(r.mmg_weight for r in self.runs)
        if total_g <= 0.0:
            return 1.0
        return sum(r.alg_weight for r in self.runs) / total_g

    def ratio_std_err(self) -> float:
        """Delta-method standard error of the ratio of sums."""
        n = len(self.runs)
        if n < 2:
            return 0.0
        b_mean = float(np.mean([r.mmg_weight for r in self.runs]))
        if b_mean <= 0.0:
            return 0.0
        ratio = self.ratio
        resid = np.array([r.mmq_weight - ratio * r.mmg_weight for r in self.runs])
        return float(np.sqrt(np.mean(resid**2) / n) / b_mean)

    def mean_f(self) -> np.ndarray:
        return self.f_sums / max(1, len(self.runs))

    def mean_f_std_err(self) -> np.ndarray:
        n = len(self.runs)
        if n < 2:
            return np.zeros_like(self.f_sums)
        mean = self.f_sums / n
        var = np.maximum(self.f_sumsq / n - mean**2, 0.0)
        return np.sqrt(var / n)


def run_pipeline_once(
    g: StochasticGraph,
    tables: PipelineTables,
    t: int,
    seed: int,
    run_index: int,
    force_full_plan: bool = False,
) -> tuple[RunRecord, np.ndarray, VBOutput]:
    """One pipeline sample: fresh plan, fresh realization, fresh run."""
    if force_full_plan:
        plan = QueryPlan(t=0, q_mask=g.full_mask, rounds=(), parent=g.token)
    else:
        plan = draw_plan(g, t, rng_from(seed, _TAG_E2E_PLAN, run_index))

    real_rng = rng_from(seed, _TAG_E2E_REAL, run_index)
    realization = Realization(mask=sample_mask(g, real_rng), parent=g.token)

    vb_rng = rng_from(seed, _TAG_E2E_VB, run_index)
    vb_out = run_vb(
        tables.sampler.view, tables.sampler.y, tables.sampler.cond, vb_rng,
        realization_mask=realization.mask,
    )

    f, survival = build_fractional(
        g, tables.classes, plan, realization, vb_out, tables.g_table, tables.params,
    )
    m_n = round_fractional(g, f)
    alg, scheme = combine(g, plan, realization, vb_out, m_n, tables.classes)

    mmq = weight_of(max_weight_matching(GraphView(g, plan.q_mask & realization.mask)), g)
    mmg = weight_of(max_weight_matching(GraphView(g, realization.mask)), g)

    post_degrees = [f.vertex_load(g, v) for v in range(g.n)] or [0.0]
    f_vec = np.zeros(g.m)
    for e, value in f.values.items():
        f_vec[e] = value

    record = RunRecord(
        run=run_index,
        alg_weight=weight_of(alg, g),
        mmq_weight=mmq,
        mmg_weight=mmg,
        scheme=scheme,
        clip_events=vb_out.clip_events,
        zeroed_vertices=sum(survival.overloaded),
        f_weight=f.dot_weights(g),
        f_max=f.max_value(),
        round_weight=weight_of(m_n, g),
        max_post_degree=max(post_degrees),
    )
    return record, f_vec, vb_out


def _e2e_block(g, tables, t, seed, force_full_plan, block, count):
    records = []
    f_sums = np.zeros(g.m)
    f_sumsq = np.zeros(g.m)
    start = block * BLOCK_LEN
    for j in range(count):
        record, f_vec, _out = run_pipeline_once(
            g, tables, t, seed, start + j, force_full_plan,
        )
        records.append(record)
        f_sums += f_vec
        f_sumsq += f_vec**2
    return records, f_sums, f_sumsq


def end_to_end(
    g: StochasticGraph,
    tables: PipelineTables,
    t: int,
    runs: int,
    seed: int,
    force_full_plan: bool = False,
    workers: int | None = None,
) -> E2EResult:
    """Sample the full pipeline ``runs`` times with paired per-run streams.

    Plan rounds for run ``r`` come from the stream ``(seed, PLAN, r)`` drawn
    sequentially, so sweeps over ``t`` at a fixed seed compare nested plans
    on identical realizations, run by run.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    parts = run_blocks(_e2e_block, (g, tables, t, seed, force_full_plan), runs, workers)
    records: list[RunRecord] = []
    f_sums = np.zeros(g.m)
    f_sumsq = np.zeros(g.m)
    for recs, sums, sumsq in parts:
        records.extend(recs)
        f_sums += sums
        f_sumsq += sumsq
    return E2EResult(t=t, runs=records, f_sums=f_sums, f_sumsq=f_sumsq,
                     force_full_plan=force_full_plan)
