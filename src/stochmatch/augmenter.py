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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .exact import EnumerationTooLarge, MatchingLaw, enumerable, exact_x, prob_in_plan
from .graph_core import (
    FractionalMatching,
    Params,
    StochasticGraph,
    mask_edges,
    mask_weight,
    sample_masks,
)
from .estimator import (
    MonteCarloConditional,
    estimate_pair_alive,
    estimate_q,
    estimate_x,
    estimate_y,
)
from .mwm import mm_edge_mask, mm_edge_masks
from .parallel import BLOCK_LEN, rng_from, run_blocks
from .sparsifier import EdgeClasses, classify_edges, plan_round_masks
from .vb_matching import ActivationLaw, draw_run_inputs, exact_vb_enumeration, run_vb

_TAG_E2E = 0x11

_DEGREE_TOL = 1e-12


def build_g_table(
    g: StochasticGraph,
    classes: EdgeClasses,
    x: Sequence[float],
    q: Sequence[float],
    alive: dict[int, float],
) -> dict[int, float]:
    """g_e = x_e / (p_e * q_e * alive_e) for every non-crucial edge ``e``.

    ``q_e`` is Pr[e in plan] and ``alive_e`` Pr[both endpoints alive].
    Queried-and-realized factors as ``p_e * q_e`` because the true
    realization is independent of the plan draw.  Edges whose denominator was
    never observed positive get 0 rather than a guess.
    """
    values: dict[int, float] = {}
    for e in classes.noncrucial():
        denom = g.edges[e].p * float(q[e]) * float(alive[e])
        if denom <= 0.0:
            values[e] = 0.0
            continue
        g_e = float(x[e]) / denom
        if g_e < 0.0:
            raise ValueError(f"negative g value for edge {e}")
        values[e] = g_e
    return values


@dataclass(frozen=True)
class SurvivalRecord:
    """The vertices the fractional stage zeroed, as a vertex mask: those
    whose pre-zeroing fractional degree exceeded one."""

    graph: StochasticGraph = field(repr=False)
    overloaded_mask: int

    @property
    def overloaded(self) -> tuple[bool, ...]:
        return tuple(bool((self.overloaded_mask >> v) & 1) for v in range(self.graph.n))


def build_fractional(
    g: StochasticGraph,
    classes: EdgeClasses,
    q_mask: int,
    real_mask: int,
    alive: int,
    g_table: dict[int, float],
    params: Params,
) -> tuple[FractionalMatching, SurvivalRecord]:
    """Assign gamma*g_e to eligible non-crucial edges, then zero overloads.

    ``q_mask`` is the query plan's edge mask, ``real_mask`` the true
    realization's and ``alive`` the vertex mask of the variance-bounding
    run's alive set.  Zeroing is simultaneous: degrees are computed once on the
    pre-zeroing vector and every vertex over the cap has all incident values
    dropped.
    """
    gamma = params.gamma
    edges = g.edges
    pre: dict[int, float] = {}
    degree = [0.0] * g.n
    for e in mask_edges(classes.noncrucial_mask & q_mask & real_mask):
        u, v, _w, _p = edges[e]
        if not (alive >> u) & 1 or not (alive >> v) & 1:
            continue
        value = gamma * g_table[e]
        if value > 0.0:
            pre[e] = value
            degree[u] += value
            degree[v] += value

    overloaded = 0
    for v, d in enumerate(degree):
        if d > 1.0 + _DEGREE_TOL:
            overloaded |= 1 << v

    final = {}
    for e, value in pre.items():
        u, v, _w, _p = edges[e]
        if not (overloaded >> u) & 1 and not (overloaded >> v) & 1:
            final[e] = min(value, 1.0)

    f = FractionalMatching(values=final, parent=g.token)
    return f, SurvivalRecord(graph=g, overloaded_mask=overloaded)


def round_fractional(g: StochasticGraph, f: FractionalMatching) -> int:
    """Edge mask of the exact maximum-weight matching on the support of the
    fractional vector.

    In the small-values regime (every value at most eps^3) an integral
    matching of weight (1 - eps/2) * f.w exists inside the support, and the
    exact matching dominates it, so callers can gate that bound per run.
    """
    return mm_edge_mask(g, f.support_mask())


def combine(
    g: StochasticGraph,
    q_mask: int,
    real_mask: int,
    vb_matching: int,
    m_n: int,
    classes: EdgeClasses,
) -> tuple[int, str]:
    """Best of crucial-only and augmented schemes, as an edge mask and the
    winning scheme's name.

    ``q_mask``, ``real_mask``, ``vb_matching`` and ``m_n`` are the edge
    masks of the query plan, the true realization, the variance-bounding
    run's matching and the rounded non-crucial matching.  Scheme
    "crucial": maximum-weight matching over realized crucial plan edges.
    Scheme "augmented": the variance-bounding matching restricted to the
    plan, together with the rounded non-crucial matching.  The union in the
    augmented scheme is disjoint by construction (the non-crucial side only
    touches alive vertices, which the crucial matching left unmatched); a
    conflict would mean a broken invariant and raises.
    """
    scheme_a = mm_edge_mask(g, classes.crucial_mask & q_mask & real_mask)
    scheme_b = (vb_matching & q_mask) | m_n
    used = 0
    for e in mask_edges(scheme_b):
        u, v, _w, _p = g.edges[e]
        ends = (1 << u) | (1 << v)
        if used & ends:
            raise RuntimeError(f"combiner invariant breach: overlap at edge {e}")
        used |= ends
    if mask_weight(g, scheme_b) > mask_weight(g, scheme_a):
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
    g_table: dict[int, float]
    law: ActivationLaw


def _pair_alive_by_edge(g, classes, law, trials, seed) -> dict[int, float]:
    """Monte Carlo Pr[both endpoints alive] of every non-crucial edge."""
    pairs = [g.endpoints(e) for e in classes.noncrucial()]
    if not pairs:
        return {}
    by_pair = estimate_pair_alive(law, pairs, trials, seed)
    return {e: by_pair[min(u, v), max(u, v)].value
            for e, (u, v) in zip(classes.noncrucial(), pairs)}


def build_tables_exact(
    g: StochasticGraph,
    params: Params,
    t: int,
    tau: float | None = None,
    pair_trials: int = 200_000,
    seed: int = 0,
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

    try:
        dist = exact_vb_enumeration(law)
        alive = {e: dist.pair_alive_prob(*g.endpoints(e)) for e in classes.noncrucial()}
    except EnumerationTooLarge:
        alive = _pair_alive_by_edge(g, classes, law, pair_trials, seed)

    g_table = build_g_table(g, classes, x, prob_in_plan(x, t), alive)
    return PipelineTables(params=params, classes=classes, x=x, g_table=g_table, law=law)


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
) -> PipelineTables:
    """Estimate every pipeline input by Monte Carlo.

    The activation law is the enumerated :class:`MatchingLaw` when the
    graph is :func:`exact.enumerable`, otherwise estimated ``y`` with
    per-batch conditional resampling of ``y'`` at ``cond_trials`` trials.
    """
    x_hat = estimate_x(g, x_trials, seed)
    x = np.array([e.value for e in x_hat])
    tau_eff = params.tau if tau is None else tau
    classes = classify_edges(x, tau_eff)

    if enumerable(g):
        law = MatchingLaw.from_pipeline(g, classes.crucial_mask)
    else:
        y_hat = estimate_y(g, classes.crucial_mask, x_trials, seed + 1)
        y = np.array([e.value for e in y_hat])
        law = MonteCarloConditional(g, classes.crucial_mask, y, cond_trials, seed + 2)

    q = [est.value for est in estimate_q(g, t, q_trials, seed + 3)]
    alive = _pair_alive_by_edge(g, classes, law, pair_trials, seed + 4)
    g_table = build_g_table(g, classes, x, q, alive)
    return PipelineTables(params=params, classes=classes, x=x, g_table=g_table, law=law)


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass(frozen=True)
class RunRecord:
    run: int
    alg_weight: float
    mmq_weight: float
    mmg_weight: float
    scheme: str

    @property
    def ratio(self) -> float:
        if self.mmg_weight <= 0.0:
            return 1.0
        return self.mmq_weight / self.mmg_weight


@dataclass
class E2EResult:
    """One sweep point: ``t`` plan rounds, or ``t=None`` for the control."""

    t: int | None
    runs: list[RunRecord]

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


def _pipeline_run(
    g: StochasticGraph,
    tables: PipelineTables,
    q_masks: Sequence[int],
    run_index: int,
    real_mask: int,
    vb_matching: int,
    alive: int,
    mmg_mask: int,
    mmq_masks: Sequence[int],
) -> list[tuple[RunRecord, FractionalMatching, int]]:
    """Run ``run_index`` at every sweep point, given each point's plan mask
    in ``q_masks``, its realization, its variance-bounding run's matching
    and alive masks, and the maximum-weight matchings of the realization
    (``mmg_mask``) and of each point's queried edges (``mmq_masks``, the
    MM of ``q_mask & real_mask``).

    Per point it returns the record, the fractional vector and the edge mask
    of its rounding.  Points whose plans are equal share one result.
    """
    mmg = mask_weight(g, mmg_mask)
    by_plan: dict[int, tuple[RunRecord, FractionalMatching, int]] = {}
    points = []
    for q_mask, mmq_mask in zip(q_masks, mmq_masks):
        point = by_plan.get(q_mask)
        if point is None:
            f, _survival = build_fractional(
                g, tables.classes, q_mask, real_mask, alive, tables.g_table, tables.params,
            )
            m_n = round_fractional(g, f)
            alg, scheme = combine(g, q_mask, real_mask, vb_matching, m_n, tables.classes)
            record = RunRecord(
                run=run_index,
                alg_weight=mask_weight(g, alg),
                mmq_weight=mask_weight(g, mmq_mask),
                mmg_weight=mmg,
                scheme=scheme,
            )
            point = by_plan[q_mask] = (record, f, m_n)
        points.append(point)
    return points


def _e2e_block(g, tables, ts, seed, block, count):
    rng = rng_from(seed, _TAG_E2E, block)
    perms, reals, uniforms = draw_run_inputs(tables.law, rng, count)
    reals = reals | sample_masks(g, rng, count, scope=tables.classes.noncrucial())
    vb = run_vb(tables.law, perms, reals, uniforms)
    plans = {None: np.full(count, g.full_mask, dtype=reals.dtype),
             0: np.zeros(count, dtype=reals.dtype)}
    union = plans[0]
    for j in range(1, max(t or 0 for t in ts) + 1):
        union = union | plan_round_masks(g, count, rng)
        if j in ts:
            plans[j] = union
    mmg = mm_edge_masks(g, reals)
    q_masks = [plans[t].tolist() for t in ts]
    mmq_masks = [(mmg if t is None else mm_edge_masks(g, plans[t] & reals)).tolist() for t in ts]
    runs = zip(reals.tolist(), vb.matching.tolist(), vb.alive.tolist(), mmg.tolist(),
               zip(*q_masks), zip(*mmq_masks))
    records = [[] for _ in ts]
    for k, (real_mask, vb_matching, alive, mmg_mask, q_row, mmq_row) in enumerate(runs):
        points = _pipeline_run(g, tables, q_row, block * BLOCK_LEN + k, real_mask, vb_matching,
                               alive, mmg_mask, mmq_row)
        for recs, (record, _f, _m_n) in zip(records, points):
            recs.append(record)
    return records


def end_to_end(
    g: StochasticGraph,
    tables: PipelineTables,
    ts: Iterable[int | None],
    runs: int,
    seed: int,
) -> list[E2EResult]:
    """Sample the full pipeline ``runs`` times at every sweep point of ``ts``.

    ``ts`` holds plan round counts; ``None`` is the query-everything control.
    Block ``b`` of ``BLOCK_LEN`` runs reads one stream, ``(seed, E2E, b)``:
    :func:`draw_run_inputs`, then the non-crucial realizations, then
    ``max(ts)`` plan rounds, round ``j`` of every run in one
    :func:`plan_round_masks` call.  So every point sees the same realizations
    and runs, the plan for ``t`` is the union of a run's first ``t`` rounds,
    and a sweep equals one call per point.  One result per point, in the
    order of ``ts``, holding each run's weights and winning scheme.
    """
    ts = tuple(ts)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not ts:
        raise ValueError("ts must hold at least one sweep point")
    for t in ts:
        if t is not None and t < 0:
            raise ValueError(f"plan round count must be >= 0, got {t}")
    parts = run_blocks(_e2e_block, (g, tables, ts, seed), runs)
    return [E2EResult(t=t, runs=[record for block in parts for record in block[i]])
            for i, t in enumerate(ts)]
