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

Each stage runs on a block of runs at a time, one run per row of int64 mask
arrays (Python ints in ``object`` arrays past 63 edges or vertices):
:func:`_fractional_block` accumulates the vertex degrees edge by edge, and
:func:`_combine_block` takes the crucial scheme's matchings from its caller
and checks the augmented union for overlaps on arrays.  The sweep,
:func:`end_to_end`, runs each stage once per block on the rows of every
sweep point and asks the oracle twice per block: one
:func:`sparsifier.plan_round_masks` call draws and answers every plan round,
and after the fractional stage one :func:`mwm.mm_edge_masks` call answers
the rounding's support masks, the crucial schemes, ``MM(Q & G)`` and
``MM(G)``.  :func:`build_fractional`, :func:`round_fractional` and
:func:`combine` run one pipeline run: each is the block stage on a block of
one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .exact import EnumerationTooLarge, MatchingLaw, enumerable, exact_x, prob_in_plan
from .graph_core import (
    FractionalMatching,
    Params,
    StochasticGraph,
    mask_bits,
    mask_dtype,
    mask_edges,
    mask_weights,
    pack_masks,
    sample_masks,
)
from .estimator import (
    MonteCarloConditional,
    estimate_pair_alive,
    estimate_q,
    estimate_x,
    estimate_y,
)
from .mwm import mm_edge_masks
from .parallel import rng_from, run_blocks
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
    run's alive set.  A block of one row of :func:`_fractional_block`.
    """
    values, support, overloaded = _fractional_block(
        g, classes, g_table, params.gamma, _row(q_mask, g.m), _row(real_mask, g.m),
        _row(alive, max(g.n, g.m)))
    f = FractionalMatching(values={e: values[e] for e in mask_edges(support.tolist()[0])},
                           parent=g.token)
    return f, SurvivalRecord(graph=g, overloaded_mask=pack_masks(overloaded).tolist()[0])


def round_fractional(g: StochasticGraph, f: FractionalMatching) -> int:
    """Edge mask of the exact maximum-weight matching on the support of the
    fractional vector: one :func:`mwm.mm_edge_masks` call on a row.

    In the small-values regime (every value at most eps^3) an integral
    matching of weight (1 - eps/2) * f.w exists inside the support, and the
    exact matching dominates it, so callers can gate that bound per run.
    """
    return mm_edge_masks(g, _row(f.support_mask(), g.m)).tolist()[0]


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
    run's matching and the rounded non-crucial matching.  A block of one row
    of :func:`_combine_block`.
    """
    q, real, vb, rounded = (_row(mask, g.m) for mask in (q_mask, real_mask, vb_matching, m_n))
    alg, augmented, _weight = _combine_block(
        g, classes, q, real, vb, rounded, mm_edge_masks(g, q & real & classes.crucial_mask))
    return alg.tolist()[0], "augmented" if augmented[0] else "crucial"


def _row(mask: int, width: int) -> np.ndarray:
    """A block of one row: ``mask`` in an array of :func:`mask_dtype` ``(width)``."""
    return np.array([mask], dtype=mask_dtype(width))


def _fractional_block(g, classes, g_table, gamma, q, real, alive):
    """The fractional stage of a block of runs, one run per row of the plan,
    realization and alive-set mask arrays ``q``, ``real`` and ``alive``.

    A non-crucial edge is eligible in a run when it is in the plan and the
    realization and both its endpoints are alive; it gets the value
    ``gamma * g_table[e]``, the same in every run.  Each vertex degree is
    accumulated edge by edge in ascending edge order, adding 0.0 where the
    edge is not eligible, so it is the same float as a per-run sum over the
    eligible edges: a matmul or an axis sum would reorder the additions and
    could flip the overload test.  Zeroing is simultaneous: every vertex
    whose degree exceeds ``1 + _DEGREE_TOL`` drops all its incident values.

    Returns each edge's value after zeroing, capped at one (0.0 for edges
    never eligible), the edge masks of each run's support, and the
    ``(count, n)`` bool array of overloaded vertices.
    """
    noncrucial = classes.noncrucial()
    eligible = mask_bits(q & real & classes.noncrucial_mask, noncrucial).astype(bool)
    alive = mask_bits(alive, range(g.n)).astype(bool)
    values = np.zeros(g.m)
    pre = np.zeros((len(q), g.m), dtype=bool)
    degree = np.zeros((len(q), g.n))
    for j, e in enumerate(noncrucial):
        u, v, _w, _p = g.edges[e]
        in_run = eligible[:, j] & alive[:, u] & alive[:, v]
        if not in_run.any():
            continue
        value = gamma * g_table[e]
        if value > 0.0:
            values[e] = min(value, 1.0)
            pre[:, e] = in_run
            added = np.where(in_run, value, 0.0)
            degree[:, u] += added
            degree[:, v] += added
    overloaded = degree > 1.0 + _DEGREE_TOL
    ends = np.array([(u, v) for u, v, _w, _p in g.edges], dtype=np.intp).reshape(-1, 2)
    support = pre & ~overloaded[:, ends].any(axis=2)
    return values, pack_masks(support), overloaded


def _combine_block(g, classes, q, real, vb_matching, m_n, crucial):
    """The combiner of a block of runs, one run per row of the edge mask
    arrays of the plan, the realization, the variance-bounding matching, the
    rounded non-crucial matching and the crucial scheme's matching.

    Scheme "crucial": ``crucial``, the caller's :func:`mwm.mm_edge_masks`
    answers for the realized crucial plan edges ``q & real & crucial_mask``;
    the combiner itself asks the oracle nothing.  Scheme "augmented": the
    variance-bounding matching restricted to the plan, together with the
    rounded non-crucial matching.  That union is disjoint by construction
    (the non-crucial side only touches alive vertices, which the crucial
    matching left unmatched); a run whose union puts an edge on a vertex an
    earlier edge covers is a broken invariant and raises, naming the edge
    of the first such run.  A run takes the augmented scheme when it weighs
    more.  Returns each run's winning edge mask, whether it is the augmented
    one, and its weight.
    """
    augmented = (np.asarray(vb_matching, dtype=q.dtype) & q) | m_n
    bits = mask_bits(augmented, range(g.m)).astype(bool)
    covered = np.zeros((len(q), g.n), dtype=bool)
    overlap = np.zeros_like(bits)
    for e, (u, v, _w, _p) in enumerate(g.edges):
        overlap[:, e] = bits[:, e] & (covered[:, u] | covered[:, v])
        covered[:, u] |= bits[:, e]
        covered[:, v] |= bits[:, e]
    breach = np.flatnonzero(overlap.any(axis=1))
    if breach.size:
        e = int(overlap[breach[0]].argmax())
        raise RuntimeError(f"combiner invariant breach: overlap at edge {e}")
    crucial_weight = mask_weights(g, crucial)
    augmented_weight = mask_weights(g, augmented)
    wins = augmented_weight > crucial_weight
    return (np.where(wins, augmented, crucial), wins,
            np.where(wins, augmented_weight, crucial_weight))


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
    graph is :func:`exact.enumerable`, otherwise estimated ``y`` with ``y'``
    pooled from the y stage's rows: a batch reveal that at least
    ``cond_trials`` rows agree with is answered from them, and one with fewer
    is resampled at ``cond_trials`` trials (:class:`MonteCarloConditional`).
    """
    x_hat = estimate_x(g, x_trials, seed)
    x = np.array([e.value for e in x_hat])
    tau_eff = params.tau if tau is None else tau
    classes = classify_edges(x, tau_eff)

    if enumerable(g):
        law = MatchingLaw.from_pipeline(g, classes.crucial_mask)
    else:
        y_hat, rows = estimate_y(g, classes.crucial_mask, x_trials, seed + 1)
        y = np.array([e.value for e in y_hat])
        law = MonteCarloConditional(g, classes.crucial_mask, y, cond_trials, seed + 2, rows)

    q = [est.value for est in estimate_q(g, t, q_trials, seed + 3)]
    alive = _pair_alive_by_edge(g, classes, law, pair_trials, seed + 4)
    g_table = build_g_table(g, classes, x, q, alive)
    return PipelineTables(params=params, classes=classes, x=x, g_table=g_table, law=law)


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass
class E2EResult:
    """One sweep point, ``t`` plan rounds or ``t=None`` for the control, and
    its per-run arrays in run order: the weights ``alg``, ``mm_Q`` and
    ``mm_G`` (shared by every point) and whether the augmented scheme won."""

    t: int | None
    alg: np.ndarray
    mm_Q: np.ndarray
    mm_G: np.ndarray
    augmented: np.ndarray

    @cached_property
    def totals(self) -> tuple[float, float, float]:
        """The sums of ``alg``, ``mm_Q`` and ``mm_G``, added in run order
        (np.sum adds pairwise) and taken once: the arrays must not change
        after the first read."""
        return tuple(sum(column.tolist()) for column in (self.alg, self.mm_Q, self.mm_G))

    @property
    def ratio(self) -> float:
        """Ratio of expectations: sum of plan optima over sum of true optima."""
        _alg, total_q, total_g = self.totals
        return 1.0 if total_g <= 0.0 else total_q / total_g

    @property
    def alg_ratio(self) -> float:
        total_alg, _q, total_g = self.totals
        return 1.0 if total_g <= 0.0 else total_alg / total_g

    def ratio_std_err(self) -> float:
        """Delta-method standard error of the ratio of sums."""
        n, b_mean = len(self.mm_G), float(np.mean(self.mm_G))
        if n < 2 or b_mean <= 0.0:
            return 0.0
        resid = self.mm_Q - self.ratio * self.mm_G
        return float(np.sqrt(np.mean(resid**2) / n) / b_mean)


def _e2e_block(g, tables, ts, seed, block, count):
    """A block's ``(len(ts), count)`` arrays of alg and ``MM(Q & G)`` weights,
    its ``(count,)`` ``MM(G)`` weights and its augmented-scheme wins."""
    rng = rng_from(seed, _TAG_E2E, block)
    perms, reals, uniforms = draw_run_inputs(tables.law, rng, count)
    reals = reals | sample_masks(g, rng, count, scope=tables.classes.noncrucial())
    vb = run_vb(tables.law, perms, reals, uniforms)
    # Phase 1: every plan round of every run in one draw, round-major; row
    # ``j - 1`` of the running OR is each run's plan of ``j`` rounds.
    t_max = max(t or 0 for t in ts)
    unions = np.bitwise_or.accumulate(
        plan_round_masks(g, t_max * count, rng).reshape(t_max, count), axis=0)
    plans = {None: np.full(count, g.full_mask, dtype=reals.dtype),
             0: np.zeros(count, dtype=reals.dtype)}
    # Every stage runs once on the block's rows of all points, point-major.
    q = np.concatenate([plans[t] if t in plans else unions[t - 1] for t in ts])
    real = np.tile(reals, len(ts))
    _values, support, _overloaded = _fractional_block(
        g, tables.classes, tables.g_table, tables.params.gamma, q, real,
        np.tile(vb.alive, len(ts)))
    # Phase 2: the rounding, the crucial scheme, MM(Q & G) and MM(G) in one call.
    n = len(q)
    m_n, crucial, mmq, mmg = np.split(mm_edge_masks(g, np.concatenate(
        [support, q & real & tables.classes.crucial_mask, q & real, reals])), [n, 2 * n, 3 * n])
    _alg, augmented, alg = _combine_block(
        g, tables.classes, q, real, np.tile(vb.matching, len(ts)), m_n, crucial)
    shape = (len(ts), count)
    return (alg.reshape(shape), mask_weights(g, mmq).reshape(shape), mask_weights(g, mmg),
            augmented.reshape(shape))


def _is_count(value) -> bool:
    """An int that is not a bool: JSON true/false are bools, which Python
    also counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    ``max(ts)`` plan rounds, round-major (round ``j`` of every run, then
    round ``j + 1``).  All the rounds come from one :func:`plan_round_masks`
    call, which reads the stream row by row, so they are the draws of one
    call per round.  So every point sees the same realizations and runs,
    the plan for ``t`` is the union of a run's first ``t`` rounds, and a
    sweep equals one call per point.  After the fractional stage, one
    :func:`mwm.mm_edge_masks` call answers the block's rounding, crucial
    schemes, ``MM(Q & G)`` and ``MM(G)``.  One result per point, in the
    order of ``ts``, holding each run's weights and winning scheme as
    arrays in run order.
    """
    ts = tuple(ts)
    if not _is_count(runs) or runs < 1:
        raise ValueError(f"runs must be an int >= 1, got {runs!r}")
    if not ts:
        raise ValueError("ts must hold at least one sweep point")
    for t in ts:
        if t is not None and (not _is_count(t) or t < 0):
            raise ValueError(f"a sweep point must be None or an int >= 0, got {t!r}")
    parts = run_blocks(_e2e_block, (g, tables, ts, seed), runs)
    # Blocks hold consecutive runs, so entry ``r`` of each array is run ``r``.
    alg, mm_q, mm_g, augmented = (np.concatenate(column, axis=-1) for column in zip(*parts))
    return [E2EResult(t, alg[i], mm_q[i], mm_g, augmented[i]) for i, t in enumerate(ts)]
