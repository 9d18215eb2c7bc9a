"""The augmenting stage written out per run, as the tests' reference.

``build_fractional``, ``round_fractional``, ``combine`` and ``pipeline_run``
run one pipeline run at a time: dict-valued fractional vectors, a Python
degree loop and one ``mm_edge_mask`` oracle call per mask.  The package runs
these stages on a block of runs at a time (``augmenter._fractional_block``
and ``augmenter._combine_block``); tests compare its records, fractional
vectors and roundings against these, run by run and point by point.
"""

from typing import Sequence

from stochmatch.augmenter import _DEGREE_TOL, PipelineTables, RunRecord, SurvivalRecord
from stochmatch.graph_core import (
    FractionalMatching,
    Params,
    StochasticGraph,
    mask_edges,
    mask_weight,
)
from stochmatch.mwm import mm_edge_mask
from stochmatch.sparsifier import EdgeClasses


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


def pipeline_run(
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
