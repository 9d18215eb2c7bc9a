"""Exact maximum-weight matching on general graphs.

``mm_edge_masks`` is the deterministic oracle the whole pipeline leans on:
it answers an array of realized edge masks with the optimum's edge mask for
each.  ``mm_edge_mask`` (one mask) and ``max_weight_matching`` (a
:class:`GraphView`, answered as a :class:`Matching`) are one-row calls of it.

Masks are answered from a *matching table*: every matching of the graph, as
an int64 edge mask, stably sorted by weight, heaviest first.  The
maximum-weight matching of a realized mask ``R`` is the first row ``M`` with
``M & ~R == 0``.  The table is built once per graph, and only when
``m <= 62`` and the graph has at most ``TABLE_MAX_MATCHINGS`` matchings;
otherwise "no table" is cached and every mask goes to networkx.
``mm_edge_masks`` dedupes its masks and scans growing prefixes of the table
for a chunk of them at once, with no Python call per mask; a mask leaves the
scan as soon as no later row can change its answer.

networkx's blossom (primal-dual) solver, with a fixed insertion order, is the
reference.  It is imported on the first networkx solve, so a process whose
queries the table answers never loads networkx.  Whenever the two heaviest
table rows inside ``R`` weigh within ``WEIGHT_TIE_TOL`` of each other
(weight ties, zero-weight edges) the mask is solved by networkx, so the
table only answers masks with a unique optimum and every answer is the one
networkx gives.  networkx's answers are memoized per (graph, edge mask) in
``g._caches["mm"]``; the memo is cleared when it reaches ``MM_CACHE_MAX``
entries, so graphs whose masks rarely repeat do not grow it without bound.
``brute_force_mwm`` is the independent cross-validation oracle: exhaustive
enumeration, small instances only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import WEIGHT_TIE_TOL, StochasticGraph, mask_dtype, mask_edges

# Largest matching count for which a graph gets a matching table (2 MB of
# rows and weights); enumeration stops as soon as the count passes it.
TABLE_MAX_MATCHINGS = 1 << 17
# The per-graph memo is cleared when it reaches this many entries.
MM_CACHE_MAX = 1 << 16
# Cells (masks times table rows) of one chunk of ``mm_edge_masks``: a 512 KB
# int64 temporary, small enough that batches do not raise the peak memory.
SCAN_CELLS = 1 << 16
# The table scan's first prefix of rows, and the factor by which each later
# prefix grows.
SCAN_FIRST_ROWS = 64
SCAN_GROWTH = 4


@dataclass(frozen=True)
class Matching:
    """The edge indices of a matching (no two share an endpoint)."""

    edges: frozenset[int]


@dataclass(frozen=True)
class GraphView:
    """A stochastic graph restricted to an edge-index mask.

    ``mask=None`` means the whole edge set.  Used to point the matching
    oracle at a realization, at the query plan, or at the crucial edges.
    """

    graph: StochasticGraph
    mask: int | None = None

    def __post_init__(self):
        if self.mask is not None:
            if self.mask < 0 or (self.mask >> self.graph.m):
                raise ValueError("mask indexes edges outside the graph")

    @property
    def effective_mask(self) -> int:
        return self.graph.full_mask if self.mask is None else self.mask

    def edge_indices(self) -> list[int]:
        return mask_edges(self.effective_mask)


def max_weight_matching(view: GraphView) -> Matching:
    """Maximum-weight matching of the view: a one-row :func:`mm_edge_masks`."""
    g = view.graph
    rows = mm_edge_masks(g, np.array([view.effective_mask], dtype=mask_dtype(g.m)))
    return Matching(edges=frozenset(mask_edges(int(rows[0]))))


def mm_edge_mask(g: StochasticGraph, mask: int) -> int:
    """Bitmask of MM(view) edges: a one-row :func:`mm_edge_masks`.

    Neither per-mask entry point calls the other, so every per-mask oracle
    query is exactly one call of one of them.
    """
    return int(mm_edge_masks(g, np.array([mask], dtype=mask_dtype(g.m)))[0])


def mm_edge_masks(g: StochasticGraph, masks: np.ndarray) -> np.ndarray:
    """The maximum-weight matching of every mask of an array, as an array of
    edge masks of its dtype.

    With a matching table the distinct masks are answered by
    :func:`_table_answers`; those answers neither read nor fill the memo.
    Masks whose optimum ties, and every mask of a graph without a table (so
    every ``object`` array, past 63 edges), are answered by
    :func:`_memo_mask`.
    """
    table = matching_table(g)
    if table is None:
        return np.array([_memo_mask(g, mask) for mask in masks.tolist()], dtype=masks.dtype)
    if len(masks) < 2:  # nothing to dedupe; np.unique costs more than the scan
        distinct, inverse = masks, slice(None)
    else:
        distinct, inverse = np.unique(masks, return_inverse=True)
    answers = _table_answers(*table, distinct)
    for i in np.flatnonzero(answers < 0).tolist():
        answers[i] = _memo_mask(g, int(distinct[i]))
    return answers[inverse]


def _memo_mask(g: StochasticGraph, mask: int) -> int:
    """networkx's answer for one mask, memoized."""
    cache = g._caches.setdefault("mm", {})
    hit = cache.get(mask)
    if hit is None:
        if len(cache) >= MM_CACHE_MAX:
            cache.clear()
        hit = cache[mask] = _solve_networkx(g, mask)
    return hit


def _table_answers(rows: np.ndarray, weights: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The table's answer for each int64 mask: the first row inside it, or -1
    where the next row inside ties with that one.

    The rows are scanned in growing prefixes: the first ``SCAN_FIRST_ROWS``,
    then ``SCAN_GROWTH`` times as many at each stage, up to the whole table.
    A lone mask is scanned against the whole table in one pass, as each
    stage's fixed cost exceeds what a short prefix saves on one row.
    A mask drops out once it is settled: when the prefix holds its second
    inside row, or its first inside row and the next row weighs more than
    ``WEIGHT_TIE_TOL`` less than that one (rows are sorted heaviest first, so
    no later row can tie).  Each stage covers its masks in chunks of
    ``SCAN_CELLS // prefix`` masks.
    """
    answers = np.empty_like(masks)
    pending = np.arange(len(masks))
    size = len(rows) if len(masks) == 1 else SCAN_FIRST_ROWS
    while pending.size:
        size = min(size, len(rows))
        last = size == len(rows)
        prefix = rows[:size]
        per_chunk = max(1, SCAN_CELLS // size)
        unsettled = []
        for start in range(0, len(pending), per_chunk):
            index = pending[start:start + per_chunk]
            inside = (prefix & ~masks[index, None]) == 0
            k = np.arange(len(index))
            first = inside.argmax(axis=1)
            found = last or inside[k, first]  # the whole table holds the empty matching
            inside[k, first] = False
            second = inside.argmax(axis=1)
            second_inside = inside[k, second]
            if not last:
                settled = second_inside | found & (
                    weights[first] - weights[size] > WEIGHT_TIE_TOL)
                unsettled.append(index[~settled])
                index, first, second, second_inside = (
                    index[settled], first[settled], second[settled], second_inside[settled])
            answers[index] = np.where(_tied(weights, first, second, second_inside),
                                      -1, rows[first])
        if not unsettled:  # the whole table was scanned
            break
        pending = np.concatenate(unsettled)
        size *= SCAN_GROWTH
    return answers


def _tied(weights: np.ndarray, first, second, second_inside):
    """The tie rule: a second row inside the mask within ``WEIGHT_TIE_TOL`` of
    the first.  The empty matching is a row, so a first row always exists;
    when no second does, ``argmax`` points at a row outside the mask."""
    return second_inside & (weights[first] - weights[second] <= WEIGHT_TIE_TOL)


def _solve_networkx(g: StochasticGraph, mask: int) -> int:
    """networkx's matching of the mask's edges, as an edge mask; raises
    ``ValueError`` if two of its pairs share a vertex."""
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for e in range(g.m):
        if (mask >> e) & 1:
            u, v, w, _p = g.edges[e]
            nxg.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(nxg, maxcardinality=False)
    index = g.pair_index
    answer = used = 0
    for u, v in pairs:
        ends = (1 << u) | (1 << v)
        if used & ends:
            raise ValueError(f"networkx matched a vertex of pair ({u}, {v}) twice")
        used |= ends
        answer |= 1 << index[(min(u, v), max(u, v))]
    return answer


def matching_table(g: StochasticGraph) -> tuple[np.ndarray, np.ndarray] | None:
    """``(rows, weights)`` of every matching of ``g``, heaviest first; cached.

    ``rows`` are int64 edge masks, ``weights`` their float weights, in a
    stable sort by decreasing weight of the enumeration order (the empty
    matching first, then each edge added to every earlier row it fits).
    ``None`` when ``m > 62`` or ``g`` has more than ``TABLE_MAX_MATCHINGS``
    matchings.
    """
    if "mm_table" not in g._caches:
        g._caches["mm_table"] = _build_table(g)
    return g._caches["mm_table"]


def _build_table(g: StochasticGraph) -> tuple[np.ndarray, np.ndarray] | None:
    if g.m > 62:
        return None
    rows = np.zeros(1, dtype=np.int64)
    weights = np.zeros(1)
    for e, (u, v, w, _p) in enumerate(g.edges):
        conflict = 0
        for f in g.incident[u] + g.incident[v]:
            conflict |= 1 << f
        fits = (rows & np.int64(conflict)) == 0
        if rows.size + int(np.count_nonzero(fits)) > TABLE_MAX_MATCHINGS:
            return None
        rows = np.concatenate([rows, rows[fits] | np.int64(1 << e)])
        weights = np.concatenate([weights, weights[fits] + w])
    order = np.argsort(-weights, kind="stable")
    return rows[order], weights[order]


def brute_force_mwm(view: GraphView) -> Matching:
    """Exhaustive maximum-weight matching; refuses views with > 20 edges.

    Ties within ``WEIGHT_TIE_TOL`` are broken toward the lexicographically
    smallest sorted edge-index vector, so the output is canonical.
    """
    g = view.graph
    edge_list = view.edge_indices()
    if len(edge_list) > 20:
        raise ValueError(f"brute force limited to 20 edges, got {len(edge_list)}")

    best_weight = 0.0
    best_edges: tuple[int, ...] = ()

    def consider(weight: float, chosen: tuple[int, ...]):
        nonlocal best_weight, best_edges
        if weight > best_weight + WEIGHT_TIE_TOL:
            best_weight, best_edges = weight, chosen
        elif weight >= best_weight - WEIGHT_TIE_TOL and chosen < best_edges:
            best_weight, best_edges = max(weight, best_weight), chosen

    def recurse(i: int, used: int, weight: float, chosen: tuple[int, ...]):
        if i == len(edge_list):
            consider(weight, chosen)
            return
        e = edge_list[i]
        u, v = g.endpoints(e)
        recurse(i + 1, used, weight, chosen)
        ends = (1 << u) | (1 << v)
        if not used & ends:
            recurse(i + 1, used | ends, weight + g.edges[e].w, chosen + (e,))

    recurse(0, 0, 0.0, ())
    return Matching(edges=frozenset(best_edges))
