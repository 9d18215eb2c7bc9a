"""Exact maximum-weight matching on general graphs.

``max_weight_matching`` (and its mask form ``mm_edge_mask``) is the
deterministic oracle the whole pipeline leans on.  Answers are memoized per
(graph, edge mask) in ``g._caches["mm"]``, as the optimum's edge mask,
since the Monte Carlo loops revisit the same realized subgraphs constantly;
``max_weight_matching`` builds its :class:`Matching` from that mask on each
call.  The memo is cleared when it reaches ``MM_CACHE_MAX`` entries, so
graphs whose masks rarely repeat do not grow it without bound.

A memo miss is answered from a *matching table*: every matching of the
graph, as an int64 edge mask, stably sorted by weight, heaviest first.  The
maximum-weight matching of a realized mask ``R`` is the first row ``M`` with
``M & ~R == 0``.  The table is built once per graph, and only when
``m <= 62`` and the graph has at most ``TABLE_MAX_MATCHINGS`` matchings;
otherwise "no table" is cached and every miss goes to networkx.

networkx's blossom (primal-dual) solver, with a fixed insertion order, is the
reference.  It is imported on the first networkx solve, so a process whose
queries the table answers never loads networkx.  Whenever the two heaviest
table rows inside ``R`` weigh within ``WEIGHT_TIE_TOL`` of each other
(weight ties, zero-weight edges) the miss is solved by networkx, so the
table only answers masks with a unique optimum and every answer is the one
networkx gives.  ``brute_force_mwm`` is the independent cross-validation
oracle: exhaustive enumeration, small instances only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import WEIGHT_TIE_TOL, Matching, StochasticGraph, make_matching, mask_edges

# Largest matching count for which a graph gets a matching table (2 MB of
# rows and weights); enumeration stops as soon as the count passes it.
TABLE_MAX_MATCHINGS = 1 << 17
# The per-graph memo is cleared when it reaches this many entries.
MM_CACHE_MAX = 1 << 16


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
    """Maximum-weight matching of the view; deterministic, memoized as a mask."""
    g = view.graph
    return Matching(edges=frozenset(mask_edges(_memo_mask(g, view.effective_mask))),
                    parent=g.token)


def mm_edge_mask(g: StochasticGraph, mask: int) -> int:
    """Bitmask of MM(view) edges; same memo as :func:`max_weight_matching`."""
    return _memo_mask(g, mask)


def _memo_mask(g: StochasticGraph, mask: int) -> int:
    """The memo behind both public entry points; neither calls the other, so
    every oracle query is exactly one call of one of them."""
    cache = g._caches.setdefault("mm", {})
    hit = cache.get(mask)
    if hit is None:
        if len(cache) >= MM_CACHE_MAX:
            cache.clear()
        hit = cache[mask] = _solve(g, mask)
    return hit


def _solve(g: StochasticGraph, mask: int) -> int:
    """Table lookup, or networkx when there is no table or the optimum ties."""
    table = matching_table(g)
    if table is None:
        return _solve_networkx(g, mask)
    rows, weights = table
    inside = (rows & np.int64(~mask)) == 0
    first = int(inside.argmax())
    rest = inside[first + 1:]
    if rest.size:
        second = first + 1 + int(rest.argmax())
        if inside[second] and weights[first] - weights[second] <= WEIGHT_TIE_TOL:
            return _solve_networkx(g, mask)
    return int(rows[first])


def _solve_networkx(g: StochasticGraph, mask: int) -> int:
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for e in range(g.m):
        if (mask >> e) & 1:
            u, v, w, _p = g.edges[e]
            nxg.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(nxg, maxcardinality=False)
    index = g.pair_index
    return make_matching(g, [index[(min(u, v), max(u, v))] for u, v in pairs]).as_mask()


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
    return make_matching(g, best_edges)
