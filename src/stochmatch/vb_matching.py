"""Variance-bounding matching: random arrivals, edge activation, alive set.

Vertices arrive in a uniformly random order.  When a vertex arrives, the
realization of its edges to earlier vertices (its *batch*) is revealed, each
edge's coin being flipped exactly once across the whole run.  At most one
realized batch edge becomes *active*, edge ``e`` with probability
``3*y'_e / (3 + 2*y_e)`` where ``y_e`` is the oracle-matching marginal and
``y'_e`` its conditional given the batch reveal; both come from one
:class:`ActivationLaw`, which also names the graph and its crucial edges.
An active edge joins the matching greedily iff its earlier endpoint is still
unmatched.  Vertices that never touch an active edge form the alive set,
which the augmenting stage builds on.

``exact_vb_enumeration`` is an independent oracle: it enumerates arrival
orders, reveals and activation outcomes per connected component of the
crucial graph (relative orders on disjoint components are independent under
a uniform global order, and all activation inputs are component-local, so
the joint law factorizes across components).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Protocol, Sequence

import numpy as np

from .exact import EnumerationTooLarge
from .graph_core import Matching, StochasticGraph, mask_edges

_CLIP_TOL = 1e-12
_SUM_TOL = 1e-9
# Largest crucial component (vertices, edges) exact_vb_enumeration enumerates.
MAX_COMPONENT_VERTICES = 4
MAX_COMPONENT_EDGES = 6


class ActivationLaw(Protocol):
    """The oracle-matching law as the run reads it: the graph, its crucial
    edges, the marginals ``y`` (indexed by edge) and the batch conditionals
    ``y'``."""

    graph: StochasticGraph
    crucial_mask: int
    y: np.ndarray

    def y_prime(self, e: int, batch_mask: int, batch_bits: int) -> float: ...


def attenuation_g(y: float) -> float:
    """Activation damping 3y/(3+2y); maps [0,1] onto [0, 3/5]."""
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"attenuation input must be in [0, 1], got {y}")
    return 3.0 * y / (3.0 + 2.0 * y)


@dataclass(frozen=True)
class VBOutput:
    """One run's matching (edge mask), alive set (vertex mask) and activation
    history; ``parent`` is the graph's token, as in :class:`Matching`."""

    matching_mask: int
    alive_mask: int
    parent: str
    activation_log: tuple[tuple[int, int | None, int | None], ...]
    permutation: tuple[int, ...]
    clip_events: int
    revealed_mask: int
    revealed_bits: int

    @property
    def matching(self) -> Matching:
        return Matching(edges=frozenset(mask_edges(self.matching_mask)), parent=self.parent)

    @property
    def alive(self) -> frozenset[int]:
        return frozenset(mask_edges(self.alive_mask))


def activate_batch(
    candidates: Sequence[tuple[int, float, float, bool]],
    rng: np.random.Generator,
) -> tuple[int | None, bool]:
    """Pick at most one realized candidate edge.

    Each candidate is ``(edge, y, y_prime, realized)``; a realized edge is
    chosen with probability ``3*y'/(3+2*y)``.  If estimation noise pushes the
    probabilities past total 1 the batch is renormalized and flagged.
    """
    probs: list[tuple[int, float]] = []
    total = 0.0
    for e, y, y_prime, realized in candidates:
        if y_prime < 0.0:
            raise ValueError(f"negative conditional marginal for edge {e}")
        if not (0.0 <= y <= 1.0):
            raise ValueError(f"marginal of edge {e} must be in [0, 1]")
        if not realized:
            continue
        q = 3.0 * y_prime / (3.0 + 2.0 * y)
        probs.append((e, q))
        total += q
    clipped = False
    if total > 1.0:
        clipped = total > 1.0 + _CLIP_TOL
        scale = 1.0 / total
        probs = [(e, q * scale) for e, q in probs]
    if not probs:
        return None, clipped
    u = rng.random()
    acc = 0.0
    for e, q in probs:
        acc += q
        if u < acc:
            return e, clipped
    return None, clipped


def _crucial_adjacency(g: StochasticGraph, mask: int):
    """Per-vertex ``(neighbor, edge, 1 << edge, p)`` over the edges in
    ``mask``, in edge order; only the latest mask's table is kept."""
    hit = g._caches.get("vb_adj")
    if hit is None or hit[0] != mask:
        adj: list[list[tuple[int, int, int, float]]] = [[] for _ in range(g.n)]
        for e in mask_edges(mask):
            u, v, _w, p = g.edges[e]
            adj[u].append((v, e, 1 << e, p))
            adj[v].append((u, e, 1 << e, p))
        hit = g._caches["vb_adj"] = (mask, tuple(tuple(x) for x in adj))
    return hit[1]


def run_vb(
    law: ActivationLaw,
    rng: np.random.Generator,
    realization_mask: int | None = None,
    permutation: Sequence[int] | None = None,
) -> VBOutput:
    """One run of the variance-bounding matching on the law's crucial edges.

    When ``realization_mask`` is given its bits are revealed instead of drawing
    fresh coins (the pipeline feeds the true realization through here); when
    ``permutation`` is given the arrival order is fixed instead of uniform.

    The generator is read in this order, which every caller's numbers rest
    on: ``rng.permutation(n)`` (unless ``permutation`` is given), then per
    arrival one ``rng.random()`` per batch edge (unless ``realization_mask``
    is given), then one :func:`activate_batch` draw if the batch has a
    realized edge.  Vertex and edge sets are int masks throughout.
    """
    g = law.graph
    crucial_mask = law.crucial_mask
    y = law.y
    adj = _crucial_adjacency(g, crucial_mask)

    if permutation is None:
        order = rng.permutation(g.n).tolist()
    else:
        order = [int(v) for v in permutation]
        if sorted(order) != list(range(g.n)):
            raise ValueError("permutation must cover every vertex exactly once")

    arrived = 0
    matched = 0
    active = 0  # vertices with an active edge
    mc_mask = 0
    log: list[tuple[int, int | None, int | None]] = []
    clip_events = 0
    revealed_mask = 0
    revealed_bits = 0
    draw = rng.random

    for v in order:
        batch_mask = 0
        batch_bits = 0
        realized: list[int] = []
        for u, e, bit, p in adj[v]:
            if not (arrived >> u) & 1:
                continue
            batch_mask |= bit
            if realization_mask is not None:
                hit = realization_mask & bit
            else:
                hit = draw() < p
            if hit:
                batch_bits |= bit
                realized.append(e)
        arrived |= 1 << v
        revealed_mask |= batch_mask
        revealed_bits |= batch_bits
        if not realized:
            log.append((v, None, None))
            continue
        candidates = [
            (e, float(y[e]), law.y_prime(e, batch_mask, batch_bits), True)
            for e in realized
        ]
        choice, clipped = activate_batch(candidates, rng)
        if clipped:
            clip_events += 1
        if choice is None:
            log.append((v, None, None))
            continue
        partner = g.other_end(choice, v)
        log.append((v, partner, choice))
        pair = (1 << v) | (1 << partner)
        active |= pair
        if not (matched >> partner) & 1:
            assert not matched & pair  # matched edges stay vertex-disjoint
            matched |= pair
            mc_mask |= 1 << choice

    everyone = (1 << g.n) - 1
    alive_mask = everyone & ~active

    # Structural guarantees: alive vertices are unmatched, the log determines
    # the alive set, and matched edges were revealed crucial edges.
    assert not alive_mask & matched
    touched = 0
    for v, partner, _e in log:
        if partner is not None:
            touched |= (1 << v) | (1 << partner)
    assert alive_mask == everyone & ~touched
    assert not mc_mask & ~(crucial_mask & revealed_bits)

    return VBOutput(
        matching_mask=mc_mask,
        alive_mask=alive_mask,
        parent=g.token,
        activation_log=tuple(log),
        permutation=tuple(order),
        clip_events=clip_events,
        revealed_mask=revealed_mask,
        revealed_bits=revealed_bits,
    )


# ---------------------------------------------------------------------------
# Exact enumeration oracle


@dataclass
class ComponentLaw:
    """Exact joint law of (matching, alive set) on one crucial component."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    joint: dict  # (mc_mask, alive vertex mask) -> prob
    per_order: dict  # arrival order tuple -> {"active": {e: prob}, "log": {log: prob}}
    alive_single: dict  # vertex -> prob
    active: dict  # edge -> prob
    selected: dict  # edge -> prob

    def pair_alive(self, u: int, v: int) -> float:
        both = (1 << u) | (1 << v)
        return sum(p for (_mc, alive), p in self.joint.items() if alive & both == both)


@dataclass
class ExactVBDistribution:
    """Component-factored exact output law of the variance-bounding run."""

    graph: StochasticGraph
    crucial_mask: int
    components: tuple[ComponentLaw, ...]
    _vertex_comp: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for idx, comp in enumerate(self.components):
            for v in comp.vertices:
                self._vertex_comp[v] = idx

    def component_of(self, v: int) -> ComponentLaw:
        return self.components[self._vertex_comp[v]]

    def pair_alive_prob(self, u: int, v: int) -> float:
        cu, cv = self._vertex_comp[u], self._vertex_comp[v]
        if cu == cv:
            return self.components[cu].pair_alive(u, v)
        return self.components[cu].alive_single[u] * self.components[cv].alive_single[v]

    def edge_active_prob(self, e: int) -> float:
        for comp in self.components:
            if e in comp.active:
                return comp.active[e]
        raise KeyError(f"edge {e} is not a crucial edge")

    def edge_selected_prob(self, e: int) -> float:
        for comp in self.components:
            if e in comp.selected:
                return comp.selected[e]
        raise KeyError(f"edge {e} is not a crucial edge")


def _crucial_components(g: StochasticGraph, mask: int):
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in range(g.m):
        if (mask >> e) & 1:
            u, v = g.endpoints(e)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    comps = []
    for verts in groups.values():
        vset = set(verts)
        edges = [e for e in range(g.m) if (mask >> e) & 1 and g.edges[e].u in vset]
        comps.append((tuple(sorted(verts)), tuple(sorted(edges))))
    comps.sort()
    return comps


def exact_vb_enumeration(law: ActivationLaw) -> ExactVBDistribution:
    """Exact output distribution of the run, per crucial component.

    Enumerates arrival orders x edge reveals x activation outcomes with the
    activation probabilities computed from the law's conditionals, so the
    Monte Carlo run can be checked against it to any statistical precision.
    Components past ``MAX_COMPONENT_VERTICES`` / ``MAX_COMPONENT_EDGES``
    raise :class:`EnumerationTooLarge`.
    """
    g = law.graph
    comps = []
    for verts, edges in _crucial_components(g, law.crucial_mask):
        if len(edges) > 0 and len(verts) > MAX_COMPONENT_VERTICES:
            raise EnumerationTooLarge(
                f"component {verts} has {len(verts)} vertices; enumeration cap is "
                f"{MAX_COMPONENT_VERTICES}"
            )
        if len(edges) > MAX_COMPONENT_EDGES:
            raise EnumerationTooLarge(f"component {verts} has too many edges ({len(edges)})")
        comps.append(_enumerate_component(g, verts, edges, law))
    return ExactVBDistribution(graph=g, crucial_mask=law.crucial_mask, components=tuple(comps))


def _enumerate_component(g, verts, edges, law):
    y = law.y
    k = len(verts)
    vidx = {v: j for j, v in enumerate(verts)}
    joint: dict = {}
    per_order: dict = {}
    alive_single = {v: 0.0 for v in verts}
    active = {e: 0.0 for e in edges}
    selected = {e: 0.0 for e in edges}

    if not edges:
        # isolated vertices never see an active edge
        for v in verts:
            alive_single[v] = 1.0
        joint[(0, sum(1 << v for v in verts))] = 1.0
        per_order[tuple(verts)] = {"active": {}, "log": {tuple((v, None) for v in verts): 1.0}}
        return ComponentLaw(verts, edges, joint, per_order, alive_single, active, selected)

    order_prob = 1.0 / math.factorial(k)
    for order in permutations(verts):
        order_data = {"active": {e: 0.0 for e in edges}, "log": {}}
        pos = {v: i for i, v in enumerate(order)}
        # batch of arrival i: edges from order[i] to vertices already arrived
        batches = []
        for v in order:
            batch = []
            for e in edges:
                a, b = g.endpoints(e)
                other = b if a == v else a if b == v else None
                if other is not None and pos[other] < pos[v]:
                    batch.append(e)
            batches.append(batch)

        for bits_index in range(1 << len(edges)):
            bits = 0
            prob_bits = 1.0
            for j, e in enumerate(edges):
                if (bits_index >> j) & 1:
                    bits |= 1 << e
                    prob_bits *= g.edges[e].p
                else:
                    prob_bits *= 1.0 - g.edges[e].p
            if prob_bits == 0.0:
                continue

            stack = [(0, prob_bits, 0, 0, 0, ())]
            while stack:
                i, prob, active_local, matched_local, mc_mask, log = stack.pop()
                if i == k:
                    alive = 0
                    for j, v in enumerate(verts):
                        if not (active_local >> j) & 1:
                            alive |= 1 << v
                            alive_single[v] += prob
                    key = (mc_mask, alive)
                    joint[key] = joint.get(key, 0.0) + prob
                    order_data["log"][log] = order_data["log"].get(log, 0.0) + prob
                    for e in edges:
                        if (mc_mask >> e) & 1:
                            selected[e] += prob
                    continue
                v = order[i]
                batch_mask = 0
                for e in batches[i]:
                    batch_mask |= 1 << e
                batch_bits = bits & batch_mask
                qs = []
                total = 0.0
                for e in batches[i]:
                    if not (bits >> e) & 1:
                        continue
                    q = 3.0 * law.y_prime(e, batch_mask, batch_bits) / (3.0 + 2.0 * float(y[e]))
                    qs.append((e, q))
                    total += q
                if total > 1.0 + _SUM_TOL:
                    raise ValueError("activation probabilities exceed one with exact inputs")
                none_prob = max(0.0, 1.0 - total)
                if none_prob > 0.0:
                    stack.append((i + 1, prob * none_prob, active_local, matched_local,
                                  mc_mask, log + ((v, None),)))
                for e, q in qs:
                    if q <= 0.0:
                        continue
                    partner = g.other_end(e, v)
                    order_data["active"][e] += prob * q
                    new_active = active_local | (1 << vidx[v]) | (1 << vidx[partner])
                    new_matched = matched_local
                    new_mc = mc_mask
                    if not (matched_local >> vidx[partner]) & 1:
                        new_matched |= (1 << vidx[partner]) | (1 << vidx[v])
                        new_mc |= 1 << e
                    stack.append((i + 1, prob * q, new_active, new_matched, new_mc,
                                  log + ((v, partner),)))

        for e in edges:
            active[e] += order_data["active"][e] * order_prob
        per_order[order] = order_data

    joint = {key: p * order_prob for key, p in joint.items()}
    alive_single = {v: p * order_prob for v, p in alive_single.items()}
    selected = {e: p * order_prob for e, p in selected.items()}
    return ComponentLaw(tuple(verts), tuple(edges), joint, per_order, alive_single,
                        active, selected)
