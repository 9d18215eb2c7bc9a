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

A run is a pure function of its inputs: the arrival order, a realization
mask (only its crucial bits are read) and one uniform per vertex, of which
the ``j``-th arrival whose batch has a realized edge reads the ``j``-th.
:func:`draw_run_inputs` draws the inputs of a block of runs in one go, in
this order: the permutations, then the crucial realizations through
:func:`graph_core.sample_masks`, then the uniforms.  :func:`run_vb` runs a
block of inputs, one run per row, on numpy arrays of masks; a single run is
a block of one row.  The batch reveals of a block are known before any
activation, so the block asks the law for the conditionals ``y'`` of all
its new reveals in one ``y_primes`` call.

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
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .exact import EnumerationTooLarge
from .graph_core import StochasticGraph, mask_dtype, mask_edges, sample_masks

_CLIP_TOL = 1e-12
_SUM_TOL = 1e-9
# Largest crucial component (vertices, edges) exact_vb_enumeration enumerates.
MAX_COMPONENT_VERTICES = 4
MAX_COMPONENT_EDGES = 6
# A law's activation table is cleared when it reaches this many entries.
ACTIVATION_CACHE_MAX = 1 << 16


class ActivationLaw(Protocol):
    """The oracle-matching law as the run reads it: the graph, its crucial
    edges, the marginals ``y`` (indexed by edge) and the batch conditionals
    ``y'``, answered for a list of ``(e, batch_mask, batch_bits)`` queries
    at once."""

    graph: StochasticGraph
    crucial_mask: int
    y: np.ndarray

    def y_primes(self, queries: Sequence[tuple[int, int, int]]) -> list[float]: ...


def attenuation_g(y: float) -> float:
    """Activation damping 3y/(3+2y); maps [0,1] onto [0, 3/5]."""
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"attenuation input must be in [0, 1], got {y}")
    return 3.0 * y / (3.0 + 2.0 * y)


class VBBlock(NamedTuple):
    """Outcomes of a block of runs: per run, the matched, alive and activated
    masks, as arrays of :func:`graph_core.mask_dtype` ``(max(n, m))``; for
    the whole block, the number of clipped batches."""

    matching: np.ndarray
    alive: np.ndarray
    activated: np.ndarray
    clip_events: int


def activate_batch(law: ActivationLaw, batch_mask: int,
                   batch_bits: int) -> tuple[tuple[int, ...], tuple[float, ...], bool]:
    """The activation rule of one batch reveal.

    Each realized edge ``e`` of the batch is chosen with probability
    ``3*y'/(3+2*y)``.  Returns the realized edges in edge order, their
    cumulative probabilities (a uniform ``u`` picks the first edge whose
    cumulative probability exceeds it, none if there is none) and whether
    the batch clipped: if estimation noise pushes the probabilities past
    total 1 they are renormalized and the batch is flagged.
    """
    edges = mask_edges(batch_bits)
    return _activation_rule(law.y, edges,
                            law.y_primes([(e, batch_mask, batch_bits) for e in edges]))


def _activation_rule(y: np.ndarray, edges: list[int], y_primes: Sequence[float]):
    """:func:`activate_batch` of the realized batch edges ``edges``, given
    their conditionals ``y_primes``."""
    probs: list[tuple[int, float]] = []
    total = 0.0
    for e, y_prime in zip(edges, y_primes):
        if y_prime < 0.0:
            raise ValueError(f"negative conditional marginal for edge {e}")
        y_e = float(y[e])
        if not (0.0 <= y_e <= 1.0):
            raise ValueError(f"marginal of edge {e} must be in [0, 1]")
        q = 3.0 * y_prime / (3.0 + 2.0 * y_e)
        probs.append((e, q))
        total += q
    clipped = False
    if total > 1.0:
        clipped = total > 1.0 + _CLIP_TOL
        scale = 1.0 / total
        probs = [(e, q * scale) for e, q in probs]
    cumulative = []
    acc = 0.0
    for _e, q in probs:
        acc += q
        cumulative.append(acc)
    return tuple(e for e, _q in probs), tuple(cumulative), clipped


def _activation_entries(law: ActivationLaw, masks: list[int], bits: list[int]) -> list:
    """:func:`activate_batch` of each batch reveal ``(masks[i], bits[i])``,
    from the law's activation table.

    The conditionals of every reveal missing from the table come from one
    ``law.y_primes`` call.  The table lives on the law object itself, so it
    goes with the law; it is cleared when it reaches
    ``ACTIVATION_CACHE_MAX`` entries, and the entries this call returns do
    not depend on it.
    """
    table = vars(law).setdefault("_activation_table", {})
    keys = list(zip(masks, bits))
    entries = [table.get(key) for key in keys]
    missing = [(i, mask_edges(keys[i][1])) for i, entry in enumerate(entries) if entry is None]
    if not missing:
        return entries
    y_primes = iter(law.y_primes([(e, *keys[i]) for i, edges in missing for e in edges]))
    for i, edges in missing:
        entries[i] = _activation_rule(law.y, edges, [next(y_primes) for _e in edges])
        if len(table) >= ACTIVATION_CACHE_MAX:
            table.clear()
        table[keys[i]] = entries[i]
    return entries


def draw_run_inputs(law: ActivationLaw, rng: np.random.Generator, count: int,
                    permutation: Sequence[int] | None = None):
    """Inputs of ``count`` runs on ``law``, drawn from ``rng`` in this order:
    ``count`` uniform arrival orders (none when ``permutation`` is given,
    which every run then uses), the crucial edges' realizations as
    ``sample_masks(g, rng, count, scope=crucial)``, and a ``(count, n)``
    array of uniforms.  Returns ``(perms, reals, uniforms)`` for
    :func:`run_vb`."""
    g = law.graph
    if permutation is None:
        perms = rng.permuted(np.tile(np.arange(g.n), (count, 1)), axis=1)
    else:
        perms = np.tile(np.asarray(permutation, dtype=np.int64), (count, 1))
    reals = sample_masks(g, rng, count, scope=mask_edges(law.crucial_mask))
    return perms, reals, rng.random((count, g.n))


def _distinct_pairs(a: np.ndarray, b: np.ndarray):
    """The distinct pairs ``(a[i], b[i])`` as two lists of ints, and for each
    ``i`` the index of its pair (``np.unique(..., axis=0)`` does the same,
    about ten times slower)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return a[first].tolist(), b[first].tolist(), inverse


def run_vb(law: ActivationLaw, perms, reals: Sequence[int], uniforms) -> VBBlock:
    """Runs ``k`` of the variance-bounding matching, one per row ``k`` of the
    inputs, all at once.

    Run ``k``'s vertices arrive in the order ``perms[k]``; each arrival
    reveals the crucial bits of ``reals[k]`` on its batch, and the ``j``-th
    arrival whose batch has a realized edge activates on ``uniforms[k][j]``
    through the law's activation table (:func:`activate_batch`).  The batch
    reveals depend on the arrival orders and realizations alone, so the
    block collects them all first and looks up the activation entry of
    every distinct one once, with one ``law.y_primes`` call for those
    missing from the table; every activation is then picked at once.  Only
    the greedy matching advances one arrival step at a time, on numpy arrays
    of vertex and edge masks.  The masks are int64 up to 63 vertices and
    edges and Python ints in ``dtype=object`` arrays past that.  The
    structural invariants are asserted row by row.
    """
    g = law.graph
    n, m, count = g.n, g.m, len(reals)
    perms = np.asarray(perms, dtype=np.int64)
    if perms.size != count * n or not np.array_equal(
            np.sort(perms.reshape(count, n), axis=1), np.broadcast_to(np.arange(n), (count, n))):
        raise ValueError("permutation must cover every vertex exactly once")
    perms = perms.reshape(count, n)
    dtype = mask_dtype(max(n, m))
    vertex_bit = np.array([1 << v for v in range(n)], dtype=dtype)
    edge_bit = np.array([1 << e for e in range(m)], dtype=dtype)
    crucial_mask = law.crucial_mask
    crucial = mask_edges(crucial_mask)
    incident = np.zeros(n, dtype=dtype)  # crucial edge mask per vertex
    ends = np.zeros(m, dtype=np.int64)  # u + v, to find the partner
    for e in crucial:
        u, v = g.endpoints(e)
        incident[u] |= 1 << e
        incident[v] |= 1 << e
        ends[e] = u + v
    reals = np.asarray(reals, dtype=dtype) & crucial_mask
    uniforms = np.asarray(uniforms, dtype=float)

    # batch_masks[step, k]: the crucial edges from run k's arrival at `step`
    # to earlier arrivals.
    batch_masks = np.zeros((n, count), dtype=dtype)
    seen = np.zeros(count, dtype=dtype)  # crucial edges with an arrived endpoint
    for step in range(n):
        incident_v = incident[perms[:, step]]
        batch_masks[step] = incident_v & seen
        seen |= incident_v
    batch_bits = batch_masks & reals
    revealed = batch_bits != 0
    # The arrivals that reveal a realized edge, as flat indices
    # `step * count + k` in step order; each reads the next uniform of its run.
    flat = np.flatnonzero(revealed)
    steps, rows = np.divmod(flat, count)
    draws = np.cumsum(revealed, axis=0).ravel()[flat] - 1
    masks, bits, inverse = _distinct_pairs(batch_masks.ravel()[flat], batch_bits.ravel()[flat])
    entries = _activation_entries(law, masks, bits)
    width = max((len(edges) for edges, _c, _f in entries), default=0)
    # Row k of `cumulative` holds entry k's cumulative probabilities,
    # padded with inf; `choices[k, i]` is its i-th edge and -1 past the end.
    cumulative = np.full((len(entries), width), np.inf)
    choices = np.full((len(entries), width + 1), -1, dtype=np.int64)
    for k, (edges, cum, _clipped) in enumerate(entries):
        cumulative[k, :len(cum)] = cum
        choices[k, :len(edges)] = edges
    clipped = np.array([flag for _e, _c, flag in entries], dtype=bool)
    clip_events = int(np.count_nonzero(clipped[inverse]))
    u = uniforms[rows, draws]
    chosen = choices[inverse, (cumulative[inverse] <= u[:, None]).sum(axis=1)]
    hit = chosen >= 0
    steps, rows, chosen = steps[hit], rows[hit], chosen[hit]
    arriving = perms[rows, steps]
    partner = ends[chosen] - arriving
    pairs = vertex_bit[arriving] | vertex_bit[partner]

    matched = np.zeros(count, dtype=dtype)
    active = np.zeros(count, dtype=dtype)  # vertices with an active edge
    mc = np.zeros(count, dtype=dtype)
    activated = np.zeros(count, dtype=dtype)
    bounds = np.searchsorted(steps, np.arange(n + 1))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if lo == hi:
            continue
        rows_s, pair, chosen_s = rows[lo:hi], pairs[lo:hi], chosen[lo:hi]
        activated[rows_s] |= edge_bit[chosen_s]
        active[rows_s] |= pair
        free = matched[rows_s] & vertex_bit[partner[lo:hi]] == 0
        rows_s, pair, chosen_s = rows_s[free], pair[free], chosen_s[free]
        assert not np.any(matched[rows_s] & pair)  # matched edges stay vertex-disjoint
        matched[rows_s] |= pair
        mc[rows_s] |= edge_bit[chosen_s]

    everyone = (1 << n) - 1
    alive = everyone & ~active
    # Structural guarantees: alive vertices are unmatched, the activated
    # edges determine the alive set, and matched edges were revealed crucial
    # edges.
    assert not np.any(alive & matched)
    touched = np.zeros(count, dtype=dtype)
    for e in crucial:
        u, v = g.endpoints(e)
        touched[activated & edge_bit[e] != 0] |= vertex_bit[u] | vertex_bit[v]
    assert np.array_equal(alive, everyone & ~touched)
    assert not np.any(mc & ~(crucial_mask & np.bitwise_or.reduce(batch_bits, axis=0)))
    return VBBlock(mc, alive, activated, clip_events)


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
    y_prime: dict = {}  # (edge, batch mask, batch bits) -> the law's y'

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
                    key = (e, batch_mask, batch_bits)
                    if key not in y_prime:
                        y_prime[key] = law.y_primes([key])[0]
                    q = 3.0 * y_prime[key] / (3.0 + 2.0 * float(y[e]))
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
