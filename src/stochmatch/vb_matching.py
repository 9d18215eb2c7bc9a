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
its new reveals in one ``y_primes`` call, which answers each reveal with
the ``y'`` of every realized edge of its batch.

``exact_vb_enumeration`` is an independent oracle: it enumerates arrival
orders, reveals and activation outcomes per connected component of the
crucial graph (relative orders on disjoint components are independent under
a uniform global order, and all activation inputs are component-local, so
the joint law factorizes across components).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, permutations
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .exact import EnumerationTooLarge
from .graph_core import StochasticGraph, mask_dtype, mask_edges, sample_masks

_CLIP_TOL = 1e-12
_SUM_TOL = 1e-9
# Largest crucial component (vertices, edges) exact_vb_enumeration enumerates.
MAX_COMPONENT_VERTICES = 4
MAX_COMPONENT_EDGES = 6
# A block that takes a law's activation table past this many entries clears it.
ACTIVATION_CACHE_MAX = 1 << 16


class ActivationLaw(Protocol):
    """The oracle-matching law as the run reads it: the graph, its crucial
    edges, the marginals ``y`` (indexed by edge) and the batch conditionals
    ``y'``, asked for a list of distinct batch reveals ``(batch_mask,
    batch_bits)`` at once and answered per reveal with the ``y'`` of each
    realized edge (each set bit of ``batch_bits``) in edge order."""

    graph: StochasticGraph
    crucial_mask: int
    y: np.ndarray

    def y_primes(self, reveals: Sequence[tuple[int, int]]) -> list[Sequence[float]]: ...


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
    [y_primes] = law.y_primes([(batch_mask, batch_bits)])
    return _activation_rule(law.y, mask_edges(batch_bits), y_primes)


def _activation_rule(y: np.ndarray, edges: list[int], y_primes: Sequence[float]):
    """:func:`activate_batch` of the realized batch edges ``edges``, given
    their conditionals ``y_primes``."""
    probs = []
    total = 0.0
    for e, y_prime in zip(edges, y_primes, strict=True):
        if y_prime < 0.0:
            raise ValueError(f"negative conditional marginal for edge {e}")
        y_e = float(y[e])
        if not (0.0 <= y_e <= 1.0):
            raise ValueError(f"marginal of edge {e} must be in [0, 1]")
        probs.append(3.0 * y_prime / (3.0 + 2.0 * y_e))
        total += probs[-1]
    if total > 1.0:
        scale = 1.0 / total
        probs = [q * scale for q in probs]
    return tuple(edges), tuple(accumulate(probs)), total > 1.0 + _CLIP_TOL


class _ActivationTable:
    """What :func:`run_vb` keeps on a law object, as its ``_activation_table``:
    the crucial geometry of the law's graph, and the activation entries
    (:func:`activate_batch`) of the batch reveals asked so far, as arrays.

    ``rows`` maps a reveal ``(batch_mask, batch_bits)`` to its row of
    ``cumulative`` (the cumulative probabilities, padded with inf),
    ``choices`` (the realized edges, padded with -1 to one column more than
    ``cumulative``) and ``clipped``.  A block that takes the table past
    ``ACTIVATION_CACHE_MAX`` entries clears it.
    """

    def __init__(self, law: ActivationLaw):
        g = law.graph
        self.dtype = dtype = mask_dtype(max(g.n, g.m))
        incident = [0] * g.n  # crucial edge mask per vertex
        ends = [0] * g.m  # u + v, to find the partner
        end_bits = [0] * g.m  # vertex mask of a crucial edge
        for e in mask_edges(law.crucial_mask):
            u, v = g.endpoints(e)
            incident[u] |= 1 << e
            incident[v] |= 1 << e
            ends[e] = u + v
            end_bits[e] = (1 << u) | (1 << v)
        self.incident = np.array(incident, dtype=dtype)
        self.ends = np.array(ends, dtype=np.int64)
        self.vertex_bit = np.array([1 << v for v in range(g.n)], dtype=dtype)
        self.edge_bit = np.array([1 << e for e in range(g.m)], dtype=dtype)
        self.width = max((mask.bit_count() for mask in incident), default=0)
        # touched_by[i][b]: the endpoints of the edges 8 * i + j, j a bit of b
        self.touched_by = []
        for i in range(0, g.m, 8):
            touched = [0]
            for bits in end_bits[i:i + 8]:
                touched += [t | bits for t in touched]
            self.touched_by.append(np.array(touched, dtype=dtype))
        self.clear()

    def clear(self):
        self.rows: dict[tuple[int, int], int] = {}
        self.cumulative = np.empty((0, self.width))
        self.choices = np.empty((0, self.width + 1), dtype=np.int64)
        self.clipped = np.empty(0, dtype=bool)


def _activation_arrays(law: ActivationLaw, table: _ActivationTable, masks: list[int],
                       bits: list[int]):
    """The activation entries of the batch reveals ``(masks[i], bits[i])``,
    as their rows of ``table.cumulative``, ``table.choices`` and
    ``table.clipped``.

    The entries missing from the table are added, with the conditionals of
    all of them from one ``law.y_primes`` call on their reveals.  The rows
    this call returns do not depend on what the table held.
    """
    keys = list(zip(masks, bits))
    rows = [table.rows.get(key) for key in keys]
    missing = [i for i, row in enumerate(rows) if row is None]
    if missing:
        cumulative = np.full((len(missing), table.width), np.inf)
        choices = np.full((len(missing), table.width + 1), -1, dtype=np.int64)
        clipped = np.zeros(len(missing), dtype=bool)
        answers = law.y_primes([keys[i] for i in missing])
        for j, (i, y_primes) in enumerate(zip(missing, answers)):
            edges, cum, clipped[j] = _activation_rule(law.y, mask_edges(bits[i]), y_primes)
            cumulative[j, :len(cum)] = cum
            choices[j, :len(edges)] = edges
            rows[i] = table.rows[keys[i]] = len(table.cumulative) + j
        table.cumulative = np.concatenate([table.cumulative, cumulative])
        table.choices = np.concatenate([table.choices, choices])
        table.clipped = np.concatenate([table.clipped, clipped])
    rows = np.array(rows, dtype=np.int64)
    out = table.cumulative[rows], table.choices[rows], table.clipped[rows]
    if len(table.rows) > ACTIVATION_CACHE_MAX:
        table.clear()
    return out


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


def _distinct_reveals(batch_masks: np.ndarray, batch_bits: np.ndarray, flat: np.ndarray,
                      m: int):
    """The distinct batch reveals at the flat indices ``flat`` of
    ``batch_masks`` and ``batch_bits``, ordered by mask and then bits, as two
    lists of ints, and for each index the index of its reveal.

    Up to 31 edges a reveal is the one int64 word ``mask << m | bits``,
    which sorts as the pair does; up to 8 edges the words are indexed through
    a table over all ``2 ** (2 * m)`` of them rather than an ``argsort``.
    Past 31 edges the pairs are sorted by ``lexsort``.
    """
    first = np.ones(len(flat), dtype=bool)
    if 2 * m <= 63:
        word = (batch_masks.ravel()[flat].astype(np.int64) << m
                | batch_bits.ravel()[flat].astype(np.int64))
        if 2 * m <= 16:
            ordered = np.sort(word)
            first[1:] = ordered[1:] != ordered[:-1]
            distinct = ordered[first]
            index = np.empty(1 << 2 * m, dtype=np.int32)  # at most 3 ** 8 reveals
            index[distinct] = np.arange(len(distinct))
            return (distinct >> m).tolist(), (distinct & (1 << m) - 1).tolist(), index[word]
        order = np.argsort(word)
        word = word[order]
        first[1:] = word[1:] != word[:-1]
        masks, bits = word >> m, word & (1 << m) - 1
    else:
        order = np.lexsort((batch_bits.ravel()[flat], batch_masks.ravel()[flat]))
        masks, bits = batch_masks.ravel()[flat[order]], batch_bits.ravel()[flat[order]]
        first[1:] = (masks[1:] != masks[:-1]) | (bits[1:] != bits[:-1])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return masks[first].tolist(), bits[first].tolist(), inverse


def run_vb(law: ActivationLaw, perms, reals: Sequence[int], uniforms) -> VBBlock:
    """Runs ``k`` of the variance-bounding matching, one per row ``k`` of the
    inputs, all at once.

    Run ``k``'s vertices arrive in the order ``perms[k]``; each arrival
    reveals the crucial bits of ``reals[k]`` on its batch, and the ``j``-th
    arrival whose batch has a realized edge activates on ``uniforms[k][j]``
    by the rule of :func:`activate_batch`.  The batch reveals depend on the
    arrival orders and realizations alone, so the block collects them all
    first and sorts out the distinct ones (as one int64 word each up to 31
    edges).  Their entries come from the law's activation table, which keeps
    them as arrays beside the crucial geometry, and those missing from it get
    their conditionals from one ``law.y_primes`` call.  Every activation is
    then picked at once, by flat indices into the block's entries; only the
    greedy matching advances one arrival step at a time, on numpy arrays of
    vertex and edge masks.  The masks are int64 up to 63 vertices and edges
    and Python ints in ``dtype=object`` arrays past that.  A row that is not
    a permutation raises ``ValueError``, and the structural invariants are
    asserted for every row.
    """
    g = law.graph
    n, m, count = g.n, g.m, len(reals)
    perms = np.asarray(perms, dtype=np.int64)
    if perms.size != count * n or perms.size and (
            perms.min() < 0 or perms.max() >= n or not np.bincount(
                (perms.reshape(count, n) + np.arange(0, count * n, n)[:, None]).ravel(),
                minlength=count * n).all()):
        raise ValueError("permutation must cover every vertex exactly once")
    perms = perms.reshape(count, n)
    table = vars(law).get("_activation_table")
    if table is None:
        table = vars(law)["_activation_table"] = _ActivationTable(law)
    dtype, vertex_bit = table.dtype, table.vertex_bit
    crucial_mask = law.crucial_mask
    reals = np.asarray(reals, dtype=dtype) & crucial_mask
    uniforms = np.asarray(uniforms, dtype=float)

    # batch_masks[step, k]: the crucial edges from run k's arrival at `step`
    # to earlier arrivals, and batch_bits its realized ones; uniform[step, k]:
    # the flat index in `uniforms` of the uniform that arrival reads.
    batch_masks = np.empty((n, count), dtype=dtype)
    batch_bits = np.empty((n, count), dtype=dtype)
    uniform = np.empty((n, count), dtype=np.int64)
    seen = np.zeros(count, dtype=dtype)  # crucial edges with an arrived endpoint
    read = np.arange(count) * uniforms.shape[1]
    for step in range(n):
        incident_v = table.incident[perms[:, step]]
        batch_masks[step] = incident_v & seen
        seen |= incident_v
        batch_bits[step] = batch_masks[step] & reals
        uniform[step] = read
        read += batch_bits[step] != 0
    # The arrivals that reveal a realized edge, as flat indices
    # `step * count + k` in step order.
    flat = np.flatnonzero(batch_bits != 0)
    masks, bits, inverse = _distinct_reveals(batch_masks, batch_bits, flat, m)
    cumulative, choices, clipped = _activation_arrays(law, table, masks, bits)
    clip_events = int(np.count_nonzero(clipped[inverse]))
    # Each arrival counts the cumulative probabilities of its entry that its
    # uniform reaches, which indexes its edge in `choices` (-1: none).
    u = uniforms.ravel()[uniform.ravel()[flat]]
    pick = inverse * (table.width + 1)
    for column in cumulative.T:
        pick += column[inverse] <= u
    chosen = choices.ravel()[pick]
    hit = np.flatnonzero(chosen >= 0)
    flat, chosen = flat[hit], chosen[hit]
    steps = flat // count
    rows = flat - steps * count
    arriving = perms.ravel()[rows * n + steps]
    partner_bit = vertex_bit[table.ends[chosen] - arriving]
    pairs = vertex_bit[arriving] | partner_bit
    edges = table.edge_bit[chosen]

    matched = np.zeros(count, dtype=dtype)
    active = np.zeros(count, dtype=dtype)  # vertices with an active edge
    mc = np.zeros(count, dtype=dtype)
    activated = np.zeros(count, dtype=dtype)
    bounds = np.searchsorted(steps, np.arange(n + 1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        rows_s, pair, edge_s = rows[lo:hi], pairs[lo:hi], edges[lo:hi]
        activated[rows_s] |= edge_s
        active[rows_s] |= pair
        held = matched[rows_s]
        free = held & partner_bit[lo:hi] == 0
        pair = pair * free  # the pairs that join the matching
        assert not np.any(held & pair)  # matched edges stay vertex-disjoint
        matched[rows_s] = held | pair
        mc[rows_s] |= edge_s * free

    everyone = (1 << n) - 1
    alive = everyone & ~active
    # Structural guarantees: alive vertices are unmatched, the activated
    # edges determine the alive set, and matched edges were revealed crucial
    # edges.
    assert not np.any(alive & matched)
    touched = np.zeros(count, dtype=dtype)
    for i, touched_by in enumerate(table.touched_by):
        touched |= touched_by[(activated >> 8 * i & 255).astype(np.intp)]
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
    rules: dict = {}  # (batch mask, batch bits) -> [(edge, activation probability)], total

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
                key = (batch_mask, batch_bits)
                if key not in rules:
                    qs = []
                    total = 0.0
                    y_primes = law.y_primes([key])[0] if batch_bits else []
                    for e, y_prime in zip(mask_edges(batch_bits), y_primes, strict=True):
                        q = 3.0 * y_prime / (3.0 + 2.0 * float(y[e]))
                        qs.append((e, q))
                        total += q
                    rules[key] = qs, total
                qs, total = rules[key]
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
