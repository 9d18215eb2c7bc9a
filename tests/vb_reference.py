"""The variance-bounding run written out plainly, as the tests' reference.

``reference_run_vb`` runs one set of inputs with per-vertex lists and sets
and the activation rule inline, reading its inputs as ``vb_matching.run_vb``
reads row ``k`` of a block.  Tests compare ``run_vb``'s rows against it.
"""

from typing import NamedTuple

import numpy as np

from stochmatch.vb_matching import run_vb


class ReferenceRun(NamedTuple):
    """One run's matched edges, alive vertices and activated edges as
    masks, its clipped batch count, and per arrival ``(vertex, partner,
    edge)``, with ``None`` for both when no edge activated."""

    matching: int
    alive: int
    activated: int
    clip_events: int
    log: tuple


def reference_run_vb(law, permutation, realization_mask, uniforms) -> ReferenceRun:
    g = law.graph
    crucial_mask = law.crucial_mask
    y = law.y
    adj = [[] for _ in range(g.n)]
    for e in range(g.m):
        if (crucial_mask >> e) & 1:
            u, v, _w, _p = g.edges[e]
            adj[u].append((v, e))
            adj[v].append((u, e))

    order = [int(v) for v in permutation]
    if sorted(order) != list(range(g.n)):
        raise ValueError("permutation must cover every vertex exactly once")

    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i

    matched = [False] * g.n
    had_active = [False] * g.n
    log = []
    mc_edges = []
    activated = 0
    clip_events = 0
    draws = iter(uniforms)

    for v in order:
        batch_mask = 0
        batch_bits = 0
        realized = []
        for u, e in adj[v]:
            if pos[u] >= pos[v]:
                continue
            bit_e = 1 << e
            batch_mask |= bit_e
            if realization_mask & bit_e:
                batch_bits |= bit_e
                realized.append((u, e))
        if not realized:
            log.append((v, None, None))
            continue
        probs = []
        total = 0.0
        [y_primes] = law.y_primes([(batch_mask, batch_bits)])
        assert len(y_primes) == len(realized)
        for (_u, e), y_prime in zip(realized, y_primes):
            if y_prime < 0.0:
                raise ValueError(f"negative conditional marginal for edge {e}")
            if not (0.0 <= float(y[e]) <= 1.0):
                raise ValueError(f"marginal of edge {e} must be in [0, 1]")
            q = 3.0 * y_prime / (3.0 + 2.0 * float(y[e]))
            probs.append((e, q))
            total += q
        if total > 1.0:
            clip_events += total > 1.0 + 1e-12
            probs = [(e, q / total) for e, q in probs]
        u = next(draws)
        choice = None
        acc = 0.0
        for e, q in probs:
            acc += q
            if u < acc:
                choice = e
                break
        if choice is None:
            log.append((v, None, None))
            continue
        partner = g.other_end(choice, v)
        log.append((v, partner, choice))
        activated |= 1 << choice
        had_active[v] = True
        had_active[partner] = True
        if not matched[partner]:
            matched[partner] = True
            matched[v] = True
            mc_edges.append(choice)

    ends = [v for e in mc_edges for v in g.endpoints(e)]
    assert len(ends) == len(set(ends)), "matched edges share a vertex"
    alive = sum(1 << v for v in range(g.n) if not had_active[v])
    return ReferenceRun(sum(1 << e for e in mc_edges), alive, activated,
                        clip_events, tuple(log))


def assert_rows_equal_reference(law, perms, reals, uniforms, ref_law=None):
    """``run_vb`` on the block equals the reference row by row, and its
    clip count is the rows' total; returns the block and the reference
    runs.  ``ref_law``, if given, answers the reference's queries instead
    of ``law``: a second copy of a law that caches its estimates makes the
    reference compute them anew."""
    block = run_vb(law, perms, reals, uniforms)
    refs = [reference_run_vb(law if ref_law is None else ref_law, perm, real, row)
            for perm, real, row in zip(perms, reals, np.asarray(uniforms))]
    assert len(block.matching) == len(block.alive) == len(block.activated) == len(refs)
    for k, ref in enumerate(refs):
        got = (block.matching[k], block.alive[k], block.activated[k])
        assert got == (ref.matching, ref.alive, ref.activated), k
    assert block.clip_events == sum(ref.clip_events for ref in refs)
    return block, refs
