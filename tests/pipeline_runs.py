"""Fractional-stage diagnostics of pipeline runs, for the tests that gate them.

``end_to_end`` returns only each run's weights and winning scheme.  The
degree cap, the rounding bound and the E[f_e] floor are properties of the
fractional vector ``f`` and its rounding ``m_n``, which the sweep builds for
every run from its plan, realization and variance-bounding run.  Here those
inputs are drawn from the sweep's block streams, as the README's stream
contract states them, and the run comes from the per-run reference
implementations of ``vb_reference`` and ``augment_reference``.
"""

import dataclasses
import functools

import numpy as np

import augment_reference
from stochmatch import augmenter
from stochmatch.graph_core import sample_masks
from stochmatch.mwm import mm_edge_mask
from stochmatch.parallel import iter_blocks, rng_from
from stochmatch.sparsifier import plan_round_masks
from stochmatch.vb_matching import draw_run_inputs

from vb_reference import reference_run_vb


def reference_runs(g, tables, seed, runs, t):
    """``(real_mask, ReferenceRun, q_mask)`` of runs ``0..runs-1`` of a sweep
    of ``runs`` runs at the point ``t`` (``None``: the control), in run order.

    Block ``b`` reads the stream ``(seed, E2E, b)``: its runs' arrival orders,
    crucial realizations and uniforms, then their non-crucial realizations,
    then ``t`` plan rounds, each one call for every run of the block.  The
    sweep draws all its rounds in one call instead; that reads the stream
    row by row, so drawing round by round here checks that contract."""
    for block, count in iter_blocks(runs):
        rng = rng_from(seed, augmenter._TAG_E2E, block)
        perms, crucial, uniforms = draw_run_inputs(tables.law, rng, count)
        noncrucial = sample_masks(g, rng, count, scope=tables.classes.noncrucial())
        plans = [g.full_mask if t is None else 0] * count
        for _ in range(t or 0):
            plans = [q | mask for q, mask in zip(plans, plan_round_masks(g, count, rng))]
        for k in range(count):
            real_mask = crucial[k] | noncrucial[k]
            vb = reference_run_vb(tables.law, perms[k], real_mask, uniforms[k])
            yield real_mask, vb, plans[k]


class RecordedLaw:
    """``law`` with each reveal's ``y'`` answer kept after its first query.
    Laws keep no memo of their own, and thousands of reference runs ask the
    same few reveals again and again."""

    def __init__(self, law):
        self.graph, self.crucial_mask, self.y = law.graph, law.crucial_mask, law.y
        self.reveal = functools.cache(lambda mask, bits: law.y_primes([(mask, bits)])[0])

    def y_primes(self, reveals):
        return [self.reveal(*reveal) for reveal in reveals]


def point_runs(g, tables, t, runs, seed):
    """``(ReferenceRun, f, m_n)`` of runs ``0..runs-1`` at the sweep point ``t``.

    The oracle is deterministic, so each distinct mask is answered once per
    call and its answer kept while the runs are generated."""
    tables = dataclasses.replace(tables, law=RecordedLaw(tables.law))
    oracle = functools.cache(functools.partial(mm_edge_mask, g))
    for real_mask, vb, q_mask in reference_runs(g, tables, seed, runs, t):
        [(_run, f, m_n)] = augment_reference.pipeline_run(
            g, tables, (q_mask,), real_mask, vb.matching, vb.alive,
            oracle(real_mask), (oracle(q_mask & real_mask),))
        yield vb, f, m_n


def f_weight(g, f):
    """Weight of a fractional vector, summed in ascending edge order."""
    return sum(x * g.edges[e].w for e, x in sorted(f.values.items()))


def max_load(g, f):
    """Largest fractional degree; each vertex sums its edges in ascending order."""
    loads = [0.0] * g.n
    for e, value in sorted(f.values.items()):
        u, v = g.endpoints(e)
        loads[u] += value
        loads[v] += value
    return max(loads, default=0.0)


def mean_f(g, fs):
    """Per-edge mean of the fractional vectors ``fs`` and its standard error."""
    sums = np.zeros(g.m)
    sumsq = np.zeros(g.m)
    for f in fs:
        for e, value in f.values.items():
            sums[e] += value
            sumsq[e] += value * value
    n = len(fs)
    mean = sums / n
    var = np.maximum(sumsq / n - mean**2, 0.0)
    return mean, np.sqrt(var / n)
