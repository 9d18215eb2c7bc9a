"""Fractional-stage diagnostics of pipeline runs, for the tests that gate them.

``end_to_end`` returns only each run's weights and winning scheme.  The
degree cap, the rounding bound and the E[f_e] floor are properties of the
fractional vector ``f`` and its rounding ``m_n``, which
``augmenter._pipeline_run`` builds for every run from its realization and
variance-bounding run.  Here those come from the sweep's streams for the run
with the same index, and the run from the reference implementation.
"""

import dataclasses
import functools

import numpy as np

from stochmatch import augmenter
from stochmatch.graph_core import sample_mask
from stochmatch.parallel import rng_from

from vb_reference import reference_run_vb


def reference_vb(g, tables, seed, run_index):
    """Run ``run_index``'s realization mask and its variance-bounding run
    (a ``ReferenceRun``), drawn from the sweep's streams."""
    real_mask = sample_mask(g, rng_from(seed, augmenter._TAG_E2E_REAL, run_index))
    vb_rng = rng_from(seed, augmenter._TAG_E2E_VB, run_index)
    run = reference_run_vb(tables.law, vb_rng.permutation(g.n), real_mask, vb_rng.random(g.n))
    return real_mask, run


class RecordedLaw:
    """``law`` with each ``y'`` answer kept after its first query.  Laws keep
    no memo of their own, and thousands of reference runs ask the same few
    keys again and again."""

    def __init__(self, law):
        self.graph, self.crucial_mask, self.y = law.graph, law.crucial_mask, law.y
        self.y_prime = functools.cache(law.y_prime)


def point_runs(g, tables, t, runs, seed):
    """``(ReferenceRun, f, m_n)`` of runs ``0..runs-1`` at the sweep point ``t``."""
    tables = dataclasses.replace(tables, law=RecordedLaw(tables.law))
    for r in range(runs):
        real_mask, vb = reference_vb(g, tables, seed, r)
        [(_record, f, m_n)] = augmenter._pipeline_run(g, tables, (t,), seed, r, real_mask,
                                                      vb.matching, vb.alive)
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
