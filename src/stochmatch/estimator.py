"""Monte Carlo estimators for the probabilities the pipeline consumes.

Estimated quantities: per-edge optimum membership (x), oracle-matching
membership on the crucial side (y), its batch-conditional variant (y'),
plan membership (q), and joint alive probabilities of vertex pairs.  Every
estimate carries its binomial standard error; trials are chopped into fixed
blocks with index-derived streams so results do not depend on the worker
count.

Every realization is drawn through :func:`graph_core.sample_masks` and every
plan through :func:`sparsifier.draw_plans`.  For x and y a block's
realizations are drawn as one array and answered by one
:func:`mwm.mm_edge_masks` call, which scans the matching table once per
chunk of distinct masks instead of calling the oracle per mask.  y' is
estimated for a list of (edge, batch reveal) queries at once: each query
draws only the edges its reveal leaves hidden, from its own stream, and one
oracle call answers the draws of all of them.  :class:`MonteCarloConditional`
carries estimated ``y`` and ``y'`` as the variance-bounding run's activation
law, which a block of runs asks once for all its batch reveals, and
:func:`sample_vb_statistics` reruns that run on any such law and counts its
outcomes, mask arrays, with :func:`graph_core.mask_bits`, for
:func:`estimate_pair_alive` and the verifier's checks alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import StochasticGraph, mask_bits, mask_edges, sample_masks
from .mwm import mm_edge_masks
from .parallel import rng_from, run_blocks
from .sparsifier import draw_plans
from .vb_matching import ActivationLaw, draw_run_inputs, run_vb

_TAG_X = 0x01
_TAG_Y = 0x02
_TAG_COND = 0x03
_TAG_PAIR = 0x04
_TAG_Q = 0x05

DEFAULT_TRIALS = 4000  # std_err <= 0.008 for probabilities near 0.5


def binomial_se(freq: float, trials: int) -> float:
    """Plug-in binomial standard error of a frequency observed over ``trials``."""
    return math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)


@dataclass(frozen=True)
class ProbEstimate:
    """A probability estimate with its binomial standard error."""

    value: float
    trials: int
    std_err: float

    @classmethod
    def from_count(cls, count: int, trials: int) -> "ProbEstimate":
        value = count / trials
        return cls(value=value, trials=trials, std_err=binomial_se(value, trials))


# ---------------------------------------------------------------------------
# Oracle-membership counts over sampled realizations


def _mm_counts_block(g: StochasticGraph, keep_mask: int, seed: int, tag: int,
                     block: int, count: int) -> np.ndarray:
    """Per-edge count of realizations whose MM, restricted to ``keep_mask``,
    contains the edge."""
    rng = rng_from(seed, tag, block)
    answers = mm_edge_masks(g, sample_masks(g, rng, count))
    return mask_bits(answers & keep_mask, range(g.m)).sum(axis=0)


def estimate_x(g: StochasticGraph, trials: int = DEFAULT_TRIALS,
               seed: int = 0) -> list[ProbEstimate]:
    """Per-edge frequency of membership in MM(realization)."""
    parts = run_blocks(_mm_counts_block, (g, g.full_mask, seed, _TAG_X), trials)
    counts = sum(parts)
    return [ProbEstimate.from_count(int(c), trials) for c in counts]


def estimate_y(g: StochasticGraph, crucial_mask: int, trials: int = DEFAULT_TRIALS,
               seed: int = 0) -> list[ProbEstimate]:
    """Per-edge frequency of membership in the oracle matching.

    Each trial samples the crucial realization jointly with a hallucinated
    copy of the non-crucial edges (one Bernoulli per edge in total), takes the
    maximum-weight matching and keeps its crucial side.  Entries for
    non-crucial edges are identically zero.
    """
    parts = run_blocks(_mm_counts_block, (g, crucial_mask, seed, _TAG_Y), trials)
    counts = sum(parts)
    return [ProbEstimate.from_count(int(c), trials) for c in counts]


def estimate_y_conditional(
    g: StochasticGraph,
    crucial_mask: int,
    queries: Sequence[tuple[int, int, int]],
    trials: int,
    rngs: Sequence[np.random.Generator],
) -> list[ProbEstimate]:
    """Conditional oracle-matching membership given a batch reveal, for each
    query ``(e, revealed_mask, revealed_bits)``.

    Revealed edges are frozen to their observed states; every other edge is
    resampled independently (hidden crucial edges and the whole hallucinated
    non-crucial copy).  Valid because edges realize independently, so
    conditioning is just freezing the revealed bits.  An empty reveal (first
    arrival) degenerates to the unconditional estimate.  Query ``i`` draws
    its ``trials`` realizations from ``rngs[i]``, and the draws of all
    queries are answered by one :func:`mwm.mm_edge_masks` call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not queries:
        return []
    draws = []
    for (e, revealed_mask, revealed_bits), rng in zip(queries, rngs, strict=True):
        if revealed_mask != 0:
            if not (revealed_mask >> e) & 1:
                raise ValueError("edge is not part of the revealed batch")
            if not (revealed_bits >> e) & 1:
                raise ValueError("activation only considers realized edges")
        hidden = mask_edges(g.full_mask & ~revealed_mask)
        draws.append(sample_masks(g, rng, trials, scope=hidden) | revealed_bits)
    answers = mm_edge_masks(g, np.concatenate(draws)).reshape(len(queries), trials)
    keep = np.array([crucial_mask & (1 << e) for e, _mask, _bits in queries],
                    dtype=answers.dtype)
    counts = (answers & keep[:, None] != 0).sum(axis=1)
    return [ProbEstimate.from_count(int(count), trials) for count in counts]


class MonteCarloConditional:
    """Activation law with given marginals ``y`` (usually from
    :func:`estimate_y`) that estimates y' by conditional resampling.

    Each (edge, batch) query is estimated from its own stream, derived from
    the master seed and the query key, so an estimate does not depend on
    query order or on the other queries asked with it, and a repeated query
    gives the same value.  :meth:`y_primes` answers a list of queries with one
    :func:`estimate_y_conditional` call.  The law keeps no memo of its own:
    the run's activation table (``vb_matching``) asks each batch reveal once.
    Batch clipping downstream is logged by the run itself.
    """

    def __init__(self, g: StochasticGraph, crucial_mask: int, y: np.ndarray,
                 trials: int, seed: int):
        self.graph = g
        self.crucial_mask = crucial_mask
        self.y = y
        self.trials = trials
        self.seed = seed

    def y_primes(self, queries: Sequence[tuple[int, int, int]]) -> list[float]:
        rngs = [rng_from(self.seed, _TAG_COND, *query) for query in queries]
        return [est.value for est in estimate_y_conditional(
            self.graph, self.crucial_mask, queries, self.trials, rngs)]

    def y_prime(self, e: int, batch_mask: int, batch_bits: int) -> float:
        """One query of :meth:`y_primes`."""
        return self.y_primes([(e, batch_mask, batch_bits)])[0]


# ---------------------------------------------------------------------------
# Plan membership and pair-alive estimation


def _q_counts_block(g: StochasticGraph, t: int, seed: int, block: int,
                    count: int) -> np.ndarray:
    rng = rng_from(seed, _TAG_Q, block)
    return mask_bits(draw_plans(g, t, rng, count), range(g.m)).sum(axis=0)


def estimate_q(g: StochasticGraph, t: int, trials: int, seed: int) -> list[ProbEstimate]:
    """Per-edge frequency of plan membership across independent plan draws."""
    parts = run_blocks(_q_counts_block, (g, t, seed), trials)
    counts = sum(parts)
    return [ProbEstimate.from_count(int(c), trials) for c in counts]


def _vb_stats_block(law: ActivationLaw, pairs: tuple, seed: int, tag: int, block: int,
                    count: int):
    rng = rng_from(seed, tag, block)
    g = law.graph
    out = run_vb(law, *draw_run_inputs(law, rng, count))
    alive = mask_bits(out.alive, range(g.n))
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return (mask_bits(out.activated, range(g.m)).sum(axis=0),
            mask_bits(out.matching, range(g.m)).sum(axis=0),
            alive.sum(axis=0),
            (alive[:, ends[:, 0]] & alive[:, ends[:, 1]]).sum(axis=0),
            out.clip_events)


def sample_vb_statistics(law: ActivationLaw, pairs, trials: int, seed: int, tag: int):
    """Outcome counts of ``trials`` variance-bounding runs on ``law``.

    Block ``b`` draws the inputs of its runs from the stream
    ``(seed, tag, b)`` through :func:`vb_matching.draw_run_inputs`, uniform
    arrival orders included, and runs them in one
    :func:`vb_matching.run_vb` call.  Returns the per-edge active and
    matched counts, the per-vertex alive counts, the joint alive count of
    each vertex pair (keyed as given) and the number of clipped batches.
    """
    pairs = tuple(pairs)
    parts = run_blocks(_vb_stats_block, (law, pairs, seed, tag), trials)
    active = sum(p[0] for p in parts)
    selected = sum(p[1] for p in parts)
    alive = sum(p[2] for p in parts)
    pair_counts = sum(p[3] for p in parts)
    clip = sum(p[4] for p in parts)
    return active, selected, alive, dict(zip(pairs, pair_counts)), clip


def estimate_pair_alive(
    law: ActivationLaw,
    pairs: list[tuple[int, int]],
    trials: int,
    seed: int,
) -> dict[tuple[int, int], ProbEstimate]:
    """Joint alive frequency of vertex pairs across independent runs, keyed
    by the pair as ``(min, max)``."""
    norm_pairs = tuple((min(u, v), max(u, v)) for u, v in pairs)
    *_, counts, _clip = sample_vb_statistics(law, norm_pairs, trials, seed, _TAG_PAIR)
    return {pair: ProbEstimate.from_count(int(counts[pair]), trials) for pair in norm_pairs}

