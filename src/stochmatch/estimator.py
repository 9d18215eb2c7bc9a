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
estimated per batch reveal ``(batch_mask, batch_bits)``, for every realized
edge of the batch at once, as a count on rows that agree with the reveal.  A
reveal that at least the trial budget of rows of a pool agree with is
counted on those rows: the y stage's realizations and their MM masks, which
:func:`estimate_y` returns with y.  They are drawn apart from the x stage's
rows, which decide the crucial edges, so no y' is counted on the rows that
made its edge crucial.  Every other reveal is counted on the trial budget of
rows of its own, drawn by :func:`estimate_y_conditional` from the reveal's
stream with its revealed bits fixed; one oracle call answers the rows of all
of them.  All the edges of a batch are counted on the same rows, so the y'
of a batch sum to at most 1.  :class:`MonteCarloConditional` carries
estimated ``y`` and a pool as the variance-bounding run's activation law,
which a block of runs asks once for all its new batch reveals, and
:func:`sample_vb_statistics` reruns that run on any such law and counts its
outcomes, mask arrays, with :func:`graph_core.mask_bits`, for
:func:`estimate_pair_alive` and the verifier's checks alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graph_core import StochasticGraph, mask_bits, mask_dtype, mask_edges, sample_masks
from .mwm import SCAN_CELLS, mm_edge_masks
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


def _mm_rows_block(g: StochasticGraph, seed: int, tag: int, block: int, count: int):
    """A block's realizations and the edge mask of each one's MM."""
    reals = sample_masks(g, rng_from(seed, tag, block), count)
    return reals, mm_edge_masks(g, reals)


def _mm_frequencies(g: StochasticGraph, keep_mask: int, parts, trials: int) -> list[ProbEstimate]:
    """Per-edge frequency of rows whose MM, restricted to ``keep_mask``,
    contains the edge, counted block by block."""
    counts = sum(mask_bits(answers & keep_mask, range(g.m)).sum(axis=0)
                 for _reals, answers in parts)
    return [ProbEstimate.from_count(int(c), trials) for c in counts]


def estimate_x(g: StochasticGraph, trials: int = DEFAULT_TRIALS,
               seed: int = 0) -> list[ProbEstimate]:
    """Per-edge frequency of membership in MM(realization)."""
    parts = run_blocks(_mm_rows_block, (g, seed, _TAG_X), trials)
    return _mm_frequencies(g, g.full_mask, parts, trials)


def estimate_y(g: StochasticGraph, crucial_mask: int, trials: int = DEFAULT_TRIALS,
               seed: int = 0) -> tuple[list[ProbEstimate], tuple[np.ndarray, np.ndarray]]:
    """Per-edge frequency of membership in the oracle matching, and the rows
    it was counted on.

    Each trial samples the crucial realization jointly with a hallucinated
    copy of the non-crucial edges (one Bernoulli per edge in total), takes the
    maximum-weight matching and keeps its crucial side.  Entries for
    non-crucial edges are identically zero.  The rows are ``(reals,
    answers)``: each trial's realization and the edge mask of its whole MM,
    concatenated in block order, which :class:`MonteCarloConditional` keeps
    as its pool (:meth:`RowPool.from_rows`).
    """
    parts = run_blocks(_mm_rows_block, (g, seed, _TAG_Y), trials)
    rows = tuple(np.concatenate(column) for column in zip(*parts))
    return _mm_frequencies(g, crucial_mask, parts, trials), rows


class RowPool(NamedTuple):
    """Rows drawn from the edge law, as the y' lookup reads them: ``words``
    holds each realization as a row of 63-bit int64 words (one word up to 63
    edges), and ``held[e, i]`` says whether row ``i``'s MM holds edge ``e`` on
    the crucial side."""

    words: np.ndarray
    held: np.ndarray

    @classmethod
    def from_rows(cls, g: StochasticGraph, crucial_mask: int,
                  rows: tuple[np.ndarray, np.ndarray]) -> "RowPool":
        """The pool of rows ``(reals, answers)``, as :func:`estimate_y`
        returns them."""
        reals, answers = rows
        return cls(_mask_words(reals, g.m),
                   mask_bits(answers & crucial_mask, range(g.m)).T.astype(bool))


def estimate_y_conditional(g: StochasticGraph, crucial_mask: int,
                           reveals: Sequence[tuple[int, int]], trials: int,
                           seed: int) -> list[tuple[np.ndarray, int]]:
    """``(counts, trials)`` of each batch reveal ``(batch_mask, batch_bits)``,
    as :func:`_pooled_counts` gives them, counted on ``trials`` rows of its
    own: realizations with the revealed bits fixed and every other edge drawn
    (hidden crucial edges and the whole hallucinated non-crucial copy) from
    the stream ``rng_from(seed, _TAG_COND, batch_mask, batch_bits)``.

    Edges realize independently, so the rows follow the conditional law
    given the reveal; an empty reveal (first arrival) gives the unconditional
    one.  One :func:`mwm.mm_edge_masks` call answers the rows of all the
    reveals, and each reveal's counts sum to at most ``trials``, as on the
    pool.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not reveals:
        return []
    draws = []
    for batch_mask, batch_bits in reveals:
        if batch_bits & ~batch_mask:
            raise ValueError("revealed bits must lie in the batch mask")
        hidden = mask_edges(g.full_mask & ~batch_mask)
        rng = rng_from(seed, _TAG_COND, batch_mask, batch_bits)
        draws.append(sample_masks(g, rng, trials, scope=hidden) | batch_bits)
    answers = mm_edge_masks(g, np.concatenate(draws)).reshape(len(reveals), trials)
    counted = []
    for rows, reveal in zip(answers & crucial_mask, reveals):
        counts = mask_bits(rows, mask_edges(reveal[1])).sum(axis=0)
        assert counts.sum() <= trials, reveal
        counted.append((counts, trials))
    return counted


def _mask_words(masks: np.ndarray, width: int) -> np.ndarray:
    """Each mask of an array over ``width`` bits as a row of 63-bit int64
    words: the mask itself up to 63 bits."""
    if masks.dtype != object:
        return masks.reshape(-1, 1)
    low = (1 << 63) - 1
    shifts = range(0, width, 63)
    return np.array([[mask >> s & low for s in shifts] for mask in masks.tolist()],
                    dtype=np.int64).reshape(-1, len(shifts))


def _pooled_counts(g: StochasticGraph, reveals: Sequence[tuple[int, int]], pool: RowPool,
                   min_rows: int) -> dict[tuple[int, int], tuple[np.ndarray, int]]:
    """``(counts, rows)`` of each batch reveal ``(batch_mask, batch_bits)``
    that at least ``min_rows`` pool rows agree with (``R & batch_mask ==
    batch_bits``), keyed by the reveal: ``counts[i]`` of those ``rows`` rows
    have the ``i``-th realized edge of the batch, in edge order, in the
    crucial part of their MM.

    A matching holds at most one edge at a vertex, and the realized edges of
    a batch all meet its arriving vertex, so each reveal's counts sum to at
    most ``rows``: no batch can clip.  The agreement of every reveal
    with every row is computed in chunks of at most ``mwm.SCAN_CELLS``
    reveal-row cells.
    """
    dtype = mask_dtype(g.m)
    masks = _mask_words(np.array([mask for mask, _bits in reveals], dtype=dtype), g.m)
    bits = _mask_words(np.array([bits for _mask, bits in reveals], dtype=dtype), g.m)
    pooled = {}
    per_chunk = max(1, SCAN_CELLS // max(1, pool.words.size))
    for lo in range(0, len(reveals), per_chunk):
        hi = lo + per_chunk
        agree = ((pool.words & masks[lo:hi, None]) == bits[lo:hi, None]).all(axis=2)
        rows = agree.sum(axis=1)
        thick = np.flatnonzero(rows >= min_rows)
        edges = [mask_edges(reveals[lo + j][1]) for j in thick.tolist()]
        sizes = [len(es) for es in edges]
        counts = (agree[np.repeat(thick, sizes)]
                  & pool.held[[e for es in edges for e in es]]).sum(axis=1)
        for j, count in zip(thick, np.split(counts, np.cumsum(sizes)[:-1])):
            assert count.sum() <= rows[j], reveals[lo + j]
            pooled[reveals[lo + j]] = count, int(rows[j])
    return pooled


class MonteCarloConditional:
    """Activation law with given marginals ``y`` (usually from
    :func:`estimate_y`) that estimates y' from a pool of rows, resampling
    the reveals the pool is thin on.

    The pool is built from rows ``(reals, answers)``: realizations drawn
    from the edge law and their MM masks, as :func:`estimate_y` returns them.
    The law keeps it as a :class:`RowPool`, built once.  :meth:`y_primes`
    answers a list of distinct batch reveals ``(batch_mask, batch_bits)``
    with the y' of each realized edge of each batch, in edge order: the
    share of a reveal's rows whose crucial MM holds the edge.  A reveal that
    at least ``trials`` pool rows agree with is counted on those rows
    (:func:`_pooled_counts`); every other reveal on ``trials`` rows of its
    own, drawn given the reveal from the stream ``rng_from(seed, _TAG_COND,
    batch_mask, batch_bits)`` (:func:`estimate_y_conditional`, one call per
    request), so an estimate does not depend on the order of the reveals or
    on the other reveals asked with it, and a repeated reveal gets the same
    values.  An empty pool resamples every reveal.  Either way every edge of
    a batch is counted on the same rows, and a matching holds at most one of
    them, so a batch sums to at most 1 and never clips.  Each call adds its
    reveals to ``pooled_reveals`` or ``resampled_reveals``; these count the
    calls made in this process, not in worker processes.  The law keeps no
    memo of its own: the run's activation table (``vb_matching``) asks each
    batch reveal once.
    """

    def __init__(self, g: StochasticGraph, crucial_mask: int, y: np.ndarray,
                 trials: int, seed: int, rows: tuple[np.ndarray, np.ndarray]):
        self.graph = g
        self.crucial_mask = crucial_mask
        self.y = y
        self.trials = trials
        self.seed = seed
        self.pool = RowPool.from_rows(g, crucial_mask, rows)
        self.pooled_reveals = 0
        self.resampled_reveals = 0

    def y_primes(self, reveals: Sequence[tuple[int, int]]) -> list[list[float]]:
        counted = _pooled_counts(self.graph, reveals, self.pool, self.trials)
        thin = [reveal for reveal in reveals if reveal not in counted]
        self.pooled_reveals += len(counted)
        self.resampled_reveals += len(thin)
        counted.update(zip(thin, estimate_y_conditional(
            self.graph, self.crucial_mask, thin, self.trials, self.seed)))
        return [np.divide(*counted[reveal]).tolist() for reveal in reveals]


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

