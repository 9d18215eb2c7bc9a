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
estimated for a list of (edge, batch reveal) queries at once.  A reveal
that at least the trial budget of rows of a pool agree with is counted on
those rows: the y stage's realizations and their MM masks, which
:func:`estimate_y` returns with y.  They are drawn apart from the x stage's
rows, which decide the crucial edges, so no y' is counted on the rows that
made its edge crucial.  Each other query draws only the edges its reveal
leaves hidden, from its own stream, and one oracle call answers the draws
of all of them.  :class:`MonteCarloConditional` carries
estimated ``y`` and a pool as the variance-bounding run's activation law,
which a block of runs asks once for all its batch reveals, and
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


def estimate_y_conditional(
    g: StochasticGraph,
    crucial_mask: int,
    queries: Sequence[tuple[int, int, int]],
    trials: int,
    rngs: Sequence[np.random.Generator],
    pool: RowPool | None = None,
) -> list[ProbEstimate]:
    """Conditional oracle-matching membership given a batch reveal, for each
    query ``(e, revealed_mask, revealed_bits)``.

    Revealed edges are frozen to their observed states; every other edge is
    resampled independently (hidden crucial edges and the whole hallucinated
    non-crucial copy).  Valid because edges realize independently, so
    conditioning is just freezing the revealed bits.  An empty reveal (first
    arrival) degenerates to the unconditional estimate.

    ``pool`` holds rows drawn from the edge law (:class:`RowPool`, built with
    the same ``crucial_mask``).  A reveal that at least ``trials`` pool rows
    agree with (``R & revealed_mask == revealed_bits``) is answered from those
    rows: the estimate is the share of them whose MM holds ``e`` on the
    crucial side.  Every other query draws its ``trials`` realizations from
    ``rngs[i]``, which is read only for those queries, and the draws of all
    of them are answered by one :func:`mwm.mm_edge_masks` call.  Without a
    pool every query is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(rngs) != len(queries):
        raise ValueError("one stream per query is required")
    if not queries:
        return []
    for e, revealed_mask, revealed_bits in queries:
        if revealed_mask != 0:
            if not (revealed_mask >> e) & 1:
                raise ValueError("edge is not part of the revealed batch")
            if not (revealed_bits >> e) & 1:
                raise ValueError("activation only considers realized edges")
    estimates: list[ProbEstimate | None] = [None] * len(queries)
    if pool is not None:
        for i, count, rows in _pooled_counts(g, queries, pool, trials):
            estimates[i] = ProbEstimate.from_count(count, rows)
    drawn = [i for i, est in enumerate(estimates) if est is None]
    if drawn:
        draws = []
        for i in drawn:
            _e, revealed_mask, revealed_bits = queries[i]
            hidden = mask_edges(g.full_mask & ~revealed_mask)
            draws.append(sample_masks(g, rngs[i], trials, scope=hidden) | revealed_bits)
        answers = mm_edge_masks(g, np.concatenate(draws)).reshape(len(drawn), trials)
        keep = np.array([crucial_mask & (1 << queries[i][0]) for i in drawn],
                        dtype=answers.dtype)
        counts = (answers & keep[:, None] != 0).sum(axis=1)
        for i, count in zip(drawn, counts.tolist()):
            estimates[i] = ProbEstimate.from_count(count, trials)
    return estimates


def _mask_words(masks: np.ndarray, width: int) -> np.ndarray:
    """Each mask of an array over ``width`` bits as a row of 63-bit int64
    words: the mask itself up to 63 bits."""
    if masks.dtype != object:
        return masks.reshape(-1, 1)
    low = (1 << 63) - 1
    shifts = range(0, width, 63)
    return np.array([[mask >> s & low for s in shifts] for mask in masks.tolist()],
                    dtype=np.int64).reshape(-1, len(shifts))


def _pooled_counts(g: StochasticGraph, queries, pool: RowPool, min_rows: int):
    """``(i, count, rows)`` for each query ``i`` whose reveal at least
    ``min_rows`` pool rows agree with: ``count`` of those ``rows`` rows have
    the query's edge in the crucial part of their MM.

    The agreement of every distinct reveal with every row is computed in
    chunks of at most ``mwm.SCAN_CELLS`` reveal-row cells.
    """
    reveals: dict[tuple[int, int], int] = {}
    reveal_of = np.array([reveals.setdefault((mask, bits), len(reveals))
                          for _e, mask, bits in queries])
    edge_of = np.array([e for e, _mask, _bits in queries])
    dtype = mask_dtype(g.m)
    masks = _mask_words(np.array([mask for mask, _bits in reveals], dtype=dtype), g.m)
    bits = _mask_words(np.array([bits for _mask, bits in reveals], dtype=dtype), g.m)
    rows = np.zeros(len(reveals), dtype=np.int64)
    counts = np.zeros(len(queries), dtype=np.int64)
    per_chunk = max(1, SCAN_CELLS // max(1, pool.words.size))
    for lo in range(0, len(reveals), per_chunk):
        hi = lo + per_chunk
        agree = ((pool.words & masks[lo:hi, None]) == bits[lo:hi, None]).all(axis=2)
        rows[lo:hi] = agree.sum(axis=1)
        chunk = np.flatnonzero((reveal_of >= lo) & (reveal_of < hi))
        counts[chunk] = (agree[reveal_of[chunk] - lo] & pool.held[edge_of[chunk]]).sum(axis=1)
    pooled = [(i, count, int(rows[j])) for i, (j, count) in
              enumerate(zip(reveal_of.tolist(), counts.tolist())) if rows[j] >= min_rows]
    _assert_batches_fit(g, queries, pooled)
    return pooled


def _assert_batches_fit(g: StochasticGraph, queries, pooled) -> None:
    """A matching holds at most one edge at a vertex, so on the rows of one
    pooled reveal the conditionals of edges sharing a vertex sum to at most
    1, and a batch (every edge meets the arriving vertex) cannot clip."""
    batches: dict[tuple[int, int, int], dict[int, int]] = {}
    for i, count, rows in pooled:
        e, mask, bits = queries[i]
        batches.setdefault((mask, bits, rows), {})[e] = count
    for (mask, bits, rows), counts in batches.items():
        if set.intersection(*(set(g.endpoints(e)) for e in counts)):
            assert sum(counts.values()) <= rows, (mask, bits)


class _Streams:
    """``rng_from(seed, _TAG_COND, *queries[i])`` for each query, built when
    read; ``built`` holds the indices read."""

    def __init__(self, seed: int, queries: Sequence[tuple[int, int, int]]):
        self.seed = seed
        self.queries = queries
        self.built: set[int] = set()

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, i: int) -> np.random.Generator:
        self.built.add(i)
        return rng_from(self.seed, _TAG_COND, *self.queries[i])


class MonteCarloConditional:
    """Activation law with given marginals ``y`` (usually from
    :func:`estimate_y`) that estimates y' from a pool of rows, resampling
    the reveals the pool is thin on.

    The pool is built from rows ``(reals, answers)``: realizations drawn
    from the edge law and their MM masks, as :func:`estimate_y` returns them.
    The law keeps it as a :class:`RowPool`, built once.  A batch reveal that
    at least ``trials`` pool rows agree with gets y' as the share of those
    rows whose crucial MM holds the edge; every edge of the reveal is counted
    on the same rows, and a matching holds at most one of them, so a pooled
    batch sums to at most 1 and never clips.  A reveal with fewer rows is resampled at ``trials`` draws per
    (edge, batch) query, each from its own stream, derived from the master
    seed and the query key, so an estimate does not depend on query order or
    on the other queries asked with it, and a repeated query gives the same
    value.  The default, no pool, resamples every reveal.  :meth:`y_primes`
    answers a list of queries with one :func:`estimate_y_conditional` call
    and adds its distinct reveals to ``pooled_reveals`` or
    ``resampled_reveals``; these count the calls made in this process, not in
    worker processes.  The law keeps no memo of its own: the run's activation
    table (``vb_matching``) asks each batch reveal once.  Batch clipping
    downstream is logged by the run itself.
    """

    def __init__(self, g: StochasticGraph, crucial_mask: int, y: np.ndarray,
                 trials: int, seed: int, rows: tuple[np.ndarray, np.ndarray] | None = None):
        self.graph = g
        self.crucial_mask = crucial_mask
        self.y = y
        self.trials = trials
        self.seed = seed
        self.pool = None if rows is None else RowPool.from_rows(g, crucial_mask, rows)
        self.pooled_reveals = 0
        self.resampled_reveals = 0

    def y_primes(self, queries: Sequence[tuple[int, int, int]]) -> list[float]:
        streams = _Streams(self.seed, queries)
        estimates = estimate_y_conditional(self.graph, self.crucial_mask, queries,
                                           self.trials, streams, self.pool)
        resampled = {queries[i][1:] for i in streams.built}
        self.resampled_reveals += len(resampled)
        self.pooled_reveals += len({query[1:] for query in queries}) - len(resampled)
        return [est.value for est in estimates]

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

