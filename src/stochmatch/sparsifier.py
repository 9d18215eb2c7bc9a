"""Query-plan construction and crucial/non-crucial classification.

A plan is the edge mask of the union of maximum-weight matchings of ``t``
independently sampled realizations, so its max-degree is at most ``t`` by
construction.  Every plan is drawn by :func:`draw_plans` from one
generator, which reads its stream row by row: plans drawn from the same
stream are nested across ``t`` (smaller plans are prefixes of larger ones),
which is what makes paired ``t``-sweeps comparable run by run.

On a graph small enough to enumerate (:func:`exact.enumerable`), a round is
not an oracle call: the drawn masks index :func:`exact.mm_answers`, the
oracle's answer for every realization.  Other graphs answer all the rounds
of a draw with one :func:`mwm.mm_edge_masks` call.  Both give the same rounds
from the same draw, as one array of masks (int64 up to 63 edges, Python ints
past that), and :func:`draw_plans` ORs each plan's rounds in one reduction
over that array.

The runtime check of the plans' membership floors and degree bound is
:func:`verifier.check_crucial_coverage`, beside the other gated checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import enumerable, mm_answers
from .graph_core import StochasticGraph, mask_dtype, mask_edges, sample_masks
from .mwm import mm_edge_masks
from .parallel import BLOCK_LEN



def max_degree(g: StochasticGraph, mask: int) -> int:
    """Largest number of edges of ``mask`` at one vertex."""
    deg = [0] * g.n
    for e in mask_edges(mask):
        u, v = g.endpoints(e)
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def plan_round_masks(g: StochasticGraph, t: int, rng: np.random.Generator) -> np.ndarray:
    """Per-round matching masks of ``t`` realizations drawn from one
    generator, as an array of the dtype :func:`sample_masks` draws.

    The realizations come from one :func:`sample_masks` batch, which reads
    the stream row by row, so for a fixed generator state the first rounds
    of a larger ``t`` are exactly the rounds of a smaller one (nested plans).
    On an enumerable graph the rounds are gathered from :func:`mm_answers`,
    and only masks it lacks (probability product 0.0) go to
    :func:`mm_edge_masks`, which answers every other graph's rounds.
    """
    drawn = sample_masks(g, rng, t)
    if not enumerable(g):
        return mm_edge_masks(g, drawn)
    rounds = mm_answers(g)[drawn]
    missing = rounds < 0
    if missing.any():
        rounds[missing] = mm_edge_masks(g, drawn[missing])
    return rounds


def draw_plans(g: StochasticGraph, t: int, rng: np.random.Generator,
               count: int) -> np.ndarray:
    """Edge masks of ``count`` plans, as an array of :func:`mask_dtype`
    ``(g.m)``.  A plan is the union of ``t`` rounds of
    :func:`plan_round_masks`, and the plans are the same as ``count``
    successive calls with ``count=1`` on ``rng`` give.

    By the prefix-stream property of :func:`plan_round_masks`, ``k`` plans
    can take their rounds from one call for ``k * t`` rounds.  Each call asks
    for at most ``BLOCK_LEN`` rounds (or one plan's ``t`` if that is more),
    and ORs each plan's ``t`` consecutive rounds into its mask.  With
    ``t = 0`` the OR is over no rounds and gives 0, also for ``object``
    arrays: numpy uses a ufunc's identity for an empty object reduction.
    """
    plans = np.zeros(count, dtype=mask_dtype(g.m))
    per_call = max(1, BLOCK_LEN // max(t, 1))
    for start in range(0, count, per_call):
        k = min(per_call, count - start)
        rounds = plan_round_masks(g, k * t, rng).reshape(k, t)
        plans[start:start + k] = np.bitwise_or.reduce(rounds, axis=1)
    return plans


@dataclass(frozen=True)
class EdgeClasses:
    """Threshold split of the edges at ``tau``; ties go to the crucial side."""

    crucial_mask: int
    tau: float
    m: int

    @property
    def noncrucial_mask(self) -> int:
        return ((1 << self.m) - 1) & ~self.crucial_mask

    def crucial(self) -> list[int]:
        return mask_edges(self.crucial_mask)

    def noncrucial(self) -> list[int]:
        return mask_edges(self.noncrucial_mask)


def classify_edges(x_hat: np.ndarray, tau: float) -> EdgeClasses:
    """Crucial iff the estimated optimum-membership probability is >= tau."""
    x_hat = np.asarray(x_hat, dtype=float)
    mask = 0
    for e, value in enumerate(x_hat):
        if value >= tau:
            mask |= 1 << e
    return EdgeClasses(crucial_mask=mask, tau=tau, m=len(x_hat))
