"""Enumeration oracles for small instances.

Everything here is exact (up to float arithmetic) and independent of the
Monte Carlo paths it is used to check: realization space is enumerated
outright.  A graph is small enough to enumerate when :func:`enumerable`
says so, i.e. it has at most ``ENUM_MAX_EDGES`` edges; the same rule picks
exact or sampled inputs everywhere in the package, and past it the
enumerators raise :class:`EnumerationTooLarge`.  A graph's realizations,
with their probabilities and oracle matchings, are enumerated once
(:func:`realizations`) and read by :func:`exact_x`,
:meth:`MatchingLaw.from_pipeline` and :func:`mm_answers`, the array that
answers plan rounds without a call per round.  The crucial-component caps of
``vb_matching.exact_vb_enumeration`` bound a different enumeration, that of
the variance-bounding run.

The central object is :class:`MatchingLaw`, the joint distribution of
(realization of the crucial edges, oracle matching on those realized edges).
The oracle matching is the maximum-weight matching of the realized crucial
edges together with an independently hallucinated copy of the non-crucial
edges, restricted back to the crucial side; its per-edge marginals supply the
``y`` values of the activation process and its conditionals supply ``y'``.
Hand-built laws (e.g. a single edge kept with an arbitrary target marginal)
are also supported so gadget tests can pin ``y`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph_core import StochasticGraph, mask_edges
from .mwm import mm_edge_masks

# Largest edge count that is enumerated; every realization mask of such a
# graph fits in the oracle memo (``mwm.MM_CACHE_MAX`` = 2^16 entries).
ENUM_MAX_EDGES = 16


class EnumerationTooLarge(ValueError):
    """An instance is past an enumeration cap; callers may fall back to sampling."""


def enumerable(g: StochasticGraph) -> bool:
    """Whether ``g`` is small enough for the realization enumeration."""
    return g.m <= ENUM_MAX_EDGES


def realizations(g: StochasticGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(masks, probs, mm)`` of every realization of positive probability.

    Rows come in mask order: the realization mask, its probability (the
    product of ``p`` or ``1 - p`` over the edges, multiplied in edge order)
    and the edge mask of its maximum-weight matching.  The oracle answers
    every row in one :func:`mwm.mm_edge_masks` call and is never asked about
    a zero-probability mask.  Computed once per graph and cached; past
    ``ENUM_MAX_EDGES`` edges it raises :class:`EnumerationTooLarge`.  The MM
    column also answers plan rounds, through :func:`mm_answers`.
    """
    if not enumerable(g):
        raise EnumerationTooLarge(f"enumeration limited to {ENUM_MAX_EDGES} edges, got {g.m}")
    if "realizations" not in g._caches:
        masks = np.arange(1 << g.m, dtype=np.int64)
        probs = np.ones(1 << g.m)
        for e, edge in enumerate(g.edges):
            probs *= np.where((masks >> e) & 1 == 1, edge.p, 1.0 - edge.p)
        keep = probs != 0.0
        masks, probs = masks[keep], probs[keep]
        mm = mm_edge_masks(g, masks)
        for rows in (masks, probs, mm):
            rows.setflags(write=False)
        g._caches["realizations"] = (masks, probs, mm)
    return g._caches["realizations"]


def mm_answers(g: StochasticGraph) -> np.ndarray:
    """The oracle's answer for every realization mask, as one int64 array.

    ``answers[mask]`` is the maximum-weight matching's edge mask, taken from
    the MM column of :func:`realizations`, and -1 for a mask it skipped.  A
    skipped mask has probability product 0.0, which may be underflow rather
    than impossibility, so a caller that draws one asks the oracle for it.
    Cached beside the realizations; same edge cap.
    """
    if "mm_answers" not in g._caches:
        masks, _probs, mm = realizations(g)
        answers = np.full(1 << g.m, -1, dtype=np.int64)
        answers[masks] = mm
        answers.setflags(write=False)
        g._caches["mm_answers"] = answers
    return g._caches["mm_answers"]


def exact_x(g: StochasticGraph) -> np.ndarray:
    """Exact per-edge probability of appearing in MM(realization)."""
    _masks, probs, mm = realizations(g)
    x = np.zeros(g.m)
    for e in range(g.m):
        hit = probs[(mm >> e) & 1 == 1]
        if hit.size:
            x[e] = np.add.accumulate(hit)[-1]  # in mask order, not pairwise
    return x


def prob_in_plan(x: np.ndarray | float, t: int):
    """Closed form Pr[edge joins the plan] = 1 - (1 - x)^t (iid rounds)."""
    return 1.0 - (1.0 - np.asarray(x, dtype=float)) ** t


@dataclass
class MatchingLaw:
    """Joint law of (crucial-edge realization, oracle matching).

    Entries are parallel arrays: ``real[k]`` is a bitmask over the graph's
    edge indices restricted to the crucial edges, ``mo[k]`` the matching drawn
    together with that realization, ``prob[k]`` its probability.  Through
    :attr:`y` and :meth:`y_primes` the law is itself the zero-noise
    ``ActivationLaw`` of the variance-bounding run.
    """

    graph: StochasticGraph
    crucial_mask: int
    real: np.ndarray
    mo: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        if self.crucial_mask < 0 or self.crucial_mask >> self.graph.m:
            raise ValueError("crucial mask indexes edges outside the graph")
        if abs(float(self.prob.sum()) - 1.0) > 1e-9:
            raise ValueError("law probabilities must sum to 1")
        if np.any((self.mo & ~self.real) != 0):
            raise ValueError("oracle matching contains unrealized edges")
        if np.any((self.real & ~np.int64(self.crucial_mask)) != 0):
            raise ValueError("law realizations touch non-crucial edges")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pipeline(cls, g: StochasticGraph, crucial_mask: int) -> "MatchingLaw":
        """Enumerate the oracle-matching law of the real pipeline.

        Every edge contributes one Bernoulli bit: crucial bits stand for the
        true realization, non-crucial bits for the hallucinated copy.  The
        oracle matching is MM over all sampled edges, cut down to the crucial
        side, and non-crucial bits are marginalized out of the stored law by
        summing the rows of :func:`realizations` in mask order.
        """
        masks, probs, mm = realizations(g)
        acc: dict[tuple[int, int], float] = {}
        for key, prob in zip(zip((masks & crucial_mask).tolist(), (mm & crucial_mask).tolist()),
                             probs.tolist()):
            acc[key] = acc.get(key, 0.0) + prob
        items = sorted(acc.items())
        return cls(
            graph=g,
            crucial_mask=crucial_mask,
            real=np.array([k[0] for k, _ in items], dtype=np.int64),
            mo=np.array([k[1] for k, _ in items], dtype=np.int64),
            prob=np.array([p for _, p in items], dtype=float),
        )

    @classmethod
    def from_entries(cls, g: StochasticGraph, crucial_mask: int,
                     entries: list[tuple[float, int, int]]) -> "MatchingLaw":
        """Hand-built law from (probability, realization mask, matching mask)."""
        entries = sorted(entries, key=lambda it: (it[1], it[2]))
        return cls(
            graph=g,
            crucial_mask=crucial_mask,
            real=np.array([r for _, r, _ in entries], dtype=np.int64),
            mo=np.array([mo for _, _, mo in entries], dtype=np.int64),
            prob=np.array([p for p, _, _ in entries], dtype=float),
        )

    @classmethod
    def single_edge(cls, g: StochasticGraph, edge: int, y: float) -> "MatchingLaw":
        """Law for one crucial edge kept with marginal exactly ``y``."""
        p = g.edges[edge].p
        if not (0.0 <= y <= p + 1e-12):
            raise ValueError("target marginal cannot exceed the edge probability")
        bit = 1 << edge
        entries = []
        if y > 0:
            entries.append((y, bit, bit))
        if p - y > 1e-15:
            entries.append((p - y, bit, 0))
        if 1.0 - p > 1e-15:
            entries.append((1.0 - p, 0, 0))
        return cls.from_entries(g, bit, entries)

    # -- queries ------------------------------------------------------------

    @cached_property
    def y(self) -> np.ndarray:
        """Per-edge marginal of the oracle matching (zero off the crucial set),
        capped at 1: the float sum can pass it for an edge every row holds."""
        y = np.zeros(self.graph.m)
        for e in range(self.graph.m):
            if (self.crucial_mask >> e) & 1:
                y[e] = min(float(self.prob[(self.mo >> e) & 1 == 1].sum()), 1.0)
        y.setflags(write=False)
        return y

    def y_prime(self, e: int, cond_mask: int, cond_bits: int) -> float:
        """Pr[edge in oracle matching | stated bits of the conditioning edges]."""
        sel = (self.real & np.int64(cond_mask)) == np.int64(cond_bits)
        denom = float(self.prob[sel].sum())
        if denom <= 0.0:
            raise ValueError("conditioning event has probability zero")
        num = float(self.prob[sel & ((self.mo >> e) & 1 == 1)].sum())
        return num / denom

    def y_primes(self, reveals) -> list[list[float]]:
        """:meth:`y_prime` of each realized edge (each set bit of
        ``cond_bits``) of each reveal ``(cond_mask, cond_bits)``, in edge
        order."""
        return [[self.y_prime(e, mask, bits) for e in mask_edges(bits)]
                for mask, bits in reveals]

    def validate_realization_marginals(self, tol: float = 1e-9) -> None:
        """Crucial bits must be independent Bernoulli(p) under the law."""
        for e in range(self.graph.m):
            if not (self.crucial_mask >> e) & 1:
                continue
            marginal = float(self.prob[(self.real >> e) & 1 == 1].sum())
            if abs(marginal - self.graph.edges[e].p) > tol:
                raise ValueError(
                    f"edge {e}: realization marginal {marginal} != p={self.graph.edges[e].p}"
                )

