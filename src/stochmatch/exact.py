"""Enumeration oracles for small instances.

Everything here is exact (up to float arithmetic) and independent of the
Monte Carlo paths it is used to check: realization space is enumerated
outright, so these routines are capped at graphs with few edges.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph_core import StochasticGraph
from .mwm import mm_edge_mask

MAX_ENUM_EDGES = 20


class EnumerationTooLarge(ValueError):
    """An instance is past an enumeration cap; callers may fall back to sampling."""


def _check_enum_size(m: int, cap: int = MAX_ENUM_EDGES) -> None:
    if m > cap:
        raise EnumerationTooLarge(f"enumeration limited to {cap} edges, got {m}")


def mask_probability(g: StochasticGraph, mask: int, scope_mask: int | None = None) -> float:
    """Probability that the edges of ``scope_mask`` realize exactly as ``mask``."""
    scope = g.full_mask if scope_mask is None else scope_mask
    prob = 1.0
    for e in range(g.m):
        if not (scope >> e) & 1:
            continue
        p = g.edges[e].p
        prob *= p if (mask >> e) & 1 else 1.0 - p
    return prob


def exact_x(g: StochasticGraph) -> np.ndarray:
    """Exact per-edge probability of appearing in MM(realization)."""
    _check_enum_size(g.m)
    x = np.zeros(g.m)
    for mask in range(1 << g.m):
        prob = mask_probability(g, mask)
        if prob == 0.0:
            continue
        mm = mm_edge_mask(g, mask)
        for e in range(g.m):
            if (mm >> e) & 1:
                x[e] += prob
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
    :attr:`y` and :meth:`y_prime` the law is itself the zero-noise
    ``ActivationLaw`` of the variance-bounding run.
    """

    graph: StochasticGraph
    crucial_mask: int
    real: np.ndarray
    mo: np.ndarray
    prob: np.ndarray
    _cond_cache: dict = field(default_factory=dict, repr=False)

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
        side, and non-crucial bits are marginalized out of the stored law.
        """
        _check_enum_size(g.m)
        acc: dict[tuple[int, int], float] = {}
        for mask in range(1 << g.m):
            prob = mask_probability(g, mask)
            if prob == 0.0:
                continue
            mo = mm_edge_mask(g, mask) & crucial_mask
            key = (mask & crucial_mask, mo)
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
        """Per-edge marginal of the oracle matching (zero off the crucial set)."""
        y = np.zeros(self.graph.m)
        for e in range(self.graph.m):
            if (self.crucial_mask >> e) & 1:
                y[e] = float(self.prob[(self.mo >> e) & 1 == 1].sum())
        y.setflags(write=False)
        return y

    def y_prime(self, e: int, cond_mask: int, cond_bits: int) -> float:
        """Pr[edge in oracle matching | stated bits of the conditioning edges]."""
        key = (e, cond_mask, cond_bits)
        hit = self._cond_cache.get(key)
        if hit is not None:
            return hit
        sel = (self.real & np.int64(cond_mask)) == np.int64(cond_bits)
        denom = float(self.prob[sel].sum())
        if denom <= 0.0:
            raise ValueError("conditioning event has probability zero")
        num = float(self.prob[sel & ((self.mo >> e) & 1 == 1)].sum())
        value = num / denom
        self._cond_cache[key] = value
        return value

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

