"""Bundled benchmark instances for verification and experiments.

Each gadget is small enough for the enumeration oracles, with edge weights
chosen to avoid accidental maximum-weight ties unless a tie is the point of
the fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import EnumerationTooLarge, MatchingLaw
from .graph_core import Edge, StochasticGraph
from .vb_matching import ExactVBDistribution, exact_vb_enumeration


@dataclass(frozen=True)
class Gadget:
    """An oracle-matching law (which holds the graph and its crucial edges)
    plus the fixed verification inputs that go with it."""

    name: str
    law: MatchingLaw
    t: int = 4
    epsilon: float = 0.2
    tau: float = 0.05
    # pairs whose plan-membership covariance the association check gates
    declared_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def graph(self) -> StochasticGraph:
        return self.law.graph

    @property
    def crucial_mask(self) -> int:
        return self.law.crucial_mask

    @cached_property
    def enumeration(self) -> ExactVBDistribution | None:
        """The run's exact law on this gadget, enumerated on first use, or
        ``None`` when a crucial component is too large to enumerate."""
        try:
            return exact_vb_enumeration(self.law)
        except EnumerationTooLarge:
            return None


def _graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


def _all_crucial(name, graph, **kw) -> Gadget:
    return Gadget(name=name, law=MatchingLaw.from_pipeline(graph, graph.full_mask), **kw)


def single_edge(p: float = 1.0, w: float = 1.0, y: float | None = None) -> Gadget:
    """One crucial edge; ``y`` pins the oracle marginal by hand if given."""
    graph = _graph(2, [(0, 1, w, p)])
    if y is None:
        return _all_crucial("single_edge", graph)
    return Gadget(name=f"single_edge_y{y}", law=MatchingLaw.single_edge(graph, 0, y))


def two_path(p: float = 0.9) -> Gadget:
    """Two crucial edges sharing a vertex; endpoints 0 and 2 are non-adjacent."""
    graph = _graph(3, [(0, 1, 1.0, p), (1, 2, 1.3, p)])
    return _all_crucial("two_path", graph)


def three_path() -> Gadget:
    graph = _graph(4, [(0, 1, 1.0, 0.8), (1, 2, 1.4, 0.7), (2, 3, 1.1, 0.8)])
    return _all_crucial("three_path", graph)


def four_cycle(p: float = 0.7) -> Gadget:
    graph = _graph(4, [(0, 1, 1.0, p), (1, 2, 1.2, p), (2, 3, 1.0, p), (0, 3, 1.2, p)])
    return _all_crucial("four_cycle", graph)


def triangle() -> Gadget:
    graph = _graph(3, [(0, 1, 3.0, 0.6), (1, 2, 2.5, 0.6), (0, 2, 2.0, 0.6)])
    return _all_crucial("triangle", graph)


def two_disjoint_edges(p: float = 0.9) -> Gadget:
    graph = _graph(4, [(0, 1, 1.0, p), (2, 3, 2.0, p)])
    return _all_crucial("two_disjoint_edges", graph)


def isolated_pair() -> Gadget:
    """Two vertices, no edges anywhere: both always alive."""
    graph = _graph(2, [])
    return _all_crucial("isolated_pair", graph)


def star(k: int = 4, p: float = 0.9) -> Gadget:
    edges = [(0, i, 1.0 + 0.01 * i, p) for i in range(1, k + 1)]
    graph = _graph(k + 1, edges)
    return _all_crucial(f"star{k}", graph)


def shared_tie_fixture() -> Gadget:
    """Two equal-weight always-realized edges at one vertex (tie fixture)."""
    graph = _graph(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    return _all_crucial("shared_tie", graph, t=1)


def positive_covariance_control() -> Gadget:
    """Negative control: the two outer path edges enter the optimum together.

    On a path with weights (1, 1.5, 1) and p=0.5 everywhere, the outer edges
    beat the middle edge only jointly, so their plan-membership indicators
    are positively correlated.  They do not share a vertex, hence no
    association guarantee applies; the control declares the pair anyway so
    the gate demonstrably fails.
    """
    graph = _graph(4, [(0, 1, 1.0, 0.5), (1, 2, 1.5, 0.5), (2, 3, 1.0, 0.5)])
    return _all_crucial("positive_covariance_control", graph, t=1,
                        declared_pairs=((0, 2),))


def benchmark_6v8e_graph() -> StochasticGraph:
    """The graph of :func:`benchmark_6v8e`, without its law: building the law
    enumerates every realization."""
    return _graph(6, [
        (0, 1, 2.0, 0.9),
        (0, 2, 1.0, 0.5),
        (1, 2, 1.5, 0.6),
        (1, 3, 1.0, 0.8),
        (2, 4, 2.5, 0.7),
        (3, 4, 1.0, 0.5),
        (3, 5, 2.0, 0.9),
        (4, 5, 1.2, 0.6),
    ])


def benchmark_6v8e() -> Gadget:
    """The 6-vertex / 8-edge experiment benchmark (p_min = 0.5)."""
    return _all_crucial("benchmark_6v8e", benchmark_6v8e_graph(), t=16, epsilon=0.2,
                        tau=0.02)


def relaxed_suite_8v() -> Gadget:
    """Relaxed-parameter 8-vertex suite for the fractional-stage gates.

    Four heavy disjoint edges form the crucial side (in the optimum whenever
    realized); three light bridges are non-crucial with tiny optimum
    probability (realized and both heavy neighbors missing).  Crucial
    components are single edges, so the exact run distribution is available.
    """
    heavy = [(0, 1), (2, 3), (4, 5), (6, 7)]
    light = [(1, 2), (3, 4), (5, 6)]
    edges = [(u, v, 10.0, 0.9) for u, v in heavy] + [(u, v, 1.0, 0.3) for u, v in light]
    graph = _graph(8, edges)
    crucial_mask = (1 << len(heavy)) - 1
    law = MatchingLaw.from_pipeline(graph, crucial_mask)
    return Gadget(name="relaxed_suite_8v", law=law, t=120, epsilon=0.1, tau=0.05)


def var_z_synthetic_x(gadget: Gadget, value: float = 0.05) -> dict[tuple[int, int], float]:
    """A fractional matching on the complement of the crucial graph.

    Matches the relaxed suite: disjoint non-crucial pairs, every value equal
    to the supplied cap.
    """
    g = gadget.graph
    pairs = []
    used: set[int] = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            idx = g.pair_index.get((u, v))
            if idx is not None and (gadget.crucial_mask >> idx) & 1:
                continue
            if u in used or v in used:
                continue
            pairs.append((u, v))
            used.add(u)
            used.add(v)
    return {pair: value for pair in pairs}


def verification_gadgets() -> list[Gadget]:
    """The bundled instances the default verifier suite runs over."""
    return [
        single_edge(y=1.0),
        single_edge(y=0.5),
        single_edge(p=0.7),
        two_path(),
        three_path(),
        four_cycle(),
        triangle(),
        two_disjoint_edges(),
        isolated_pair(),
        benchmark_6v8e(),
        relaxed_suite_8v(),
    ]
