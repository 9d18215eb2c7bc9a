import numpy as np
import pytest

from stochmatch.exact import (
    EnumerationTooLarge,
    MatchingLaw,
    exact_x,
    prob_in_plan,
)
from stochmatch.gadgets import three_path, two_path
from stochmatch.graph_core import Edge, StochasticGraph, gen_random_graph


def graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


def test_exact_x_single_edge_is_p():
    g = graph(2, [(0, 1, 1.0, 0.3)])
    assert exact_x(g)[0] == pytest.approx(0.3, abs=1e-15)


def test_exact_x_shared_vertex_sums_to_one():
    # equal weights, always realized: exactly one of the two is in the optimum
    g = graph(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    x = exact_x(g)
    assert x.sum() == pytest.approx(1.0, abs=1e-15)


def test_prob_in_plan_closed_form():
    assert prob_in_plan(0.4, 5) == pytest.approx(1 - 0.6**5)
    np.testing.assert_allclose(prob_in_plan(np.array([0.0, 1.0]), 3), [0.0, 1.0])


def test_pipeline_law_marginals_match_x_when_all_crucial():
    gadget = two_path()
    g = gadget.graph
    law = MatchingLaw.from_pipeline(g, g.full_mask)
    law.validate_realization_marginals()
    np.testing.assert_allclose(law.y, exact_x(g), atol=1e-12)


def test_pipeline_law_vertex_loads_below_one():
    # Pr[v matched by the oracle matching] = sum of y over v's edges
    gadget = three_path()
    g = gadget.graph
    loads = np.zeros(g.n)
    for e, (u, v, _w, _p) in enumerate(g.edges):
        loads[u] += gadget.law.y[e]
        loads[v] += gadget.law.y[e]
    assert np.all(loads <= 1.0 + 1e-12)


def test_law_tower_property_exact():
    # averaging the conditional over batch realizations recovers the marginal
    gadget = three_path()
    g = gadget.graph
    law = gadget.law
    y = law.y
    for e in range(g.m):
        batch_mask = 1 << e  # condition on just this edge's bit
        p = g.edges[e].p
        total = p * law.y_prime(e, batch_mask, 1 << e)
        # the unrealized branch contributes zero membership
        assert total == pytest.approx(y[e], abs=1e-12)


def test_law_conditional_of_unrealized_edge_is_zero():
    gadget = two_path()
    law = gadget.law
    assert law.y_prime(0, 0b01, 0b00) == 0.0


def test_law_conditioning_on_null_event_raises():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    law = MatchingLaw.from_pipeline(g, 1)
    with pytest.raises(ValueError):
        law.y_prime(0, 0b1, 0b0)  # p=1 edge can never be unrealized


def test_single_edge_law_pins_marginal():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    law = MatchingLaw.single_edge(g, 0, 0.37)
    assert law.y[0] == pytest.approx(0.37)
    assert law.y_prime(0, 1, 1) == pytest.approx(0.37)
    with pytest.raises(ValueError):
        MatchingLaw.single_edge(graph(2, [(0, 1, 1.0, 0.5)]), 0, 0.9)


def test_law_rejects_inconsistent_entries():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    with pytest.raises(ValueError):
        MatchingLaw.from_entries(g, 1, [(0.5, 1, 1)])  # mass 0.5 only
    with pytest.raises(ValueError):
        MatchingLaw.from_entries(g, 1, [(1.0, 0, 1)])  # matched but unrealized


def test_law_is_its_own_conditional_estimator():
    gadget = two_path()  # edge 1 (w=1.3) beats edge 0 (w=1.0) at vertex 1
    assert gadget.law.y is gadget.law.y  # the marginals are computed once
    assert gadget.law.y_prime(0, 0b11, 0b11) == 0.0
    assert gadget.law.y_prime(1, 0b11, 0b11) == 1.0
    assert gadget.law.y_prime(1, 0b01, 0b00) == pytest.approx(0.9)


def test_law_rejects_crucial_mask_outside_graph():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    for mask in (0b10, 0b11, -1):
        with pytest.raises(ValueError, match="outside the graph"):
            MatchingLaw.from_entries(g, mask, [(1.0, 0, 0)])


def test_noncrucial_marginalized_out():
    # one crucial and one non-crucial edge sharing a vertex: the law's
    # realization masks must only touch the crucial bit
    g = graph(3, [(0, 1, 2.0, 0.8), (1, 2, 1.0, 0.5)])
    law = MatchingLaw.from_pipeline(g, 0b01)
    assert np.all((law.real & ~np.int64(0b01)) == 0)
    law.validate_realization_marginals()
    # crucial edge beats the light one whenever realized
    assert law.y[0] == pytest.approx(0.8, abs=1e-12)


def test_enumeration_cap_raises_typed_error():
    g = gen_random_graph(8, 0.8, {"name": "constant", "value": 1.0},
                         {"name": "constant", "value": 0.5}, seed=1)
    assert g.m > 20
    with pytest.raises(EnumerationTooLarge):
        exact_x(g)
    with pytest.raises(EnumerationTooLarge):
        MatchingLaw.from_pipeline(g, g.full_mask)
