import json
import sys
from collections import Counter

import numpy as np
import pytest

from stochmatch import augmenter, cli, exact, mwm
from stochmatch.exact import (
    EnumerationTooLarge,
    MatchingLaw,
    exact_x,
    prob_in_plan,
    realizations,
)
from stochmatch.gadgets import shared_tie_fixture, three_path, two_path, verification_gadgets
from stochmatch.graph_core import Edge, Params, StochasticGraph
from stochmatch.mwm import mm_edge_mask
from stochmatch.parallel import rng_from
from stochmatch.sparsifier import classify_edges
from stochmatch.vb_matching import draw_run_inputs, run_vb


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


def test_matching_law_marginals_are_at_most_one():
    # edge 12 (p = 1, weight 3) is in the oracle matching of every row; the
    # law's rows summed to 1 + 4e-16 for it, which the run rejected as a
    # marginal outside [0, 1]
    g = graph(8, [(0, 4, 2.0, 1.0), (0, 5, 3.0, 0.7), (1, 2, 3.0, 1.0), (1, 5, 3.0, 0.7),
                  (1, 6, 2.0, 0.7), (1, 7, 2.0, 0.7), (2, 4, 3.0, 0.3), (2, 5, 2.0, 0.7),
                  (2, 6, 3.0, 1.0), (2, 7, 3.0, 0.7), (3, 4, 1.0, 0.3), (3, 6, 1.0, 0.7),
                  (3, 7, 3.0, 1.0), (4, 5, 3.0, 1.0), (5, 7, 1.0, 0.3), (6, 7, 2.0, 1.0)])
    crucial_mask = classify_edges(exact_x(g), 0.137).crucial_mask
    law = MatchingLaw.from_pipeline(g, crucial_mask)
    assert float(law.prob[(law.mo >> 12) & 1 == 1].sum()) > 1.0
    assert law.y[12] == 1.0 and law.y.max() <= 1.0
    assert len(run_vb(law, *draw_run_inputs(law, rng_from(0), 20)).matching) == 20


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


def generated(n, seed):
    """The graph ``stochmatch run`` builds from a generator source at density 0.5."""
    return cli.load_graph(cli.ExperimentConfig(
        graph={"generator": {"n": n, "density": 0.5, "seed": seed}}))


def test_enumeration_cap_raises_typed_error(tmp_path):
    g = generated(8, 1)
    assert g.m == exact.ENUM_MAX_EDGES + 1 == 17
    with pytest.raises(EnumerationTooLarge, match="limited to 16 edges, got 17"):
        exact_x(g)
    with pytest.raises(EnumerationTooLarge, match="limited to 16 edges, got 17"):
        MatchingLaw.from_pipeline(g, g.full_mask)
    out = tmp_path / "out"
    config = {"graph": {"generator": {"n": 8, "density": 0.5, "seed": 1}},
              "tables": "exact", "trials": 5, "t": [1], "out": str(out)}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    with pytest.raises(EnumerationTooLarge, match="limited to 16 edges, got 17"):
        cli.main(["--config", str(tmp_path / "cfg.json"), "run"])
    assert not out.exists()


# ---------------------------------------------------------------------------
# The one realization enumeration against one pass per mask, as it was written


def reference_enumeration(g, crucial_masks):
    """``exact_x``, and the ``from_pipeline`` entries for each crucial mask,
    by a loop over every mask, each mask's probability multiplied edge by
    edge."""
    x = np.zeros(g.m)
    accs = {crucial_mask: {} for crucial_mask in crucial_masks}
    for mask in range(1 << g.m):
        prob = 1.0
        for e in range(g.m):
            p = g.edges[e].p
            prob *= p if (mask >> e) & 1 else 1.0 - p
        if prob == 0.0:
            continue
        mm = mm_edge_mask(g, mask)
        for e in range(g.m):
            if (mm >> e) & 1:
                x[e] += prob
        for crucial_mask, acc in accs.items():
            key = (mask & crucial_mask, mm & crucial_mask)
            acc[key] = acc.get(key, 0.0) + prob
    laws = {}
    for crucial_mask, acc in accs.items():
        items = sorted(acc.items())
        laws[crucial_mask] = (np.array([k[0] for k, _ in items], dtype=np.int64),
                              np.array([k[1] for k, _ in items], dtype=np.int64),
                              np.array([p for _, p in items]))
    return x, laws


REFERENCE_GRAPHS = [(gd.name, gd.graph) for gd in verification_gadgets()] + [
    ("shared_tie", shared_tie_fixture().graph),  # p = 1 edges: zero-probability masks
    ("edgeless", graph(3, [])),
    ("generated_16e", generated(8, 4)),
]


@pytest.mark.parametrize("g", [g for _name, g in REFERENCE_GRAPHS],
                         ids=[name for name, _g in REFERENCE_GRAPHS])
def test_enumeration_equals_per_mask_loop_bit_for_bit(g):
    # a fresh copy, so nothing is read from an earlier enumeration
    g = StochasticGraph(n=g.n, edges=g.edges)
    assert exact.enumerable(g)
    ref_x, ref_laws = reference_enumeration(g, {g.full_mask, g.full_mask & 0b0101_1010_0110_1001})
    assert exact_x(g).tobytes() == ref_x.tobytes()
    for crucial_mask, (ref_real, ref_mo, ref_prob) in ref_laws.items():
        law = MatchingLaw.from_pipeline(g, crucial_mask)
        assert law.real.tobytes() == ref_real.tobytes()
        assert law.mo.tobytes() == ref_mo.tobytes()
        assert law.prob.tobytes() == ref_prob.tobytes()


def test_exact_tables_ask_the_oracle_once_per_positive_mask(monkeypatch):
    # every oracle query, from any module, is a mask given to one of the
    # public entry points; the batched one is asked about each mask of its array
    asked = Counter()

    def counting(entry, queried):
        def wrapper(*args):
            asked.update(queried(*args))
            return entry(*args)
        return wrapper

    entries = {"mm_edge_masks": lambda g, masks: masks.tolist(),
               "mm_edge_mask": lambda g, mask: [mask],
               "max_weight_matching": lambda view: [view.effective_mask]}
    for name, queried in entries.items():
        entry = getattr(mwm, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("stochmatch") and getattr(module, name, None) is entry:
                monkeypatch.setattr(module, name, counting(entry, queried))
    for make_gadget, positive in ((shared_tie_fixture, 1), (three_path, 8)):
        asked.clear()
        g = make_gadget().graph  # its law is enumerated here, with the oracle counted
        params = Params.for_graph(g, 0.2, 1 / 576.0)
        augmenter.build_tables_exact(g, params, 4, tau=0.05)
        augmenter.build_tables_exact(g, params, 2, tau=0.3)
        masks, _probs, _mm = realizations(g)
        assert dict(asked) == {mask: 1 for mask in masks.tolist()}
        assert len(asked) == positive  # shared_tie: both edges have p = 1
