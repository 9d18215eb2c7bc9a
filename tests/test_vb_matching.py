import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from stochmatch.estimator import MonteCarloConditional
from stochmatch.exact import EnumerationTooLarge, MatchingLaw
from stochmatch.gadgets import (
    four_cycle,
    isolated_pair,
    single_edge,
    star,
    three_path,
    two_path,
    verification_gadgets,
)
from stochmatch.graph_core import (
    Edge,
    StochasticGraph,
    gen_random_graph,
    mask_edges,
    sample_masks,
)
from stochmatch import estimator, vb_matching
from stochmatch.parallel import rng_from
from stochmatch.vb_matching import (
    activate_batch,
    attenuation_g,
    draw_run_inputs,
    exact_vb_enumeration,
    run_vb,
)

from test_estimator import empty_pool
from vb_reference import assert_rows_equal_reference


def graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


@dataclass
class StubLaw:
    """An activation law with given marginals and one fixed conditional."""

    graph: StochasticGraph
    crucial_mask: int
    y: np.ndarray
    value: float = 0.5

    def y_primes(self, reveals):
        return [[self.value] * bits.bit_count() for _mask, bits in reveals]


def test_attenuation_values():
    assert attenuation_g(0.0) == 0.0
    assert attenuation_g(1.0) == pytest.approx(0.6)
    assert attenuation_g(0.5) == pytest.approx(0.375)
    with pytest.raises(ValueError):
        attenuation_g(-0.1)
    with pytest.raises(ValueError):
        attenuation_g(1.1)


def one_run(law, rng, realization_mask=None, permutation=None):
    """``run_vb`` on the inputs ``draw_run_inputs`` draws for one run, with
    the realization replaced by ``realization_mask`` if given."""
    perms, reals, uniforms = draw_run_inputs(law, rng, 1, permutation)
    real = reals[0] if realization_mask is None else realization_mask
    return run_vb(law, perms, [real], uniforms)


def fan_law(y, value):
    """Edges 0-1 and 0-2, both realized; vertex 0 arriving last reveals both."""
    g = graph(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    return StubLaw(g, g.full_mask, np.full(2, y), value=value)


def fan_activations(law, trials, seed):
    """Per-run activated edge masks and the clip count with vertex 0 last."""
    uniforms = rng_from(seed).random((trials, 3))
    out = run_vb(law, np.tile([1, 2, 0], (trials, 1)), [0b11] * trials, uniforms)
    return out.activated, out.clip_events


def test_activate_batch_empty_and_zero():
    law = fan_law(0.5, 0.5)
    assert activate_batch(law, 0, 0) == ((), (), False)
    edges, cumulative, clipped = activate_batch(fan_law(0.5, 0.0), 0b1, 0b1)
    assert edges == (0,) and cumulative == (0.0,) and not clipped  # no u < 0
    # unrealized candidates never activate
    assert activate_batch(fan_law(1.0, 1.0), 0b11, 0) == ((), (), False)
    assert activate_batch(fan_law(1.0, 1.0), 0b11, 0b10)[0] == (1,)


def test_activate_batch_negative_conditional_rejected():
    with pytest.raises(ValueError):
        activate_batch(fan_law(0.5, -0.01), 0b1, 0b1)


def test_activate_batch_two_candidates_frequencies():
    # each picked w.p. 3*0.5/4 = 0.375, none w.p. 0.25
    law = fan_law(0.5, 0.5)
    assert activate_batch(law, 0b11, 0b11) == ((0, 1), (0.375, 0.75), False)
    trials = 100_000
    activated, clips = fan_activations(law, trials, 1)
    counts = Counter(activated)
    assert set(counts) <= {0, 0b01, 0b10} and clips == 0
    se = math.sqrt(0.375 * 0.625 / trials)
    assert abs(counts[0b01] / trials - 0.375) <= 3 * se
    assert abs(counts[0b10] / trials - 0.375) <= 3 * se
    assert abs(counts[0] / trials - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / trials)


def test_activate_batch_clips_oversubscribed():
    # noisy conditionals summing past one are renormalized and flagged
    law = fan_law(0.0, 0.6)
    edges, cumulative, clipped = activate_batch(law, 0b11, 0b11)
    assert edges == (0, 1) and clipped
    assert cumulative == pytest.approx((0.5, 1.0))
    trials = 40_000
    activated, clips = fan_activations(law, trials, 2)
    assert clips == trials  # only vertex 0's batch reveals edges: one clip per run
    counts = Counter(activated)
    assert counts[0] == 0
    assert abs(counts[0b01] / trials - 0.5) <= 3 * math.sqrt(0.25 / trials)


def test_run_vb_picks_on_cumulative_boundaries():
    # a uniform equal to a cumulative probability picks the next edge (the
    # reference's `u < acc`); vertex 0 arrives last and reveals both edges
    law = fan_law(0.5, 0.5)  # cumulative probabilities (0.375, 0.75)
    uniforms = np.repeat([[0.0], [0.375], [0.75], [0.5]], 3, axis=1)
    block, _refs = assert_rows_equal_reference(law, np.tile([1, 2, 0], (4, 1)), [0b11] * 4,
                                               uniforms)
    assert block.activated.tolist() == [0b01, 0b10, 0, 0b10]


def test_run_vb_no_crucial_edges():
    g = graph(3, [(0, 1, 1.0, 0.5)])
    out = one_run(StubLaw(g, 0, np.zeros(1)), rng_from(0), realization_mask=1)
    assert out.matching.tolist() == [0] and out.activated.tolist() == [0]
    assert out.alive.tolist() == [0b111]


def test_run_vb_single_edge_selection_matches_g_of_y():
    for y in (1.0, 0.5):
        gadget = single_edge(y=y)
        trials = 60_000
        out = run_vb(gadget.law, *draw_run_inputs(gadget.law, rng_from(17), trials))
        selected = sum(out.matching)  # edge 0 is the only edge
        both_alive = out.alive.tolist().count(0b11)
        target = attenuation_g(y)
        se = math.sqrt(target * (1 - target) / trials)
        assert abs(selected / trials - target) <= 3.5 * se
        if y == 1.0:
            assert abs(both_alive / trials - 0.4) <= 3.5 * se


def test_run_vb_respects_fixed_permutation():
    law = two_path().law
    perms, reals, uniforms = draw_run_inputs(law, rng_from(3), 300, (2, 0, 1))
    assert perms.tolist() == [[2, 0, 1]] * 300
    out, refs = assert_rows_equal_reference(law, perms, reals, uniforms)
    # Vertex 1 arrives last and reveals both edges, so at most one activates
    # and, with no earlier activation, it is matched.
    assert all(ref.log[0][1] is None and ref.log[1][1] is None for ref in refs)
    assert all(bin(a).count("1") <= 1 for a in out.activated)
    assert out.matching.tolist() == out.activated.tolist() and any(out.activated)
    with pytest.raises(ValueError):
        run_vb(law, [(0, 0, 1)], [0b11], np.zeros((1, 3)))
    with pytest.raises(ValueError):
        run_vb(law, [(2, 0, 1), (0, 0, 1)], [0b11] * 2, np.zeros((2, 3)))


def vertices_of(g, edge_mask):
    """Vertex mask of the endpoints of the edges in ``edge_mask``."""
    out = 0
    for e in mask_edges(edge_mask):
        u, v = g.endpoints(e)
        out |= (1 << u) | (1 << v)
    return out


def test_run_vb_structural_invariants_random():
    gadget = four_cycle()
    g = gadget.graph
    perms, reals, uniforms = draw_run_inputs(gadget.law, rng_from(8), 300)
    out = run_vb(gadget.law, perms, reals, uniforms)
    for real, matched, alive, activated in zip(reals, out.matching, out.alive, out.activated):
        # matched edges are activated, activated edges realized crucial ones
        assert matched & ~activated == 0
        assert activated & ~(real & gadget.crucial_mask) == 0
        # the matching is vertex-disjoint and leaves the alive set untouched
        assert 2 * bin(matched).count("1") == bin(vertices_of(g, matched)).count("1")
        assert alive & vertices_of(g, matched) == 0
        # alive = the vertices no activated edge touches
        assert alive == (1 << g.n) - 1 & ~vertices_of(g, activated)
    assert any(out.matching) and any(m != a for m, a in zip(out.matching, out.activated))


def test_run_vb_uses_supplied_realization():
    law = two_path().law
    perms, _reals, uniforms = draw_run_inputs(law, rng_from(0), 200)
    for realization in (0, 0b01, 0b10, 0b11):
        out = run_vb(law, perms, [realization] * 200, uniforms)
        assert all(a & ~realization == 0 for a in out.activated)
        assert any(out.activated) == (realization != 0)
    out = run_vb(law, perms, [0] * 200, uniforms)
    assert set(out.matching) == {0} and set(out.alive) == {0b111}


def test_run_vb_clip_logging_with_noisy_conditionals():
    g = graph(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    # y = 0, y' = 1: denominators 3+0, q = 1 each, so a 2-edge batch clips
    oversubscribed = StubLaw(g, g.full_mask, np.zeros(2), value=1.0)
    out = run_vb(oversubscribed, *draw_run_inputs(oversubscribed, rng_from(5), 200))
    assert out.clip_events > 0


def test_exact_enumeration_single_edge_reproduces_attenuation():
    for y in (0.25, 0.5, 1.0):
        dist = exact_vb_enumeration(single_edge(y=y).law)
        assert dist.edge_active_prob(0) == pytest.approx(attenuation_g(y), abs=1e-12)
        assert dist.edge_selected_prob(0) == pytest.approx(attenuation_g(y), abs=1e-12)


def test_exact_enumeration_isolated_vertices_alive():
    dist = exact_vb_enumeration(isolated_pair().law)
    assert dist.pair_alive_prob(0, 1) == 1.0


def test_exact_enumeration_two_path_pair_floor():
    dist = exact_vb_enumeration(two_path().law)
    assert dist.pair_alive_prob(0, 2) >= 1.0 / 576.0


def test_exact_enumeration_activation_is_g_for_every_order():
    # the activation marginal holds conditionally on each arrival order
    gadget = three_path()
    dist = exact_vb_enumeration(gadget.law)
    for e in range(gadget.graph.m):
        target = attenuation_g(float(gadget.law.y[e]))
        comp = dist.component_of(gadget.graph.edges[e].u)
        by_order = {order: data["active"][e] for order, data in comp.per_order.items()}
        assert len(by_order) == math.factorial(4)
        for order, prob in by_order.items():
            assert prob == pytest.approx(target, abs=1e-9), (e, order)


def test_exact_enumeration_mass_adds_to_one():
    dist = exact_vb_enumeration(four_cycle().law)
    for comp in dist.components:
        assert sum(comp.joint.values()) == pytest.approx(1.0, abs=1e-9)


def test_exact_enumeration_component_caps():
    g = graph(6, [(i, i + 1, 1.0, 0.5) for i in range(5)])  # 6-vertex path
    law = MatchingLaw.from_pipeline(g, g.full_mask)
    with pytest.raises(ValueError):
        exact_vb_enumeration(law)


def test_exact_enumeration_factorizes_across_components():
    # two disjoint single-edge components: joint pair-alive is the product
    g = graph(4, [(0, 1, 1.0, 0.8), (2, 3, 1.0, 0.6)])
    law = MatchingLaw.from_pipeline(g, g.full_mask)
    dist = exact_vb_enumeration(law)
    p0 = dist.component_of(0).alive_single[0]
    p2 = dist.component_of(2).alive_single[2]
    assert dist.pair_alive_prob(0, 2) == pytest.approx(p0 * p2, abs=1e-12)


def test_influential_variables_independent_per_order_exact():
    # joint law of two activation records factorizes for a fixed order
    dist = exact_vb_enumeration(three_path().law)
    comp = dist.components[0]
    order = tuple(sorted(comp.vertices))
    log_law = comp.per_order[order]["log"]
    for u, w in itertools.combinations(comp.vertices, 2):
        joint = {}
        pu = {}
        pw = {}
        for log, prob in log_law.items():
            xu = next(p for v, p in log if v == u)
            xw = next(p for v, p in log if v == w)
            joint[(xu, xw)] = joint.get((xu, xw), 0.0) + prob
            pu[xu] = pu.get(xu, 0.0) + prob
            pw[xw] = pw.get(xw, 0.0) + prob
        for (xu, xw), prob in joint.items():
            assert prob == pytest.approx(pu[xu] * pw[xw], abs=1e-9), (u, w, xu, xw)


def test_exact_enumeration_caps_raise_typed_error(monkeypatch):
    with pytest.raises(EnumerationTooLarge, match="vertices"):
        exact_vb_enumeration(star(5).law)
    monkeypatch.setattr(vb_matching, "MAX_COMPONENT_EDGES", 3)
    with pytest.raises(EnumerationTooLarge, match="too many edges"):
        exact_vb_enumeration(four_cycle().law)


# ---------------------------------------------------------------------------
# run_vb against the list-and-set reference, row by row on the same inputs


def assert_same_runs(law, seed, runs, realization=None, permutation=None, ref_law=None):
    """``runs`` runs of ``run_vb`` and of the reference on the same drawn
    inputs give equal outputs; ``realization`` replaces the drawn crucial
    realizations."""
    perms, reals, uniforms = draw_run_inputs(law, rng_from(seed), runs, permutation)
    if realization is not None:
        mask_rng = rng_from(seed, 1)
        reals = [realization(mask_rng) for _ in range(runs)]
    block, _refs = assert_rows_equal_reference(law, perms, reals, uniforms, ref_law)
    return block


@pytest.mark.parametrize("gadget", verification_gadgets(), ids=lambda gd: gd.name)
def test_run_vb_equals_reference_on_every_gadget(gadget):
    law = gadget.law
    g = gadget.graph
    perm = tuple(reversed(range(g.n)))
    draw = lambda rng: sample_masks(g, rng, 1)[0]  # noqa: E731
    assert_same_runs(law, 11, 150)
    assert_same_runs(law, 12, 150, permutation=perm)
    assert_same_runs(law, 13, 150, realization=draw)
    assert_same_runs(law, 14, 150, realization=draw, permutation=perm)


@dataclass
class ClippingLaw:
    """An activation law whose conditionals vary by edge and reveal, from 0.2
    to 0.8, so that a batch of two or more realized edges can sum past 1 and
    clip."""

    graph: StochasticGraph
    crucial_mask: int
    y: np.ndarray

    def y_primes(self, reveals):
        return [[0.2 + 0.1 * ((e + mask + 3 * bits) % 7) for e in mask_edges(bits)]
                for mask, bits in reveals]


def clipping_law(g):
    return ClippingLaw(g, g.full_mask, np.full(g.m, 0.1))


def two_trial_law(g, rows=None):
    """Monte Carlo conditionals at a 2-trial budget, from the pool ``rows``
    (default: empty, so every batch reveal is resampled on 2 rows)."""
    return MonteCarloConditional(g, g.full_mask, np.full(g.m, 0.1), 2, 3,
                                 empty_pool(g) if rows is None else rows)


def random_graph(n, density, seed):
    return gen_random_graph(n, density, {"name": "uniform", "low": 0.1, "high": 2.0},
                            {"name": "uniform", "low": 0.3, "high": 0.9}, seed=seed)


def test_run_vb_equals_reference_with_clipping_conditionals():
    g = random_graph(7, 0.6, 5)
    block = assert_same_runs(clipping_law(g), 21, 200, ref_law=clipping_law(g))
    assert block.clip_events > 0
    assert_same_runs(clipping_law(g), 22, 100, realization=lambda rng: sample_masks(g, rng, 1)[0])


def assert_two_trial_law_never_clips(rows):
    """200 runs of :func:`two_trial_law` on the pool ``rows`` equal the
    reference and clip no batch, where conditionals that sum past 1 clip on
    the same inputs; returns the law."""
    g = random_graph(7, 0.6, 5)
    law = two_trial_law(g, rows)
    inputs = draw_run_inputs(law, rng_from(21), 200)
    assert run_vb(clipping_law(g), *inputs).clip_events > 0
    block, _refs = assert_rows_equal_reference(law, *inputs, ref_law=two_trial_law(g, rows))
    assert block.clip_events == 0
    return law


def test_pooled_reveals_never_clip():
    # the same 2-trial budget, but every batch reveal answered from a pool of
    # rows: each row's matching holds at most one edge of a batch, so no
    # batch sums past 1
    g = random_graph(7, 0.6, 5)
    _y_hat, pool = estimator.estimate_y(g, g.full_mask, 5000, seed=4)
    law = assert_two_trial_law_never_clips(pool)
    assert law.resampled_reveals == 0 and law.pooled_reveals > 10


def test_resampled_reveals_never_clip():
    # an empty pool: every batch reveal is counted on 2 rows of its own, and
    # all its edges on the same 2 rows, so no batch sums past 1 either
    law = assert_two_trial_law_never_clips(None)
    assert law.pooled_reveals == 0 and law.resampled_reveals > 10


def test_run_vb_equals_reference_without_crucial_edges():
    g = graph(3, [(0, 1, 1.0, 0.5)])
    law = StubLaw(g, 0, np.zeros(1))
    block = assert_same_runs(law, 0, 5)
    assert block.alive[0] == 0b111
    assert_same_runs(law, 1, 5, permutation=(2, 1, 0))


def test_run_vb_error_paths_still_raise():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    with pytest.raises(ValueError, match="negative conditional"):
        run_vb(StubLaw(g, 1, np.full(1, 0.5), value=-0.1), [(0, 1)], [1], np.zeros((1, 2)))
    for bad_y in (-0.5, 1.5):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            run_vb(StubLaw(g, 1, np.full(1, bad_y)), [(0, 1)], [1], np.zeros((1, 2)))
    message = "permutation must cover every vertex exactly once"
    for bad_perm in ((0, 0), (0,), (0, 2), (1, 0, 2), (-1, 1)):
        with pytest.raises(ValueError, match=message):
            run_vb(StubLaw(g, 1, np.full(1, 0.5)), [bad_perm], [1], np.zeros((1, 2)))
    # one bad row among good ones: the middle row repeats vertex 1
    g3 = graph(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
    with pytest.raises(ValueError, match=message):
        run_vb(StubLaw(g3, 0b11, np.full(2, 0.5)), [(0, 1, 2), (1, 1, 2), (2, 1, 0)],
               [0b11] * 3, np.zeros((3, 3)))
    # a repeated vertex on Python-int masks (64 vertices)
    g64 = graph(64, [(v, v + 1, 1.0, 0.5) for v in range(63)])
    duplicate = list(range(64))
    duplicate[5] = 6
    with pytest.raises(ValueError, match=message):
        run_vb(StubLaw(g64, 0b11, np.full(63, 0.4)), [range(64), duplicate], [0b11] * 2,
               np.zeros((2, 64)))


def test_activation_table_lives_on_the_law_and_is_bounded(monkeypatch):
    law = fan_law(0.5, 0.5)
    one_run(law, rng_from(0), permutation=(1, 2, 0))
    table = law._activation_table
    # one row per batch reveal: the cumulative probabilities padded with
    # inf, the edges padded with -1, the clip flag
    assert table.rows == {(0b11, 0b11): 0}
    assert table.cumulative.tolist() == [[0.375, 0.75]]
    assert table.choices.tolist() == [[0, 1, -1]] and table.clipped.tolist() == [False]
    assert activate_batch(law, 0b11, 0b11) == ((0, 1), (0.375, 0.75), False)
    assert "_activation_table" not in vars(fan_law(0.5, 0.5))
    monkeypatch.setattr(vb_matching, "ACTIVATION_CACHE_MAX", 1)
    one_run(law, rng_from(0), permutation=(2, 1, 0))
    assert list(table.rows) == [(0b11, 0b11)]  # nothing new: no clear
    # (0b01, 0b01) and (0b10, 0b10) take the table past one entry: cleared
    one_run(law, rng_from(0), permutation=(0, 1, 2))
    assert law._activation_table is table and table.rows == {}
    assert len(table.cumulative) == len(table.choices) == len(table.clipped) == 0
    one_run(law, rng_from(0), permutation=(2, 1, 0))
    assert table.rows == {(0b11, 0b11): 0} and table.choices.tolist() == [[0, 1, -1]]


def test_a_block_asks_the_oracle_once(monkeypatch):
    # every conditional of a block's batch reveals comes from one estimator
    # call, and all its draws from one oracle call
    g = random_graph(12, 0.3, 3)
    law = MonteCarloConditional(g, sum(1 << e for e in range(0, g.m, 2)),
                                np.full(g.m, 0.4), 40, 5, empty_pool(g))
    calls = Counter()
    for name in ("estimate_y_conditional", "mm_edge_masks"):
        original = getattr(estimator, name)
        monkeypatch.setattr(estimator, name, lambda *args, _f=original, _name=name:
                            calls.update([_name]) or _f(*args))
    block = run_vb(law, *draw_run_inputs(law, rng_from(40), 300))
    assert calls == {"estimate_y_conditional": 1, "mm_edge_masks": 1}
    assert len(law._activation_table.rows) > 10 and any(block.activated)


def test_a_block_gets_every_entry_past_the_table_cap(monkeypatch):
    g = random_graph(7, 0.6, 5)
    inputs = draw_run_inputs(clipping_law(g), rng_from(41), 200)
    uncapped = clipping_law(g)
    expected = run_vb(uncapped, *inputs)
    assert len(uncapped._activation_table.rows) > 10  # the block has many batch reveals
    monkeypatch.setattr(vb_matching, "ACTIVATION_CACHE_MAX", 1)
    law = clipping_law(g)
    block, _refs = assert_rows_equal_reference(law, *inputs, ref_law=clipping_law(g))
    assert law._activation_table.rows == {}  # the block took it past the cap
    assert [a.tolist() for a in block[:3]] == [a.tolist() for a in expected[:3]]
    assert block.clip_events == expected.clip_events > 0


def full_inputs(law, seed, runs, permutation=None):
    """Drawn inputs whose realizations also carry non-crucial bits."""
    perms, _reals, uniforms = draw_run_inputs(law, rng_from(seed), runs, permutation)
    return perms, sample_masks(law.graph, rng_from(seed, 1), runs), uniforms


@pytest.mark.parametrize("gadget", verification_gadgets(), ids=lambda gd: gd.name)
def test_run_vb_block_equals_rows_on_every_gadget(gadget):
    law = gadget.law
    reverse = tuple(reversed(range(gadget.graph.n)))
    block, _ = assert_rows_equal_reference(law, *draw_run_inputs(law, rng_from(31), 300))
    assert_rows_equal_reference(law, *draw_run_inputs(law, rng_from(32), 300, reverse))
    assert_rows_equal_reference(law, *full_inputs(law, 33, 300))
    if law.crucial_mask:
        assert any(block.activated)


def test_run_vb_block_equals_rows_with_clipping_conditionals():
    law = clipping_law(random_graph(7, 0.6, 5))
    perms, reals, uniforms = draw_run_inputs(law, rng_from(34), 400)
    block, refs = assert_rows_equal_reference(law, perms, reals, uniforms)
    assert block.clip_events > 0
    # Per-run clip counts, through one-row blocks: some run clips twice.
    for k, ref in enumerate(refs):
        assert run_vb(law, perms[k:k + 1], reals[k:k + 1], uniforms[k:k + 1]).clip_events \
            == ref.clip_events, k
    assert max(ref.clip_events for ref in refs) > 1


def test_run_vb_block_equals_rows_without_crucial_edges():
    g = graph(3, [(0, 1, 1.0, 0.5)])
    law = StubLaw(g, 0, np.zeros(1))
    block, _ = assert_rows_equal_reference(law, *full_inputs(law, 35, 20))
    assert set(block.alive) == {0b111} and not any(block.activated)
    assert_rows_equal_reference(law, *full_inputs(law, 36, 20, permutation=(2, 1, 0)))


def test_run_vb_beyond_int64_masks_equals_reference():
    for n, density in ((70, 0.04), (14, 0.8)):
        g = random_graph(n, density, 6)
        assert g.n > 63 or g.m > 63
        crucial = sum(1 << e for e in range(0, g.m, 2))
        law = StubLaw(g, crucial, np.full(g.m, 0.4), value=0.4)
        block, _ = assert_rows_equal_reference(law, *full_inputs(law, 37, 60))
        assert any(block.activated) and any(block.matching)
        assert any(alive >> 63 for alive in block.alive) == (g.n > 63)


def graph_of_size(n, m, seed):
    """A random graph on ``n`` vertices with exactly ``m`` edges."""
    rng = rng_from(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(rng.choice(len(pairs), size=m, replace=False))
    return graph(n, [(*pairs[i], float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.3, 0.9)))
                     for i in chosen])


@pytest.mark.parametrize("n, m", [(63, 62), (64, 63), (63, 63), (64, 64), (62, 63), (40, 64),
                                  (10, 31), (10, 32), (64, 31), (70, 8)])
def test_run_vb_equals_reference_on_both_sides_of_int64_width(n, m):
    # int64 masks up to 63 vertices and edges, Python ints from 64 on; up to
    # 31 edges a batch reveal is also one int64 word, mask << m | bits, and up
    # to 8 edges that word indexes a table
    g = graph_of_size(n, m, n * 1000 + m)
    law = StubLaw(g, sum(1 << e for e in range(0, m, 3)) | 1 << (m - 1),
                  np.full(m, 0.4), value=0.4)
    block, _ = assert_rows_equal_reference(law, *full_inputs(law, 38, 200))
    assert any(block.matching)
    assert any(activated >> (m - 1) for activated in block.activated)
    assert any(alive >> (n - 1) for alive in block.alive)


@pytest.mark.parametrize("m", [31, 32])
def test_y_primes_gets_reveals_in_mask_then_bits_order(m):
    # one word per reveal up to 31 edges, a pair of words past that: the
    # law is asked in the same order either way
    g = graph_of_size(10, m, m)
    asked = []

    class RecordingLaw(StubLaw):
        def y_primes(self, reveals):
            asked.extend(reveals)
            return super().y_primes(reveals)

    law = RecordingLaw(g, g.full_mask, np.full(m, 0.4), value=0.1)
    run_vb(law, *full_inputs(law, 39, 100))
    assert len(set(asked)) > 100 and asked == sorted(asked)
    assert len(set(asked)) == len(asked) and all(bits for _mask, bits in asked)
    assert any(mask >> 31 for mask, _bits in asked) == (m > 31)


def test_run_vb_asserts_matched_edges_stay_vertex_disjoint(monkeypatch):
    # a corrupt activation rule on the path 0-1-2-3: vertex 2's reveal of
    # edge 2-3 activates edge 1-2, which matches vertex 1 before it arrives;
    # vertex 1 then activates edge 0-1 to the free vertex 0
    law = StubLaw(graph(4, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)]), 0b111,
                  np.full(3, 0.4))
    monkeypatch.setattr(vb_matching, "_activation_rule", lambda _y, edges, _y_primes:
                        ((1,) if edges == [2] else (0,), (1.0,), False))
    with pytest.raises(AssertionError):
        run_vb(law, [(0, 3, 2, 1)], [0b111], np.zeros((1, 4)))


def test_run_vb_block_asserts_structural_invariants(monkeypatch):
    # a corrupt activation rule that activates edge 1-2 when vertex 1
    # reveals only edge 0-1: the matched edge was never revealed
    law = two_path().law
    monkeypatch.setattr(vb_matching, "_activation_rule",
                        lambda _y, _edges, _y_primes: ((1,), (1.0,), False))
    with pytest.raises(AssertionError):
        run_vb(law, [(0, 1, 2)], [0b01], np.zeros((1, 3)))
    # the same breach on Python-int masks: 64 vertices, edges 0-1 and 1-2 crucial
    g = graph(64, [(0, 1, 1.0, 0.5), (1, 2, 1.0, 0.5)]
              + [(v, v + 1, 1.0, 0.5) for v in range(3, 63)])
    wide = StubLaw(g, 0b11, np.full(g.m, 0.4))
    with pytest.raises(AssertionError):
        run_vb(wide, [range(64)], [0b01], np.zeros((1, 64)))
