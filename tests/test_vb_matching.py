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
    make_matching,
    mask_edges,
    sample_mask,
    sample_masks,
)
from stochmatch import vb_matching
from stochmatch.parallel import rng_from
from stochmatch.vb_matching import (
    VBOutput,
    activate_batch,
    attenuation_g,
    draw_run_inputs,
    exact_vb_enumeration,
    run_vb,
    run_vb_block,
)


def graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


@dataclass
class StubLaw:
    """An activation law with given marginals and one fixed conditional."""

    graph: StochasticGraph
    crucial_mask: int
    y: np.ndarray
    value: float = 0.5

    def y_prime(self, e, batch_mask, batch_bits):
        return self.value


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
    return run_vb(law, perms[0], real, uniforms[0])


def fan_law(y, value):
    """Edges 0-1 and 0-2, both realized; vertex 0 arriving last reveals both."""
    g = graph(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    return StubLaw(g, g.full_mask, np.full(2, y), value=value)


def fan_activations(law, trials, seed):
    """Per-run activated edge masks and clip counts with vertex 0 last."""
    uniforms = rng_from(seed).random((trials, 3))
    out = run_vb_block(law, np.tile([1, 2, 0], (trials, 1)), [0b11] * trials, uniforms)
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
    assert set(counts) <= {0, 0b01, 0b10} and not any(clips)
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
    assert all(c == 1 for c in clips)
    counts = Counter(activated)
    assert counts[0] == 0
    assert abs(counts[0b01] / trials - 0.5) <= 3 * math.sqrt(0.25 / trials)


def test_run_vb_no_crucial_edges():
    g = graph(3, [(0, 1, 1.0, 0.5)])
    out = one_run(StubLaw(g, 0, np.zeros(1)), rng_from(0), realization_mask=1)
    assert len(out.matching) == 0
    assert out.alive == frozenset(range(3))


def test_run_vb_single_edge_selection_matches_g_of_y():
    for y in (1.0, 0.5):
        gadget = single_edge(y=y)
        trials = 60_000
        inputs = draw_run_inputs(gadget.law, rng_from(17), trials)
        selected = 0
        both_alive = 0
        for perm, real, uniforms in zip(*inputs):
            out = run_vb(gadget.law, perm, real, uniforms)
            selected += len(out.matching)
            both_alive += out.alive == frozenset({0, 1})
        target = attenuation_g(y)
        se = math.sqrt(target * (1 - target) / trials)
        assert abs(selected / trials - target) <= 3.5 * se
        if y == 1.0:
            assert abs(both_alive / trials - 0.4) <= 3.5 * se


def test_run_vb_respects_fixed_permutation():
    law = two_path().law
    out = one_run(law, rng_from(3), permutation=(2, 0, 1))
    assert out.permutation == (2, 0, 1)
    with pytest.raises(ValueError):
        run_vb(law, (0, 0, 1), 0b11, np.zeros(3))
    with pytest.raises(ValueError):
        run_vb_block(law, [(2, 0, 1), (0, 0, 1)], [0b11] * 2, np.zeros((2, 3)))


def test_run_vb_structural_invariants_random():
    gadget = four_cycle()
    g = gadget.graph
    rng = rng_from(8)
    for _ in range(300):
        out = one_run(gadget.law, rng)
        matched = {v for e in out.matching.edges for v in g.endpoints(e)}
        assert not (out.alive & matched)
        touched = set()
        for v, partner, e in out.activation_log:
            if partner is not None:
                touched |= {v, partner}
                assert (out.revealed_bits >> e) & 1
        assert out.alive == frozenset(range(g.n)) - touched


def test_run_vb_uses_supplied_realization():
    law = two_path().law
    out = one_run(law, rng_from(0), realization_mask=0)
    assert len(out.matching) == 0
    assert out.alive == frozenset({0, 1, 2})
    out2 = one_run(law, rng_from(0), realization_mask=0b11)
    assert out2.revealed_bits == out2.revealed_mask


def test_run_vb_clip_logging_with_noisy_conditionals():
    g = graph(3, [(0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0)])
    # y = 0, y' = 1: denominators 3+0, q = 1 each, so a 2-edge batch clips
    oversubscribed = StubLaw(g, g.full_mask, np.zeros(2), value=1.0)
    clipped_runs = 0
    rng = rng_from(5)
    for _ in range(200):
        out = one_run(oversubscribed, rng)
        clipped_runs += out.clip_events > 0
    assert clipped_runs > 0


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
# The mask implementation of run_vb against the list-and-set one it replaced


def reference_run_vb(law, permutation, realization_mask, uniforms):
    """``run_vb`` as written with per-vertex lists and sets and the
    activation rule inline, reading its inputs as ``run_vb`` does, as the
    reference the mask implementation must reproduce output for output."""
    g = law.graph
    crucial_mask = law.crucial_mask
    y, cond = law.y, law
    adj = [[] for _ in range(g.n)]
    for e in range(g.m):
        if (crucial_mask >> e) & 1:
            u, v, _w, _p = g.edges[e]
            adj[u].append((v, e))
            adj[v].append((u, e))

    order = [int(v) for v in permutation]
    if sorted(order) != list(range(g.n)):
        raise ValueError("permutation must cover every vertex exactly once")

    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i

    matched = [False] * g.n
    had_active = [False] * g.n
    log = []
    mc_edges = []
    clip_events = 0
    revealed_mask = 0
    revealed_bits = 0
    draws = iter(uniforms)

    for v in order:
        batch_mask = 0
        batch_bits = 0
        realized = []
        for u, e in adj[v]:
            if pos[u] >= pos[v]:
                continue
            bit_e = 1 << e
            batch_mask |= bit_e
            if realization_mask & bit_e:
                batch_bits |= bit_e
                realized.append((u, e))
        revealed_mask |= batch_mask
        revealed_bits |= batch_bits
        if not realized:
            log.append((v, None, None))
            continue
        probs = []
        total = 0.0
        for _u, e in realized:
            y_prime = cond.y_prime(e, batch_mask, batch_bits)
            if y_prime < 0.0:
                raise ValueError(f"negative conditional marginal for edge {e}")
            if not (0.0 <= float(y[e]) <= 1.0):
                raise ValueError(f"marginal of edge {e} must be in [0, 1]")
            q = 3.0 * y_prime / (3.0 + 2.0 * float(y[e]))
            probs.append((e, q))
            total += q
        if total > 1.0:
            clip_events += total > 1.0 + 1e-12
            probs = [(e, q / total) for e, q in probs]
        u = next(draws)
        choice = None
        acc = 0.0
        for e, q in probs:
            acc += q
            if u < acc:
                choice = e
                break
        if choice is None:
            log.append((v, None, None))
            continue
        partner = g.other_end(choice, v)
        log.append((v, partner, choice))
        had_active[v] = True
        had_active[partner] = True
        if not matched[partner]:
            matched[partner] = True
            matched[v] = True
            mc_edges.append(choice)

    alive = frozenset(v for v in range(g.n) if not had_active[v])
    matching = make_matching(g, mc_edges)
    return VBOutput(
        matching_mask=matching.as_mask(),
        alive_mask=sum(1 << v for v in alive),
        parent=g.token,
        activation_log=tuple(log),
        permutation=tuple(order),
        clip_events=clip_events,
        revealed_mask=revealed_mask,
        revealed_bits=revealed_bits,
    )


def assert_same_runs(law, seed, runs, realization=None, permutation=None, ref_law=None):
    """``runs`` runs of both implementations on the same drawn inputs give
    equal outputs; ``realization`` replaces the drawn crucial realizations."""
    perms, reals, uniforms = draw_run_inputs(law, rng_from(seed), runs, permutation)
    mask_rng = rng_from(seed, 1)
    outs = []
    for perm, mask, row in zip(perms, reals, uniforms):
        mask = mask if realization is None else realization(mask_rng)
        new = run_vb(law, perm, mask, row)
        ref = reference_run_vb(law if ref_law is None else ref_law, perm, mask, row)
        for name in ("matching_mask", "alive_mask", "parent", "matching", "alive",
                     "activation_log", "permutation", "clip_events", "revealed_mask",
                     "revealed_bits"):
            assert getattr(new, name) == getattr(ref, name), name
        assert new.matching.as_mask() == new.matching_mask
        assert new.alive == frozenset(mask_edges(new.alive_mask))
        assert list(new.alive) == list(ref.alive)
        assert list(new.matching.edges) == list(ref.matching.edges)
        outs.append(new)
    return outs


@pytest.mark.parametrize("gadget", verification_gadgets(), ids=lambda gd: gd.name)
def test_run_vb_equals_reference_on_every_gadget(gadget):
    law = gadget.law
    g = gadget.graph
    perm = tuple(reversed(range(g.n)))
    draw = lambda rng: sample_mask(g, rng)  # noqa: E731
    assert_same_runs(law, 11, 150)
    assert_same_runs(law, 12, 150, permutation=perm)
    assert_same_runs(law, 13, 150, realization=draw)
    assert_same_runs(law, 14, 150, realization=draw, permutation=perm)


def test_run_vb_equals_reference_with_clipping_monte_carlo_conditionals():
    g = gen_random_graph(7, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=5)
    y = np.full(g.m, 0.1)  # small denominators: 2-trial estimates of y' clip
    outs = assert_same_runs(MonteCarloConditional(g, g.full_mask, y, 2, 3), 21, 200,
                            ref_law=MonteCarloConditional(g, g.full_mask, y, 2, 3))
    assert sum(out.clip_events for out in outs) > 0
    assert_same_runs(MonteCarloConditional(g, g.full_mask, y, 2, 3), 22, 100,
                     realization=lambda rng: sample_mask(g, rng))


def test_run_vb_equals_reference_without_crucial_edges():
    g = graph(3, [(0, 1, 1.0, 0.5)])
    law = StubLaw(g, 0, np.zeros(1))
    outs = assert_same_runs(law, 0, 5)
    assert outs[0].alive == frozenset(range(3))
    assert_same_runs(law, 1, 5, permutation=(2, 1, 0))


def test_run_vb_error_paths_still_raise():
    g = graph(2, [(0, 1, 1.0, 1.0)])
    with pytest.raises(ValueError, match="negative conditional"):
        run_vb(StubLaw(g, 1, np.full(1, 0.5), value=-0.1), (0, 1), 1, np.zeros(2))
    for bad_y in (-0.5, 1.5):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            run_vb(StubLaw(g, 1, np.full(1, bad_y)), (0, 1), 1, np.zeros(2))
    for bad_perm in ((0, 0), (0,), (0, 2), (1, 0, 2)):
        with pytest.raises(ValueError, match="permutation"):
            run_vb(StubLaw(g, 1, np.full(1, 0.5)), bad_perm, 1, np.zeros(2))


def test_vb_adjacency_cache_keeps_only_latest_mask():
    g = graph(4, [(0, 1, 1.0, 0.5), (1, 2, 1.0, 0.5), (2, 3, 1.0, 0.5)])
    y = np.full(3, 0.5)
    one_run(StubLaw(g, 0b011, y), rng_from(0))
    one_run(StubLaw(g, 0b110, y), rng_from(0))
    keys = [k for k in g._caches
            if k == "vb_adj" or (isinstance(k, tuple) and k and k[0] == "vb_adj")]
    assert keys == ["vb_adj"]
    assert g._caches["vb_adj"][0] == 0b110


def test_activation_table_lives_on_the_law_and_is_bounded(monkeypatch):
    law = fan_law(0.5, 0.5)
    one_run(law, rng_from(0), permutation=(1, 2, 0))
    assert law._activation_table == {(0b11, 0b11): ((0, 1), (0.375, 0.75), False)}
    monkeypatch.setattr(vb_matching, "ACTIVATION_CACHE_MAX", 1)
    one_run(law, rng_from(0), permutation=(2, 1, 0))
    assert list(law._activation_table) == [(0b11, 0b11)]
    one_run(law, rng_from(0), permutation=(0, 1, 2))
    assert list(law._activation_table) == [(0b10, 0b10)]


# ---------------------------------------------------------------------------
# The block runner against run_vb, row by row on the same inputs


def assert_block_equals_rows(law, perms, reals, uniforms):
    block = run_vb_block(law, perms, reals, uniforms)
    assert len(block.matching) == len(reals)
    for k, (perm, real, row) in enumerate(zip(perms, reals, uniforms)):
        out = run_vb(law, perm, real, row)
        got = (block.matching[k], block.alive[k], block.activated[k], block.clip_events[k])
        assert got == (out.matching_mask, out.alive_mask, out.activated_mask,
                       out.clip_events), k
    return block


def full_inputs(law, seed, runs, permutation=None):
    """Drawn inputs whose realizations also carry non-crucial bits."""
    perms, _reals, uniforms = draw_run_inputs(law, rng_from(seed), runs, permutation)
    return perms, sample_masks(law.graph, rng_from(seed, 1), runs), uniforms


@pytest.mark.parametrize("gadget", verification_gadgets(), ids=lambda gd: gd.name)
def test_run_vb_block_equals_rows_on_every_gadget(gadget):
    law = gadget.law
    reverse = tuple(reversed(range(gadget.graph.n)))
    block = assert_block_equals_rows(law, *draw_run_inputs(law, rng_from(31), 300))
    assert_block_equals_rows(law, *draw_run_inputs(law, rng_from(32), 300, reverse))
    assert_block_equals_rows(law, *full_inputs(law, 33, 300))
    if law.crucial_mask:
        assert any(block.activated)


def test_run_vb_block_equals_rows_with_clipping_monte_carlo_conditionals():
    g = gen_random_graph(7, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=5)
    law = MonteCarloConditional(g, g.full_mask, np.full(g.m, 0.1), 2, 3)
    block = assert_block_equals_rows(law, *draw_run_inputs(law, rng_from(34), 400))
    assert sum(block.clip_events) > 0
    assert max(block.clip_events) > 1


def test_run_vb_block_equals_rows_without_crucial_edges():
    g = graph(3, [(0, 1, 1.0, 0.5)])
    law = StubLaw(g, 0, np.zeros(1))
    block = assert_block_equals_rows(law, *full_inputs(law, 35, 20))
    assert set(block.alive) == {0b111} and not any(block.activated)
    assert_block_equals_rows(law, *full_inputs(law, 36, 20, permutation=(2, 1, 0)))


def test_run_vb_block_beyond_int64_masks_loops_rows():
    uniform = {"name": "uniform", "low": 0.3, "high": 0.9}
    weights = {"name": "uniform", "low": 0.1, "high": 2.0}
    for n, density in ((70, 0.04), (14, 0.8)):
        g = gen_random_graph(n, density, weights, uniform, seed=6)
        assert g.n > 63 or g.m > 63
        crucial = sum(1 << e for e in range(0, g.m, 2))
        law = StubLaw(g, crucial, np.full(g.m, 0.4), value=0.4)
        block = assert_block_equals_rows(law, *full_inputs(law, 37, 60))
        assert any(block.activated) and any(block.matching)
        assert any(alive >> 63 for alive in block.alive) == (g.n > 63)


def test_run_vb_block_asserts_structural_invariants(monkeypatch):
    # a corrupt activation table that activates edge 1-2 when vertex 1
    # reveals only edge 0-1: the matched edge was never revealed
    law = two_path().law
    monkeypatch.setattr(vb_matching, "_activation_entry",
                        lambda _law, _mask, _bits: ((1,), (1.0,), False))
    with pytest.raises(AssertionError):
        run_vb(law, (0, 1, 2), 0b01, np.zeros(3))
    with pytest.raises(AssertionError):
        run_vb_block(law, [(0, 1, 2)], [0b01], np.zeros((1, 3)))
