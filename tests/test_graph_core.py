import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmatch import graph_core, mwm
from stochmatch.gadgets import benchmark_6v8e
from stochmatch.graph_core import (
    Edge,
    FractionalMatching,
    Params,
    StochasticGraph,
    dumps_graph,
    gen_random_graph,
    loads_graph,
    mask_dtype,
    mask_edges,
    mask_weight,
    mask_weights,
    sample_masks,
)
from stochmatch.parallel import rng_from


def graph(n, edges):
    return StochasticGraph(n=n, edges=tuple(Edge(*e) for e in edges))


def test_graph_validation_errors():
    with pytest.raises(ValueError):
        graph(2, [(0, 0, 1.0, 0.5)])  # self loop
    with pytest.raises(ValueError):
        graph(3, [(0, 1, 1.0, 0.5), (1, 0, 1.0, 0.5)])  # duplicate pair
    with pytest.raises(ValueError):
        graph(2, [(0, 2, 1.0, 0.5)])  # vertex out of range
    with pytest.raises(ValueError):
        graph(2, [(0, 1, -1.0, 0.5)])  # negative weight
    with pytest.raises(ValueError):
        graph(2, [(0, 1, 1.0, 0.0)])  # p = 0 rejected at parse time
    with pytest.raises(ValueError):
        graph(2, [(0, 1, 1.0, 1.2)])  # p > 1
    with pytest.raises(ValueError):
        graph(2, [(0, 1, math.inf, 0.5)])


def test_p_min_cached():
    g = graph(3, [(0, 1, 1.0, 0.4), (1, 2, 1.0, 0.9)])
    assert g.p_min == 0.4


def test_sample_realization_p1_full():
    g = graph(3, [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0)])
    assert sample_masks(g, rng_from(0), 1)[0] == g.full_mask


def test_sample_realization_empty_graph():
    g = graph(4, [])
    assert sample_masks(g, rng_from(0), 1)[0] == 0


def test_sample_realization_frequency():
    # binomial: SE = sqrt(0.25/10000) = 0.005
    g = graph(2, [(0, 1, 1.0, 0.5)])
    hits = 0
    rng = rng_from(42)
    for _ in range(10_000):
        hits += sample_masks(g, rng, 1)[0] & 1
    assert abs(hits / 10_000 - 0.5) <= 3 * 0.005


def test_sample_realization_pure_function_of_seed():
    g = gen_random_graph(6, 0.5, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=7)
    a = sample_masks(g, rng_from(123), 1)[0]
    b = sample_masks(g, rng_from(123), 1)[0]
    assert a == b


def test_inclusion_frequency_band_all_edges():
    g = gen_random_graph(7, 0.6, {"name": "uniform", "low": 0.5, "high": 1.5},
                         {"name": "uniform", "low": 0.2, "high": 0.95}, seed=3)
    trials = 20_000
    counts = np.zeros(g.m)
    rng = rng_from(11)
    for _ in range(trials):
        mask = sample_masks(g, rng, 1)[0]
        for e in range(g.m):
            counts[e] += (mask >> e) & 1
    freq = counts / trials
    for e in range(g.m):
        p = g.edges[e].p
        assert abs(freq[e] - p) <= 4 * math.sqrt(p * (1 - p) / trials)


def test_gen_random_graph_density_extremes():
    full = gen_random_graph(4, 1.0, {"name": "constant", "value": 1.0},
                            {"name": "constant", "value": 0.5}, seed=0)
    assert full.m == 6
    empty = gen_random_graph(4, 0.0, {"name": "constant", "value": 1.0},
                             {"name": "constant", "value": 0.5}, seed=0)
    assert empty.m == 0


def test_gen_random_graph_deterministic():
    kw = dict(n=8, density=0.4,
              weight_law={"name": "exponential", "scale": 1.0},
              prob_law={"name": "uniform", "low": 0.4, "high": 0.8})
    a = gen_random_graph(seed=5, **kw)
    b = gen_random_graph(seed=5, **kw)
    assert a.edges == b.edges


def test_gen_random_graph_rejects_bad_laws():
    with pytest.raises(ValueError):
        gen_random_graph(4, 0.5, {"name": "constant", "value": 1.0},
                         {"name": "uniform", "low": 0.0, "high": 0.5}, seed=0)
    with pytest.raises(ValueError):
        gen_random_graph(4, 0.5, {"name": "constant", "value": 1.0},
                         {"name": "uniform", "low": 0.5, "high": 1.5}, seed=0)
    with pytest.raises(ValueError):
        gen_random_graph(4, 0.5, {"name": "uniform", "low": -1.0, "high": 1.0},
                         {"name": "constant", "value": 0.5}, seed=0)
    with pytest.raises(ValueError):
        gen_random_graph(4, 0.5, {"name": "constant", "value": 1.0},
                         {"name": "exponential", "scale": 1.0}, seed=0)


def test_weight_of():
    g = graph(4, [(0, 1, 5.0, 1.0), (2, 3, 1.5, 1.0), (1, 2, 2.25, 1.0)])
    assert mask_weight(g, 0) == 0.0
    assert mask_weight(g, 0b01) == 5.0
    assert mask_weight(g, 0b11) == pytest.approx(6.5, abs=1e-12)
    assert mask_weight(graph(4, [(0, 1, 1.5, 1.0), (2, 3, 2.25, 1.0)]), 0b11) == 3.75
    # mask_weight is the ascending-edge-order sum, and mask_weights equals it
    # bit for bit: on every row of the benchmark's matching table and on
    # random masks of the 66-edge complete graph
    bench = benchmark_6v8e().graph
    complete = sampler_graphs()[0]
    cases = [(bench, [int(row) for row in mwm.matching_table(bench)[0]]),
             (complete, sample_masks(complete, rng_from(3), 200))]
    for h, masks in cases:
        for mask in masks:
            total = 0.0
            for e in mask_edges(mask):
                total += h.edges[e].w
            assert mask_weight(h, mask) == total
            assert mask_weights(h, np.array([mask], dtype=mask_dtype(h.m)))[0] == total


def test_fractional_matching_rejects_values_outside_unit_interval():
    g = graph(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
    with pytest.raises(ValueError):
        FractionalMatching(values={0: 1.5}, parent=g.token)


def test_params_table_formulas():
    p = Params(epsilon=0.2, delta=0.1, p_min=0.5)
    assert p.tau == pytest.approx(20 * 0.5 * 0.2**5 * 0.1**2, rel=0, abs=0)
    assert p.eta == 0.02
    assert p.beta == pytest.approx(0.0004)
    assert p.gamma == pytest.approx((1 - 0.04) / (1 + 0.06))
    assert 0 < p.gamma < 1
    assert p.t_theory == math.ceil(1.0 / (p.tau * 0.2))


def test_params_validation():
    with pytest.raises(ValueError):
        Params(epsilon=0.0, delta=0.1, p_min=0.5)
    with pytest.raises(ValueError):
        Params(epsilon=0.2, delta=1.5, p_min=0.5)
    with pytest.raises(ValueError):
        Params(epsilon=0.2, delta=0.1, p_min=0.0)


def test_graph_text_roundtrip():
    g = gen_random_graph(6, 0.7, {"name": "uniform", "low": 0.0, "high": 3.0},
                         {"name": "uniform", "low": 0.25, "high": 1.0}, seed=9)
    text = dumps_graph(g, header_comment="config_hash=deadbeef")
    back = loads_graph(text)
    assert back.n == g.n
    assert back.edges == g.edges  # bit-exact floats via repr
    assert back.token == g.token


# ---------------------------------------------------------------------------
# The realization sampler on graphs with more edges than an int64 holds


def sampler_graphs():
    weights = {"name": "uniform", "low": 0.1, "high": 2.0}
    probs = {"name": "uniform", "low": 0.3, "high": 0.9}
    complete = gen_random_graph(12, 1.0, weights, probs, seed=5)
    generated = gen_random_graph(12, 0.3, weights, probs, seed=3)
    assert (complete.m, generated.m) == (66, 19)
    return [complete, generated]


def reference_mask(draws, probs, edges):
    """Mask with bit ``edges[j]`` set when ``draws[j] < probs[j]``, bit by bit."""
    mask = 0
    for e, u, p in zip(edges, draws, probs):
        if u < p:
            mask |= 1 << e
    return mask


@pytest.mark.parametrize("g", sampler_graphs(), ids=["complete_66e", "generated_19e"])
def test_sample_masks_batch_equals_sequential_draws(g):
    batch = sample_masks(g, rng_from(3), 40).tolist()
    rng = rng_from(3)
    assert batch == [sample_masks(g, rng, 1)[0] for _ in range(40)]
    rng = rng_from(3)
    edges = range(g.m)
    assert batch == [reference_mask(rng.random(g.m), g.probs, edges) for _ in range(40)]
    assert max(batch) <= g.full_mask
    assert max(batch).bit_length() > min(g.m - 4, 62)  # high edges are drawn too


@pytest.mark.parametrize("g", sampler_graphs(), ids=["complete_66e", "generated_19e"])
def test_sample_masks_scope_equals_hidden_edge_loop(g):
    revealed_mask = (1 << 0) | (1 << 5) | (1 << (g.m - 1))
    revealed_bits = (1 << 0) | (1 << (g.m - 1))
    hidden = [i for i in range(g.m) if not (revealed_mask >> i) & 1]
    scoped = sample_masks(g, rng_from(4), 30, scope=hidden)
    assert all(mask & revealed_mask == 0 for mask in scoped)
    rng = rng_from(4)
    p_hidden = np.array([g.edges[i].p for i in hidden])
    expected = [revealed_bits | reference_mask(rng.random(len(hidden)), p_hidden, hidden)
                for _ in range(30)]
    assert [mask | revealed_bits for mask in scoped] == expected


class RecordingStream:
    """A generator that records the shape of every ``random`` call."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


@pytest.mark.parametrize("g", sampler_graphs(), ids=["complete_66e", "generated_19e"])
def test_sample_masks_draws_in_chunks_of_block_len_rows(g, monkeypatch):
    hidden = list(range(1, g.m, 2))
    expected = [sample_masks(g, rng_from(5), 23).tolist(),
                sample_masks(g, rng_from(5), 23, scope=hidden).tolist()]
    monkeypatch.setattr(graph_core, "BLOCK_LEN", 5)
    for scope, masks in zip((None, hidden), expected):
        stream = RecordingStream(rng_from(5))
        assert sample_masks(g, stream, 23, scope=scope).tolist() == masks
        width = g.m if scope is None else len(hidden)
        assert stream.shapes == [(5, width)] * 4 + [(3, width)]


def test_sample_masks_empty_graph_empty_scope_and_zero_count():
    g = sampler_graphs()[1]
    assert sample_masks(graph(3, []), rng_from(0), 4).tolist() == [0, 0, 0, 0]
    assert sample_masks(g, rng_from(0), 3, scope=[]).tolist() == [0, 0, 0]
    assert sample_masks(g, rng_from(0), 0).tolist() == []
    rng = rng_from(0)
    sample_masks(g, rng, 2, scope=[])  # an empty scope reads nothing
    assert sample_masks(g, rng, 1)[0] == sample_masks(g, rng_from(0), 1)[0]


# ---------------------------------------------------------------------------
# Graph text format


@st.composite
def text_graphs(draw, min_edges=0):
    n = draw(st.integers(2 if min_edges else 0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges,
                           max_size=15)) if pairs else []
    weight = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)
    prob = st.floats(0.0, 1.0, exclude_min=True)
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(weight), draw(prob)))
    return graph(n, edges)


def edit_line(text, index, fields):
    lines = text.splitlines()
    lines[index] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, database=None)
@given(text_graphs(), st.text(alphabet="abc =#\n", max_size=20))
def test_graph_text_roundtrip_property(g, comment):
    back = loads_graph(dumps_graph(g, header_comment=comment))
    assert back.n == g.n
    assert back.edges == g.edges
    assert back.token == g.token


@settings(max_examples=200, deadline=None, database=None)
@given(text_graphs(min_edges=1), st.data())
def test_graph_text_rejects_malformed(g, data):
    text = dumps_graph(g)
    row = data.draw(st.integers(1, g.m))  # line 0 is the header
    u, v, w, p = text.splitlines()[row].split()
    bad_weight = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "-1.5"]))
    bad_prob = data.draw(st.one_of(st.floats(max_value=0.0), st.just(math.nan),
                                   st.floats(min_value=1.0, exclude_min=True)))
    bad_vertex = data.draw(st.one_of(st.integers(g.n, g.n + 5), st.integers(-5, -1)))
    fields = data.draw(st.lists(st.just("1"), max_size=6).filter(lambda f: len(f) != 4))
    header_m = data.draw(st.integers(0, g.m + 3).filter(lambda k: k != g.m))
    bad_texts = [
        edit_line(text, row, [u, v, bad_weight, p]),
        edit_line(text, row, [u, v, w, repr(bad_prob)]),
        edit_line(text, row, fields),
        edit_line(text, 0, [str(g.n), str(header_m)]),
        edit_line(text, row, [u, u, w, p]),
        edit_line(text, row, [str(bad_vertex), v, w, p]),
    ]
    for bad in bad_texts:
        with pytest.raises(ValueError):
            loads_graph(bad)
