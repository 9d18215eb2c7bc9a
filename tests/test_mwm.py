from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochmatch import mwm
from stochmatch.gadgets import benchmark_6v8e, shared_tie_fixture
from stochmatch.graph_core import (
    WEIGHT_TIE_TOL,
    Edge,
    StochasticGraph,
    gen_random_graph,
    mask_weight,
    sample_masks,
)
from stochmatch.mwm import (
    GraphView,
    brute_force_mwm,
    max_weight_matching,
    mm_edge_mask,
    mm_edge_masks,
)
from stochmatch.parallel import rng_from


def graph(n, weighted_edges):
    return StochasticGraph(
        n=n, edges=tuple(Edge(u, v, w, 1.0) for u, v, w in weighted_edges))


def as_mask(matching):
    return sum(1 << e for e in matching.edges)


def weight(matching, g):
    return mask_weight(g, as_mask(matching))


def test_single_edge():
    g = graph(2, [(0, 1, 5.0)])
    m = max_weight_matching(GraphView(g))
    assert sorted(m.edges) == [0]
    assert weight(m, g) == 5.0


def test_path_middle_heavy():
    # all 4 matchings of the path enumerate to: {}, {ab}=1, {bc}=3, {cd}=1, {ab,cd}=2
    g = graph(4, [(0, 1, 1.0), (1, 2, 3.0), (2, 3, 1.0)])
    m = max_weight_matching(GraphView(g))
    assert sorted(m.edges) == [1]
    assert weight(m, g) == 3.0
    assert weight(brute_force_mwm(GraphView(g)), g) == 3.0


def test_path_outer_pair_wins():
    g = graph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 2.0)])
    m = max_weight_matching(GraphView(g))
    assert sorted(m.edges) == [0, 2]
    assert weight(m, g) == 4.0


def test_triangle_single_edge_weight():
    g = graph(3, [(0, 1, 3.0), (1, 2, 3.0), (0, 2, 3.0)])
    m = max_weight_matching(GraphView(g))
    assert len(m.edges) == 1
    assert weight(m, g) == 3.0


def test_empty_view():
    g = graph(4, [(0, 1, 2.0)])
    m = max_weight_matching(GraphView(g, 0))
    assert len(m.edges) == 0
    assert weight(brute_force_mwm(GraphView(g, 0)), g) == 0.0


def test_brute_force_two_disjoint():
    g = graph(4, [(0, 1, 1.0), (2, 3, 2.0)])
    m = brute_force_mwm(GraphView(g))
    assert sorted(m.edges) == [0, 1]
    assert weight(m, g) == 3.0


def test_brute_force_refuses_large_views():
    g = gen_random_graph(10, 1.0, {"name": "constant", "value": 1.0},
                         {"name": "constant", "value": 0.5}, seed=0)
    assert g.m == 45
    with pytest.raises(ValueError):
        brute_force_mwm(GraphView(g))


def test_brute_force_tie_break_lexicographic():
    # both single-edge optima weigh 1; the smaller index vector wins
    g = graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    m = brute_force_mwm(GraphView(g))
    assert sorted(m.edges) == [0]


def test_wheel_cross_check():
    rng = np.random.default_rng(5)
    edges = [(0, i, float(rng.uniform(0.1, 3.0))) for i in range(1, 6)]
    edges += [(i, i % 5 + 1, float(rng.uniform(0.1, 3.0))) for i in range(1, 6)]
    g = graph(6, edges)
    view = GraphView(g)
    assert weight(max_weight_matching(view), g) == pytest.approx(
        weight(brute_force_mwm(view), g), abs=1e-9)


def test_determinism_on_repeat_calls():
    g = gen_random_graph(8, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "constant", "value": 0.5}, seed=2)
    view = GraphView(g)
    first = max_weight_matching(view)
    for _ in range(5):
        assert max_weight_matching(view).edges == first.edges


def test_oracle_equivalence_random_family():
    rng = np.random.default_rng(99)
    for i in range(150):
        n = int(rng.integers(2, 9))
        g = gen_random_graph(n, float(rng.uniform(0.2, 0.9)),
                             {"name": "uniform", "low": 0.05, "high": 5.0},
                             {"name": "constant", "value": 0.5},
                             seed=int(rng.integers(0, 2**31)))
        if g.m > 18:
            continue
        view = GraphView(g)
        fast = weight(max_weight_matching(view), g)
        slow = weight(brute_force_mwm(view), g)
        assert abs(fast - slow) <= 1e-9, (i, fast, slow)


def test_monotone_in_added_edges():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        g = gen_random_graph(n, 0.7, {"name": "uniform", "low": 0.1, "high": 2.0},
                             {"name": "constant", "value": 0.5},
                             seed=int(rng.integers(0, 2**31)))
        if g.m < 2:
            continue
        order = list(rng.permutation(g.m))
        mask = 0
        prev = 0.0
        for e in order:
            mask |= 1 << int(e)
            w = weight(max_weight_matching(GraphView(g, mask)), g)
            assert w >= prev - 1e-12
            prev = w


def test_masked_view_restricts_edges():
    g = graph(4, [(0, 1, 5.0), (1, 2, 10.0), (2, 3, 5.0)])
    m = max_weight_matching(GraphView(g, 0b101))
    assert sorted(m.edges) == [0, 2]
    with pytest.raises(ValueError):
        GraphView(g, 1 << 10)


def is_matching(g, mask):
    used = 0
    for e in range(g.m):
        if (mask >> e) & 1:
            u, v = g.endpoints(e)
            if (used >> u) & 1 or (used >> v) & 1:
                return False
            used |= (1 << u) | (1 << v)
    return True


def test_matching_table_lists_every_matching_heaviest_first():
    g = gen_random_graph(7, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "constant", "value": 0.5}, seed=4)
    rows, weights = mwm.matching_table(g)
    expected = {mask for mask in range(1 << g.m) if is_matching(g, mask)}
    assert len(rows) == len(expected) and set(int(r) for r in rows) == expected
    assert np.all(np.diff(weights) <= 0.0)
    for row, w in zip(rows, weights):
        assert w == pytest.approx(sum(g.edges[e].w for e in range(g.m) if (int(row) >> e) & 1))


def test_table_matches_networkx_on_every_benchmark_mask():
    # benchmark_6v8e is the tie fixture: some realizations have two optima
    g = benchmark_6v8e().graph
    assert mwm.matching_table(g) is not None
    for mask in range(1 << g.m):
        assert mm_edge_mask(g, mask) == mwm._solve_networkx(g, mask), mask


def test_tied_masks_are_scanned_once(monkeypatch):
    # a tied mask goes from the batched scan straight to networkx: no mask
    # the batch has scanned is scanned again
    bench = benchmark_6v8e().graph
    g = StochasticGraph(n=bench.n, edges=bench.edges)  # a fresh copy: empty memo
    masks = np.arange(1 << g.m, dtype=np.int64)
    expected = [mwm._solve_networkx(g, mask) for mask in masks.tolist()]
    scanned = []
    table_answers = mwm._table_answers

    def no_rescan(rows, weights, chunk):
        if scanned:
            raise AssertionError("a mask was scanned twice")
        scanned.append(chunk)
        return table_answers(rows, weights, chunk)

    monkeypatch.setattr(mwm, "_table_answers", no_rescan)
    assert mm_edge_masks(g, masks).tolist() == expected
    assert len(g._caches["mm"]) > 0  # the fixture has tied masks


def test_networkx_answer_sharing_a_vertex_is_rejected(monkeypatch):
    import networkx

    g = graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    monkeypatch.setattr(networkx, "max_weight_matching",
                        lambda *_args, **_kwargs: {(0, 1), (2, 1)})
    with pytest.raises(ValueError):
        mwm._solve_networkx(g, g.full_mask)


def test_tie_and_zero_weight_fall_back_to_networkx(monkeypatch):
    g = graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.0), (0, 3, 2.0)])
    calls = []
    solve_nx = mwm._solve_networkx
    monkeypatch.setattr(mwm, "_solve_networkx",
                        lambda g_, mask: calls.append(mask) or solve_nx(g_, mask))
    assert mm_edge_mask(g, 0b0011) == solve_nx(g, 0b0011)  # two weight-1 optima
    assert mm_edge_mask(g, 0b0101) == solve_nx(g, 0b0101)  # optional zero-weight edge
    assert calls == [0b0011, 0b0101]
    assert mm_edge_mask(g, 0b1010) == 0b1010  # unique optimum: answered by the table
    assert mm_edge_mask(g, 0) == solve_nx(g, 0)
    assert calls == [0b0011, 0b0101]


WEIGHTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                    st.floats(0.01, 5.0, allow_nan=False))


@st.composite
def graphs_and_masks(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    g = graph(n, [(u, v, draw(WEIGHTS)) for u, v in chosen])
    masks = draw(st.lists(st.integers(0, g.full_mask), min_size=1, max_size=12))
    return g, masks + [g.full_mask]


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs_and_masks())
def test_table_equals_networkx_and_brute_force(case):
    g, masks = case
    assert mwm.matching_table(g) is not None
    for mask in masks:
        bits = mm_edge_mask(g, mask)
        assert bits == mwm._solve_networkx(g, mask)
        assert mask_weight(g, bits) == pytest.approx(
            weight(brute_force_mwm(GraphView(g, mask)), g), abs=1e-9)


def test_over_cap_graph_uses_networkx_and_caches_no_table(monkeypatch):
    def fresh():
        return gen_random_graph(8, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                                {"name": "constant", "value": 0.5}, seed=6)

    reference = fresh()
    masks = list(range(0, 1 << reference.m, 97))
    expected = [mm_edge_mask(reference, mask) for mask in masks]
    assert mwm.matching_table(reference) is not None

    monkeypatch.setattr(mwm, "TABLE_MAX_MATCHINGS", 16)
    builds, solves = [], []
    build, solve_nx = mwm._build_table, mwm._solve_networkx
    monkeypatch.setattr(mwm, "_build_table", lambda g_: builds.append(1) or build(g_))
    monkeypatch.setattr(mwm, "_solve_networkx",
                        lambda g_, mask: solves.append(mask) or solve_nx(g_, mask))
    g = fresh()
    assert [mm_edge_mask(g, mask) for mask in masks] == expected
    assert g._caches["mm_table"] is None
    assert builds == [1]
    assert solves == masks


def test_memo_is_cleared_at_its_cap(monkeypatch):
    # only networkx answers are memoized, so the graph must have no table
    monkeypatch.setattr(mwm, "MM_CACHE_MAX", 8)
    monkeypatch.setattr(mwm, "TABLE_MAX_MATCHINGS", 16)
    g = gen_random_graph(8, 0.5, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "constant", "value": 0.5}, seed=8)
    assert mwm.matching_table(g) is None
    masks = list(range(0, 1 << g.m, (1 << g.m) // 100))
    sizes = []
    for mask in masks:
        bits = mm_edge_mask(g, mask)
        sizes.append(len(g._caches["mm"]))
        assert 1 <= sizes[-1] <= 8
        assert bits == mwm._solve_networkx(g, mask)
        assert as_mask(max_weight_matching(GraphView(g, mask))) == bits
        assert all(type(k) is int and type(v) is int for k, v in g._caches["mm"].items())
    assert sizes.count(8) > 1 and sizes.count(1) > 1  # filled and cleared, more than once


# ---------------------------------------------------------------------------
# mm_edge_masks: the batched table scan against the per-mask answers


def assert_batch_equals_per_mask(g, masks):
    """``mm_edge_masks`` equals ``mm_edge_mask`` and networkx mask by mask,
    and the brute force wherever the optimum is untied."""
    answers = mm_edge_masks(g, masks)
    assert answers.dtype == masks.dtype and answers.shape == masks.shape
    answers = answers.tolist()
    assert answers == [mm_edge_mask(g, mask) for mask in masks.tolist()]
    for mask, bits in zip(masks.tolist(), answers):
        assert bits == mwm._solve_networkx(g, mask), mask
        weights = sorted((mask_weight(g, row) for row in range(1 << g.m)
                          if row & ~mask == 0 and is_matching(g, row)), reverse=True)
        if len(weights) == 1 or weights[0] - weights[1] > 1e-9:
            assert bits == as_mask(brute_force_mwm(GraphView(g, mask))), mask


@st.composite
def graphs_and_mask_arrays(draw):
    g, _masks = draw(graphs_and_masks())
    masks = draw(st.lists(st.integers(0, g.full_mask), max_size=24))
    repeats = draw(st.lists(st.sampled_from(masks), max_size=8)) if masks else []
    order = draw(st.permutations(masks + repeats))
    return g, np.array(order, dtype=np.int64)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs_and_mask_arrays(), st.integers(1, 5))
def test_mm_edge_masks_equals_per_mask_answers(case, per_chunk):
    # duplicates, the empty array, ties and zero weights, and chunks of
    # 1 to 5 masks, so the distinct masks cross chunk boundaries
    g, masks = case
    rows, _weights = mwm.matching_table(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mwm, "SCAN_CELLS", per_chunk * len(rows))
        assert_batch_equals_per_mask(g, masks)


def test_mm_edge_masks_on_the_tie_fixtures_in_one_chunk():
    zero_weight = graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.0), (0, 3, 2.0)])
    for g in (shared_tie_fixture().graph, benchmark_6v8e().graph, zero_weight):
        masks = np.arange(1 << g.m, dtype=np.int64)
        assert_batch_equals_per_mask(g, np.concatenate([masks[::-1], masks[:5]]))
    assert mm_edge_masks(zero_weight, np.zeros(0, dtype=np.int64)).tolist() == []


def test_mm_edge_masks_without_a_table(monkeypatch):
    over_cap = gen_random_graph(8, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                                {"name": "constant", "value": 0.5}, seed=6)
    masks = np.arange(0, 1 << over_cap.m, 97, dtype=np.int64)
    expected = [mm_edge_mask(over_cap, mask) for mask in masks.tolist()]
    monkeypatch.setattr(mwm, "TABLE_MAX_MATCHINGS", 16)
    g = gen_random_graph(8, 0.6, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "constant", "value": 0.5}, seed=6)  # a fresh copy
    answers = mm_edge_masks(g, np.concatenate([masks, masks[:3]]))
    assert g._caches["mm_table"] is None
    assert answers.dtype == np.int64 and answers.tolist() == expected + expected[:3]

    wide = gen_random_graph(12, 1.0, {"name": "uniform", "low": 0.1, "high": 2.0},
                            {"name": "uniform", "low": 0.3, "high": 0.9}, seed=5)
    assert wide.m == 66 and mwm.matching_table(wide) is None
    masks = np.array([wide.full_mask, 0, (1 << 65) | 1, wide.full_mask], dtype=object)
    answers = mm_edge_masks(wide, masks)
    assert answers.dtype == object and answers.shape == (4,)
    assert answers.tolist() == [mwm._solve_networkx(wide, mask) for mask in masks.tolist()]
    assert all(type(bits) is int for bits in answers.tolist())


# ---------------------------------------------------------------------------
# The staged scan: growing prefixes of the table, heaviest rows first


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs_and_mask_arrays(), st.integers(1, 2), st.integers(2, 4), st.integers(1, 16))
def test_staged_scan_equals_networkx(case, first_rows, growth, cells):
    # first prefixes of 1-2 rows, so every stage runs, with the ties and
    # zero weights of WEIGHTS, and chunks so small that the masks of a stage
    # cross chunk boundaries
    g, masks = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mwm, "SCAN_FIRST_ROWS", first_rows)
        mp.setattr(mwm, "SCAN_GROWTH", growth)
        mp.setattr(mwm, "SCAN_CELLS", cells)
        answers = mm_edge_masks(g, masks)
    assert answers.tolist() == [mwm._solve_networkx(g, mask) for mask in masks.tolist()]


@pytest.mark.parametrize("first_rows", [1, 2])
def test_staged_scan_on_the_tie_fixtures(monkeypatch, first_rows):
    monkeypatch.setattr(mwm, "SCAN_FIRST_ROWS", first_rows)
    zero_weight = graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.0), (0, 3, 2.0)])
    for g in (shared_tie_fixture().graph, benchmark_6v8e().graph, zero_weight):
        masks = np.arange(1 << g.m, dtype=np.int64)
        expected = [mwm._solve_networkx(g, mask) for mask in masks.tolist()]
        assert mm_edge_masks(g, masks).tolist() == expected
        # a lone mask: one pass over the whole table
        assert [int(mm_edge_masks(g, masks[i:i + 1])[0]) for i in range(len(masks))] == expected


def full_scan(rows, weights, mask):
    """The table's answer for one mask from a scan of every row: the scan the
    staged one replaced, kept as its reference."""
    inside = (rows & np.int64(~mask)) == 0
    first = int(inside.argmax())
    inside[first] = False
    second = int(inside.argmax())
    tied = inside[second] and weights[first] - weights[second] <= WEIGHT_TIE_TOL
    return -1 if tied else int(rows[first])


def test_staged_scan_equals_the_full_scan_on_a_large_table():
    g = gen_random_graph(16, 0.33, {"name": "uniform", "low": 0.1, "high": 2.0},
                         {"name": "uniform", "low": 0.3, "high": 0.9}, seed=3)
    rows, weights = mwm.matching_table(g)
    assert g.m == 40 and len(rows) == 76_685
    masks = sample_masks(g, rng_from(9), 2000)
    answers = mwm._table_answers(rows, weights, masks).tolist()
    assert answers == [full_scan(rows, weights, mask) for mask in masks.tolist()]
    assert [mwm._table_answers(rows, weights, masks[i:i + 1]).tolist()[0]
            for i in range(300)] == answers[:300]
    # some answer lies in each stage's new rows
    position = {row: i for i, row in enumerate(rows.tolist())}
    stages = Counter(int(np.searchsorted([64, 256, 1024, 4096, 16_384], position[a],
                                         side="right")) for a in answers)
    assert sorted(stages) == list(range(6)), stages
