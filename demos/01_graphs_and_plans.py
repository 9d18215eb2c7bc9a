#!/usr/bin/env python3
"""Stochastic graphs, realizations, and sparse query plans.

A stochastic graph carries a survival probability per edge.  Because querying
an edge is expensive, we commit in advance to a sparse plan: the union of
maximum-weight matchings of independently sampled realizations.  The plan's
max-degree is bounded by the number of rounds, yet its realized part keeps
near-optimal matchings with high probability.
"""

import numpy as np

from stochmatch import gen_random_graph
from stochmatch.exact import exact_x, prob_in_plan
from stochmatch.graph_core import mask_edges, mask_weight, sample_masks
from stochmatch.mwm import mm_edge_mask
from stochmatch.parallel import rng_from
from stochmatch.sparsifier import draw_plans, max_degree

g = gen_random_graph(
    n=8, density=0.5,
    weight_law={"name": "uniform", "low": 0.2, "high": 3.0},
    prob_law={"name": "uniform", "low": 0.4, "high": 0.9},
    seed=42,
)
print(f"graph: {g.n} vertices, {g.m} edges, p_min = {g.p_min:.3f}")

rng = rng_from(7)
[realization] = sample_masks(g, rng, 1).tolist()
print(f"one realization keeps {bin(realization).count('1')}/{g.m} edges")

opt = mm_edge_mask(g, realization)
print(f"optimum of that realization: edges {mask_edges(opt)}, "
      f"weight {mask_weight(g, opt):.3f}")

print("\nquery plans (union of t sampled optima; one stream, so the plans nest):")
print(f"{'t':>3} {'edges':>6} {'max degree':>11}")
for t in (1, 2, 4, 8, 16):
    [q_mask] = draw_plans(g, t, rng_from(3), 1).tolist()
    print(f"{t:>3} {q_mask.bit_count():>6} {max_degree(g, q_mask):>11}")

x = exact_x(g)
t = 8
print("\nper-edge plan membership matches the closed form 1-(1-x)^t:")
draws = 4000
hits = np.zeros(g.m)
for q_mask in draw_plans(g, t, rng_from(100), draws):
    hits[mask_edges(q_mask)] += 1
closed = prob_in_plan(x, t)
for e in range(min(g.m, 6)):
    print(f"  edge {e}: measured {hits[e] / draws:.3f}  closed form {closed[e]:.3f}")
