#!/usr/bin/env python3
"""Stochastic graphs, realizations, and sparse query plans.

A stochastic graph carries a survival probability per edge.  Because querying
an edge is expensive, we commit in advance to a sparse plan: the union of
maximum-weight matchings of independently sampled realizations.  The plan's
max-degree is bounded by the number of rounds, yet its realized part keeps
near-optimal matchings with high probability.
"""

import numpy as np

from stochmatch import (
    GraphView,
    build_query_plan,
    gen_random_graph,
    max_weight_matching,
    weight_of,
)
from stochmatch.exact import exact_x, prob_in_plan
from stochmatch.graph_core import sample_mask
from stochmatch.parallel import rng_from

g = gen_random_graph(
    n=8, density=0.5,
    weight_law={"name": "uniform", "low": 0.2, "high": 3.0},
    prob_law={"name": "uniform", "low": 0.4, "high": 0.9},
    seed=42,
)
print(f"graph: {g.n} vertices, {g.m} edges, p_min = {g.p_min:.3f}")

rng = rng_from(7)
realization = sample_mask(g, rng)
print(f"one realization keeps {bin(realization).count('1')}/{g.m} edges")

opt = max_weight_matching(GraphView(g, realization))
print(f"optimum of that realization: edges {opt.sorted_edges()}, "
      f"weight {weight_of(opt, g):.3f}")

print("\nquery plans (union of t sampled optima):")
print(f"{'t':>3} {'edges':>6} {'max degree':>11}")
for t in (1, 2, 4, 8, 16):
    plan = build_query_plan(g, t, seed=3)
    print(f"{t:>3} {len(plan.edges()):>6} {plan.max_degree(g):>11}")

x = exact_x(g)
t = 8
print("\nper-edge plan membership matches the closed form 1-(1-x)^t:")
draws = 4000
hits = np.zeros(g.m)
for i in range(draws):
    plan = build_query_plan(g, t, seed=100 + i)
    for e in plan.edges():
        hits[e] += 1
closed = prob_in_plan(x, t)
for e in range(min(g.m, 6)):
    print(f"  edge {e}: measured {hits[e] / draws:.3f}  closed form {closed[e]:.3f}")
