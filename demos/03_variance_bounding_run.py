#!/usr/bin/env python3
"""Anatomy of the variance-bounding matching run.

Vertices arrive in random order; each arrival reveals its edges to earlier
vertices and at most one realized edge becomes active, with probability
3y'/(3+2y).  Active edges are matched greedily; vertices that never touch
an active edge stay alive and can host the non-crucial augmentation later.
The activation marginal equals 3y/(3+2y) for every arrival order, which the
enumeration oracle certifies digit for digit.
"""

import numpy as np

from stochmatch import attenuation_g, draw_run_inputs, exact_vb_enumeration, run_vb
from stochmatch.gadgets import three_path
from stochmatch.graph_core import mask_edges
from stochmatch.parallel import rng_from

gadget = three_path()
law = gadget.law  # the oracle-matching law supplies y and y'
g = gadget.graph

# A run is a function of its inputs: an arrival order, a realization and
# one uniform per vertex, read by the arrivals whose batch has a realized
# edge.  run_vb runs a block of them, one run per row; here a block of one.
perms, reals, uniforms = draw_run_inputs(law, rng_from(5), 1)
out = run_vb(law, perms, reals, uniforms)
print("one run:")
print(f"  arrival order: {perms[0].tolist()}")
print(f"  realized crucial edges: {mask_edges(reals[0])}")
print(f"  activated edges: {mask_edges(out.activated[0])}")
print(f"  matching: {mask_edges(out.matching[0])}, alive: {mask_edges(out.alive[0])}")

# Many runs at once: the block advances them one arrival step at a time.
dist = exact_vb_enumeration(law)
trials = 50_000
block = run_vb(law, *draw_run_inputs(law, rng_from(6), trials))
active = np.zeros(g.m)
selected = np.zeros(g.m)
for activated, matched in zip(block.activated, block.matching):
    for e in mask_edges(activated):
        active[e] += 1
    for e in mask_edges(matched):
        selected[e] += 1

print(f"\n{trials} runs vs the enumeration oracle:")
print("edge   active(mc)  active(exact)  g(y)     matched(mc)  matched(exact)  (8/15)y")
for e in range(g.m):
    y = float(law.y[e])
    print(f"{e:>4}   {active[e] / trials:.4f}      {dist.edge_active_prob(e):.4f}"
          f"         {attenuation_g(y):.4f}   {selected[e] / trials:.4f}"
          f"       {dist.edge_selected_prob(e):.4f}          {8 * y / 15:.4f}")

print("\njoint alive probabilities of the non-adjacent endpoint pairs:")
for u, v in ((0, 2), (1, 3), (0, 3)):
    print(f"  P[{u} and {v} alive] = {dist.pair_alive_prob(u, v):.4f} "
          f"(floor 1/576 = {1 / 576:.5f})")
