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

from stochmatch import attenuation_g, exact_vb_enumeration, run_vb
from stochmatch.gadgets import three_path
from stochmatch.parallel import rng_from

gadget = three_path()
law = gadget.law  # the oracle-matching law supplies y and y'
g = gadget.graph

out = run_vb(law, rng_from(5))
print("one run:")
print(f"  arrival order: {out.permutation}")
for v, partner, edge in out.activation_log:
    what = "no active edge" if partner is None else f"activated edge {edge} to {partner}"
    print(f"  vertex {v}: {what}")
print(f"  matching: {out.matching.sorted_edges()}, alive: {sorted(out.alive)}")

dist = exact_vb_enumeration(law)
trials = 50_000
rng = rng_from(6)
active = np.zeros(g.m)
selected = np.zeros(g.m)
for _ in range(trials):
    out = run_vb(law, rng)
    for _v, partner, e in out.activation_log:
        if partner is not None:
            active[e] += 1
    for e in out.matching.edges:
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
