#!/usr/bin/env python3
"""The full pipeline on the bundled benchmark: ratio versus plan size.

Per run: draw a fresh plan and a fresh realization, run the variance-bounding
matching on all realized crucial edges, lay a fractional matching on queried
realized non-crucial edges between alive vertices, round it, and keep the
heavier of the crucial-only and augmented schemes.  The headline quantity is
E[w(MM(plan realized))] / E[w(MM(realization))]; the query-everything control
pins the scale at exactly 1.
"""

from stochmatch import Params, build_tables_exact, end_to_end
from stochmatch.gadgets import benchmark_6v8e

gadget = benchmark_6v8e()
g = gadget.graph
params = Params(epsilon=gadget.epsilon, delta=1 / 576.0, p_min=g.p_min)
tables = build_tables_exact(g, params, gadget.t, tau=gadget.tau)

print(f"benchmark: {g.n} vertices, {g.m} edges, p_min={g.p_min}, "
      f"crucial={tables.classes.crucial()}, non-crucial={tables.classes.noncrucial()}")
print(f"reference line: 0.681\n")

# One call runs the whole sweep: each run's realization, variance-bounding
# run and plan rounds are drawn once and shared by every t (None is the
# query-everything control).
runs = 3000
*sweep, control = end_to_end(g, tables, [1, 2, 4, 8, 16, None], runs=runs, seed=17)
print(f"{'t':>5} {'ratio':>8} {'+-3se':>8} {'alg ratio':>10} {'augmented wins':>15}")
for res in sweep:
    aug = res.augmented.mean()
    print(f"{res.t:>5} {res.ratio:>8.4f} {3 * res.ratio_std_err():>8.4f} "
          f"{res.alg_ratio:>10.4f} {aug:>15.3f}")

print(f"{'Q=E':>5} {control.ratio:>8.4f} {3 * control.ratio_std_err():>8.4f} "
      f"{control.alg_ratio:>10.4f}")
