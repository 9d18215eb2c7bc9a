#!/usr/bin/env python3
"""Monte Carlo estimation of the probabilities the pipeline consumes.

Everything downstream runs on estimates: the chance an edge joins the
optimum (x), the chance it joins the oracle matching on the crucial side
(y), and conditional variants given partial reveals.  On small instances
each estimate can be compared against exhaustive enumeration.
"""

from stochmatch import estimate_x, estimate_y, estimate_y_conditional
from stochmatch.exact import MatchingLaw, exact_x
from stochmatch.gadgets import benchmark_6v8e
from stochmatch.graph_core import mask_edges
from stochmatch.sparsifier import classify_edges

gadget = benchmark_6v8e()
g = gadget.graph

x_hat = estimate_x(g, trials=40_000, seed=1)
x_exact = exact_x(g)
print("edge   x_hat    +-3se     exact")
for e in range(g.m):
    est = x_hat[e]
    print(f"{e:>4}   {est.value:.4f}  {3 * est.std_err:.4f}   {x_exact[e]:.4f}")

classes = classify_edges(x_exact, tau=0.02)
print(f"\nthreshold 0.02 splits edges into crucial {classes.crucial()} "
      f"and non-crucial {classes.noncrucial()}")

# estimate_y also returns the rows it counted y on: the pool from which
# MonteCarloConditional answers batch reveals on graphs too large to enumerate
y_hat, _rows = estimate_y(g, classes.crucial_mask, trials=40_000, seed=2)
law = MatchingLaw.from_pipeline(g, classes.crucial_mask)
y_exact = law.y
print("\ncrucial-edge oracle-matching marginals:")
for e in classes.crucial():
    print(f"  edge {e}: y_hat {y_hat[e].value:.4f}  exact {y_exact[e]:.4f}")

# conditional marginals after revealing one batch, the crucial edges at the
# vertex that has the most, all realized: freezing the revealed bits and
# drawing everything else is the exact conditional law, and every realized
# edge of the batch is counted on the same rows, so the sampled y' of a batch
# sum to at most 1
batches = [sum(1 << f for f in g.incident[u] if f in classes.crucial()) for u in range(g.n)]
v = max(range(g.n), key=lambda u: batches[u].bit_count())
batch_mask = batches[v]
[(counts, rows)] = estimate_y_conditional(g, classes.crucial_mask, [(batch_mask, batch_mask)],
                                          trials=40_000, seed=3)
print(f"\nconditional membership given the crucial edges at vertex {v} realized "
      f"({rows} rows):")
for f, count in zip(mask_edges(batch_mask), counts.tolist()):
    print(f"  edge {f}: y' sampled {count / rows:.4f}  exact "
          f"{law.y_prime(f, batch_mask, batch_mask):.4f}")
print(f"  batch sum: sampled {counts.sum() / rows:.4f}")
