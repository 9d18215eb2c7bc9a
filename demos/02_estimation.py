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
from stochmatch.parallel import rng_from
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

# conditional marginal after revealing one batch: freezing the revealed
# bits and resampling everything else is the exact conditional law
e = classes.crucial()[0]
batch_mask = 1 << e
[est] = estimate_y_conditional(g, classes.crucial_mask, [(e, batch_mask, batch_mask)],
                               trials=40_000, rngs=[rng_from(3)])
exact = law.y_prime(e, batch_mask, batch_mask)
print(f"\nconditional membership of edge {e} given it realized: "
      f"estimated {est.value:.4f}, exact {exact:.4f}")
