"""Weighted stochastic matching via sparse query plans.

Pipeline: estimate per-edge optimum-membership probabilities, build a query
plan as a union of sampled optimal matchings, split edges into crucial and
non-crucial at a threshold, run the variance-bounding matching on the
realized crucial edges, augment with a rounded fractional matching on alive
non-crucial edges, and keep the heavier of the two schemes.  The verifier
module checks the probabilistic guarantees of every stage against
enumeration oracles.
"""

from .augmenter import (
    PipelineTables,
    SurvivalRecord,
    build_fractional,
    build_g_table,
    build_tables_exact,
    build_tables_monte_carlo,
    combine,
    end_to_end,
    round_fractional,
)
from .exact import (
    EnumerationTooLarge,
    MatchingLaw,
    exact_x,
    prob_in_plan,
)
from .estimator import (
    MonteCarloConditional,
    ProbEstimate,
    estimate_pair_alive,
    estimate_q,
    estimate_x,
    estimate_y,
    estimate_y_conditional,
)
from .graph_core import (
    Edge,
    FractionalMatching,
    Params,
    StochasticGraph,
    gen_random_graph,
    read_graph,
    write_graph,
)
from .mwm import GraphView, Matching, brute_force_mwm, max_weight_matching
from .sparsifier import EdgeClasses, classify_edges, max_degree
from .vb_matching import (
    activate_batch,
    attenuation_g,
    draw_run_inputs,
    exact_vb_enumeration,
    run_vb,
)
from .verifier import (
    CheckReport,
    check_activation,
    check_crucial_coverage,
    check_concentration_y,
    check_negative_association,
    check_pair_alive,
    check_selectability,
    check_var_z,
    default_suite,
    two_point_covariance,
)

__version__ = "0.1.0"
