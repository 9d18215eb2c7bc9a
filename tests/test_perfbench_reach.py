"""The benchmark's tracer, stopwatch and output checks still find every name
they use.

``perfbench/tracer.py`` wraps package functions by name from outside the
package, so renaming or deleting one of them breaks only a traced benchmark
run.  These tests load that file from the checkout, install each recorder,
run a small command under the tracer, and check that uninstalling puts the
package back as it was.  ``perfbench/checks.py`` calls the oracles and reads
their matchings' edges; it is loaded the same way and run on small inputs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import networkx

from stochmatch import cli, verifier
from stochmatch.exact import exact_x
from stochmatch.gadgets import benchmark_6v8e, relaxed_suite_8v

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def package_bindings():
    """Every attribute of every loaded package module and of the classes it
    defines, and networkx's solver."""
    out = {("networkx", "max_weight_matching"): networkx.max_weight_matching}
    for name, module in list(sys.modules.items()):
        if name == "stochmatch" or name.startswith("stochmatch."):
            for attr, value in vars(module).items():
                out[name, attr] = value
                if isinstance(value, type) and value.__module__ == name:
                    for key, member in vars(value).items():
                        out[name, f"{attr}.{key}"] = member
    return out


def test_tracer_installs_records_a_run_and_uninstalls(tmp_path):
    tracer_mod = load_tracer()
    before = package_bindings()
    tracer = tracer_mod.Tracer()
    tracer_mod.install_tracer(tracer)
    try:
        assert package_bindings() != before
        cli.main(["--trials", "5", "--t", "2", "--out", str(tmp_path / "run"), "run"])
    finally:
        tracer.uninstall()
    assert package_bindings() == before
    metrics = tracer_mod.layer_metrics(tracer.self_times(), tracer.counts, 1)
    assert metrics["vb_matching.runs"][0] > 0
    assert metrics["sparsifier.plan_rounds"][0] > 0
    assert metrics["exact.cond_queries"][0] > 0


def test_tracer_records_the_sampled_conditionals(tmp_path):
    # 19 edges, past the enumeration cap: y and y' are sampled, and the
    # conditional estimates go through the traced estimator function
    tracer_mod = load_tracer()
    before = package_bindings()
    tracer = tracer_mod.Tracer()
    tracer_mod.install_tracer(tracer)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": {"generator": {"n": 12, "density": 0.3, "seed": 3}},
        "tables": "monte_carlo", "trials": 5, "t": [2],
        "budgets": {"x_trials": 100, "q_trials": 20, "pair_trials": 10, "cond_trials": 5}}))
    try:
        cli.main(["--config", str(config), "--out", str(tmp_path / "mc"), "run"])
    finally:
        tracer.uninstall()
    assert package_bindings() == before
    metrics = tracer_mod.layer_metrics(tracer.self_times(), tracer.counts, 1)
    assert metrics["estimator.cond_queries"][0] > 0
    assert metrics["estimator.y_s"][0] > 0


def test_tracer_records_the_verifier_runs(tmp_path):
    tracer_mod = load_tracer()
    before = package_bindings()
    tracer = tracer_mod.Tracer()
    tracer_mod.install_tracer(tracer)
    config = tmp_path / "config.json"
    config.write_text('{"verify_trials": 64}')
    try:
        cli.main(["--config", str(config), "--seed", "3", "--out", str(tmp_path / "v"),
                  "verify"])
    finally:
        tracer.uninstall()
    assert package_bindings() == before
    metrics = tracer_mod.layer_metrics(tracer.self_times(), tracer.counts, 1)
    assert metrics["vb_matching.runs"][0] > 0
    clips = metrics["vb_matching.clip_events"][0]
    assert isinstance(clips, (int, float)) and not isinstance(clips, bool)


def test_stopwatch_installs_and_uninstalls_for_run_and_verify():
    tracer_mod = load_tracer()
    before = package_bindings()
    for command in ("run", "verify"):
        watch = tracer_mod.Stopwatch()
        tracer_mod.install_stopwatch(watch, command)
        try:
            assert package_bindings() != before
        finally:
            watch.uninstall()
        assert package_bindings() == before


def test_tracer_counts_every_plan_round_of_a_check():
    # draw_plans must call plan_round_masks through the module global, or the
    # tracer's `sparsifier.plan` span misses the rounds of every check
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    tracer_mod.install_tracer(tracer)
    gadget = relaxed_suite_8v()
    try:
        verifier.check_negative_association(gadget, 300, 7)
    finally:
        tracer.uninstall()
    assert tracer.counts["sparsifier.plan_rounds"] == 300 * gadget.t


def test_benchmark_output_checks_pass_on_the_package():
    # the checks build GraphView masks and read .edges of max_weight_matching
    # and brute_force_mwm; the graph is the generated_mc workload's
    checks = load_perfbench("checks")
    config = cli.ExperimentConfig(graph={"generator": {"n": 12, "density": 0.3, "seed": 3}})
    assert checks.check_generated(cli.load_graph(config), [], 1) == []
    g = benchmark_6v8e().graph
    truth = checks.expected_mm_weight_brute_force(g)
    assert abs(truth - float(exact_x(g) @ g.weights)) <= checks.WEIGHT_TOL
