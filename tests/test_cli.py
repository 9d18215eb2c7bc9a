import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochmatch import augmenter, cli
from stochmatch.cli import ExperimentConfig, cmd_generate, cmd_run, cmd_verify, load_config, main
from stochmatch.estimator import MonteCarloConditional
from stochmatch.exact import MatchingLaw
from stochmatch.gadgets import benchmark_6v8e_graph
from stochmatch.graph_core import Params, read_graph, write_graph
from stochmatch.parallel import BLOCK_LEN


def tiny_run_config(tmp_path, **kw):
    defaults = dict(
        graph={"bundled": "benchmark_6v8e"},
        seed=5,
        trials=120,
        t=[1, 2, 4, 8],
        epsilon=0.2,
        tau=0.02,
        out=str(tmp_path / "results"),
        tables="exact",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_cmd_generate_deterministic(tmp_path):
    config = ExperimentConfig(
        graph={"generator": {"n": 6, "density": 0.6, "seed": 3}},
        seed=3, out=str(tmp_path / "a"))
    path = cmd_generate(config)
    g = read_graph(path)
    config2 = ExperimentConfig(
        graph={"generator": {"n": 6, "density": 0.6, "seed": 3}},
        seed=3, out=str(tmp_path / "b"))
    path2 = cmd_generate(config2)
    assert Path(path).read_text().splitlines()[1:] == Path(path2).read_text().splitlines()[1:]
    assert g.n == 6
    assert Path(path).read_text().startswith("# config_hash=")


def test_cmd_run_outputs_and_rowcount(tmp_path):
    config = tiny_run_config(tmp_path)
    out = cmd_run(config)
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0].startswith("# config_hash=")
    assert agg[1] == "seed,t,ratio,alg_weight,mmQ_weight,mmG_weight,scheme"
    rows = agg[2:]
    assert len(rows) == 5  # 4 sweep points + control
    control = rows[-1].split(",")
    assert control[1] == "-1"
    assert float(control[2]) == 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reference_ratio"] == 0.681
    ts = [entry["t"] for entry in summary["sweep"]]
    assert ts == [1, 2, 4, 8, -1]
    runs_lines = (out / "runs.jsonl").read_text().splitlines()
    assert len(runs_lines) == 1 + 5 * config.trials
    record = json.loads(runs_lines[1])
    assert set(record) == {"seed", "run", "t", "ratio", "scheme_chosen", "weights"}


def test_cmd_run_byte_identical_across_reruns_and_workers(tmp_path):
    # exact tables, and Monte Carlo tables whose y' pool spans two blocks
    for make in (tiny_run_config, pooled_run_config):
        out1 = cmd_run(make(tmp_path / make.__name__ / "r1", workers=1))
        out2 = cmd_run(make(tmp_path / make.__name__ / "r2", workers=1))
        out3 = cmd_run(make(tmp_path / make.__name__ / "r3", workers=2))
        for name in ("aggregate.csv", "runs.jsonl", "ratio_vs_t.txt", "summary.json"):
            a = (out1 / name).read_bytes()
            assert a == (out2 / name).read_bytes()
            assert a == (out3 / name).read_bytes()


def test_cmd_run_makes_one_end_to_end_call(tmp_path, monkeypatch):
    # the whole sweep, control included, shares each run's draws in one call
    calls = []
    sweep = augmenter.end_to_end

    def counting(*args, **kwargs):
        calls.append(list(args[2]))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(augmenter, "end_to_end", counting)
    monkeypatch.setattr(cli, "end_to_end", counting)
    cmd_run(tiny_run_config(tmp_path / "a", trials=20))
    assert calls == [[1, 2, 4, 8, None]]
    calls.clear()
    cmd_run(tiny_run_config(tmp_path / "b", trials=20, t=[4, 1], control_full_plan=False))
    assert calls == [[1, 4]]


@pytest.mark.parametrize("seed,edges,mode,law_type", [
    (4, 16, "exact", MatchingLaw),
    (1, 17, "monte_carlo", MonteCarloConditional),
])
def test_auto_tables_and_activation_law_follow_the_enumeration_rule(monkeypatch, seed, edges,
                                                                    mode, law_type):
    # one cap, 16 edges: enumerated inputs up to it, sampled ones past it
    budgets = {"x_trials": 200, "q_trials": 50, "pair_trials": 20, "cond_trials": 10}
    config = ExperimentConfig(graph={"generator": {"n": 8, "density": 0.5, "seed": seed}},
                              budgets=budgets)
    g = cli.load_graph(config)
    assert g.m == edges
    tables = augmenter.build_tables_monte_carlo(g, Params.for_graph(g, 0.2, 1 / 576.0), 2,
                                                seed=1, **budgets)
    assert type(tables.law) is law_type
    built = []
    monkeypatch.setattr(cli, "build_tables_exact", lambda *a, **kw: built.append("exact"))
    monkeypatch.setattr(cli, "build_tables_monte_carlo",
                        lambda *a, **kw: built.append("monte_carlo"))
    cli.build_tables(g, config, 2)
    assert built == [mode]


# SHA-256 of the four `run` files for a Monte Carlo table configuration: a
# generated 12-vertex, 21-edge graph, so y' comes from MonteCarloConditional,
# and tau = 0.3, so the augmented scheme wins 3% to 35% of the runs and the
# variance-bounding run reaches the outputs.  A change that moves these
# numbers says why in CHANGES.md and updates them.
MONTE_CARLO_RUN_DIGESTS = {
    "runs.jsonl": "eec3506f9a18d083a6cde503a7aa6f023376e3187bfd541a94ea167b01602f6f",
    "aggregate.csv": "5b195a302c8ff347c7b3527b01f3fae744a60c1a993008a236eb7ee5f35c92ae",
    "ratio_vs_t.txt": "93701bccc558fcbf66e6c2fb7a1c8b03a04982a0ae17e95a1a1f59098a5c8293",
    "summary.json": "9632869ac0cc3b4a57d1bb18ab29cc487abc37c2cb4035b235245324ac0f3053",
}


MONTE_CARLO_GOLDEN_CONFIG = dict(
    graph={"generator": {"n": 12, "density": 0.3, "seed": 4}},
    seed=5, trials=60, t=[1, 2, 4], tau=0.3, tables="monte_carlo",
    budgets={"x_trials": 1000, "q_trials": 200, "pair_trials": 80, "cond_trials": 40})


def test_cmd_run_monte_carlo_tables_golden_digests(tmp_path):
    out = cmd_run(ExperimentConfig(**MONTE_CARLO_GOLDEN_CONFIG, out=str(tmp_path / "mc")))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in MONTE_CARLO_RUN_DIGESTS}
    assert digests == MONTE_CARLO_RUN_DIGESTS


# SHA-256 of the four `run` files where y' is also resampled: the same graph
# at tau = 0.25 with a 500-row pool and cond_trials = 300, so some batch
# reveals have too few pool rows and are counted on 300 rows of their own.
# Moving the resampling stream (a shifted seed, or a key without the
# revealed bits) changes these bytes.
MONTE_CARLO_RESAMPLED_RUN_DIGESTS = {
    "runs.jsonl": "9e909b128969c9d516cc71dd7dde825fd6a543bc4ed38401cbc439628a6b016d",
    "aggregate.csv": "b60e54f6d5c4f66492f9881df8f40ab128ee0cb9967ac0f1ac2cc40b3cc32034",
    "ratio_vs_t.txt": "e62fc4546038259533d22f25c3674b8e57bd4e6db7b74b72826bf3d31e5849ec",
    "summary.json": "bcd70c521cd85247ab1d09c9ba0a4e91d37dd4a44be3c0f03676851852229aab",
}


MONTE_CARLO_RESAMPLED_CONFIG = dict(
    MONTE_CARLO_GOLDEN_CONFIG, trials=400, tau=0.25,
    budgets={"x_trials": 500, "q_trials": 200, "pair_trials": 80, "cond_trials": 300})


def test_cmd_run_resampled_monte_carlo_golden_digests(tmp_path, monkeypatch):
    built = []
    build = cli.build_tables
    monkeypatch.setattr(cli, "build_tables", lambda *args: built.append(build(*args)) or built[0])
    out = cmd_run(ExperimentConfig(**MONTE_CARLO_RESAMPLED_CONFIG, out=str(tmp_path / "mc")))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in MONTE_CARLO_RESAMPLED_RUN_DIGESTS}
    assert digests == MONTE_CARLO_RESAMPLED_RUN_DIGESTS
    [tables] = built
    assert isinstance(tables.law, MonteCarloConditional)
    assert tables.law.resampled_reveals > 0 and tables.law.pooled_reveals > 0
    assert '"scheme_chosen": "augmented"' in (out / "runs.jsonl").read_text()


def pooled_run_config(tmp_path, **kw):
    """The Monte Carlo golden configuration with x, y and pair-alive budgets
    of two blocks, so with 2 workers the y' pool is drawn in worker processes
    and the pooled law goes back to them pickled."""
    budgets = dict(MONTE_CARLO_GOLDEN_CONFIG["budgets"], x_trials=BLOCK_LEN + 1,
                   pair_trials=BLOCK_LEN + 1)
    return ExperimentConfig(**dict(MONTE_CARLO_GOLDEN_CONFIG, budgets=budgets),
                            out=str(tmp_path / "results"), **kw)


# SHA-256 of the four `run` files for an exact-table configuration with
# tau = 0.3: 161 of the 1200 records choose the augmented scheme, so the
# variance-bounding run reaches the outputs, and no Monte Carlo pair-alive
# estimate enters them.  Shifting the variance-bounding inputs by one run
# changes three of the files.
EXACT_RUN_DIGESTS = {
    "runs.jsonl": "483aa77701463a66bc647bd2ca04ee5d976798fdb5036cc9b5ff0cd7b2a08b79",
    "aggregate.csv": "158807de2205e49bf46c42442de149d5a2e447deeb99b21f9e55531ab481ea3a",
    "ratio_vs_t.txt": "d1a44156da7422575e493f3d9f5367165c2b041a7f653e4ee8802c977f2a77f7",
    "summary.json": "8de6fc825bd69836ad52345a2df7eeff1d26c4f004b025d4b8f5474cef9a9966",
}


EXACT_GOLDEN_CONFIG = dict(
    graph={"generator": {"n": 8, "density": 0.35, "seed": 3}},
    tables="exact", tau=0.3, t=[1, 2, 4], trials=300, seed=5)


def test_cmd_run_exact_tables_golden_digests(tmp_path):
    out = cmd_run(ExperimentConfig(**EXACT_GOLDEN_CONFIG, out=str(tmp_path / "exact")))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in EXACT_RUN_DIGESTS}
    assert digests == EXACT_RUN_DIGESTS


def json_dumps_runs(config, results):
    """``runs.jsonl`` as the record-by-record ``json.dumps`` writer wrote it:
    the reference for ``cmd_run``'s template."""
    lines = [json.dumps({"config_hash": config.config_hash()}, sort_keys=True)]
    for result in results:
        columns = (result.alg.tolist(), result.mm_Q.tolist(), result.mm_G.tolist(),
                   result.augmented.tolist())
        for run, (alg, mm_q, mm_g, augmented) in enumerate(zip(*columns)):
            lines.append(json.dumps({
                "seed": config.seed,
                "run": run,
                "t": -1 if result.t is None else result.t,
                "ratio": 1.0 if mm_g <= 0.0 else mm_q / mm_g,
                "scheme_chosen": "augmented" if augmented else "crucial",
                "weights": {"alg": alg, "mm_Q": mm_q, "mm_G": mm_g},
            }, sort_keys=True))
    return "".join(line + "\n" for line in lines).encode()


# perfbench's `generated_mc` round, the two golden configurations, and a
# low-probability graph where some runs realize no edge (per-run ratio 1.0).
RUNS_JSONL_CONFIGS = {
    "generated_mc": dict(
        graph={"generator": {"n": 12, "density": 0.3, "seed": 3}}, seed=1,
        tables="monte_carlo", t=[1, 2, 4, 8], trials=200,
        budgets={"x_trials": 1000, "q_trials": 200, "pair_trials": 80, "cond_trials": 40}),
    "exact_golden": EXACT_GOLDEN_CONFIG,
    "monte_carlo_golden": MONTE_CARLO_GOLDEN_CONFIG,
    "low_p": dict(
        graph={"generator": {"n": 10, "density": 0.4, "seed": 2,
                             "prob_law": {"name": "uniform", "low": 0.05, "high": 0.2}}},
        seed=5, t=[1, 2, 4], trials=300, tau=0.3),
}


@pytest.mark.parametrize("name", RUNS_JSONL_CONFIGS)
def test_runs_jsonl_template_writes_the_json_dumps_bytes(tmp_path, monkeypatch, name):
    results = []
    sweep = cli.end_to_end
    monkeypatch.setattr(cli, "end_to_end", lambda *args: results.extend(sweep(*args)) or results)
    config = ExperimentConfig(**RUNS_JSONL_CONFIGS[name], out=str(tmp_path / name))
    out = cmd_run(config)
    assert (out / "runs.jsonl").read_bytes() == json_dumps_runs(config, results)
    if name == "low_p":
        assert (results[0].mm_G == 0.0).any()


# Synthetic sweeps for the writer's edge cases: per point, the label (None is
# the control) and the alg, mm_Q and mm_G columns; every run is augmented
# when its index is odd.
RUNS_JSONL_EDGE_CASES = {
    "signed_zeros_in_one_column": [
        (1, [0.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -0.0], [2.0, 2.0, 3.0, 3.0])],
    "zero_mm_G_of_either_sign": [
        (2, [0.0, -0.0, 1.5, -0.0], [0.0, -0.0, 0.5, 0.0], [0.0, -0.0, 1.5, 0.0])],
    "values_shared_across_columns_and_points": [
        (1, [0.5, 1.5, 0.5, 1.0], [0.5, 0.5, 1.0, 1.0], [1.0, 1.5, 1.0, 1.0]),
        (4, [1.0, 1.5, 0.5, 1.5], [1.0, 1.5, 0.5, 1.0], [1.0, 1.5, 1.0, 1.0])],
    "exponent_and_long_reprs": [
        (8, [5e-324, 1e16, 1e300, 0.1 + 0.2], [5e-324, 0.1 + 0.2, 1e16, 2.5e-8],
         [1e-5, 0.1 + 0.2, 1e16, 1e-7])],
    "t_zero_and_control_labels": [
        (0, [0.0, 0.25, 0.0], [0.0, 0.25, 0.5], [1.0, 0.75, 0.5]),
        (None, [0.75, 0.25, 0.5], [1.0, 0.75, 0.5], [1.0, 0.75, 0.5])],
    "more_runs_than_one_chunk": [
        (3, [0.1 * k for k in range(8)], [0.2 * (k % 3) for k in range(8)],
         [0.3 * (k % 5) for k in range(8)]),
        (None, [0.4] * 8, [0.3 * (k % 5) for k in range(8)], [0.3 * (k % 5) for k in range(8)])],
}


@pytest.mark.parametrize("name", RUNS_JSONL_EDGE_CASES)
def test_runs_jsonl_edge_cases_write_the_json_dumps_bytes(tmp_path, monkeypatch, name):
    results = [augmenter.E2EResult(t, *(np.array(c, dtype=float) for c in (alg, mm_q, mm_g)),
                                   np.arange(len(alg)) % 2 == 1)
               for t, alg, mm_q, mm_g in RUNS_JSONL_EDGE_CASES[name]]
    monkeypatch.setattr(cli, "build_tables", lambda *args: None)
    monkeypatch.setattr(cli, "end_to_end", lambda *args: results)
    monkeypatch.setattr(cli, "BLOCK_LEN", 3)  # 8 runs make chunks of 3, 3 and 2
    config = tiny_run_config(tmp_path, seed=-7)
    data = (cmd_run(config) / "runs.jsonl").read_bytes()
    assert data == json_dumps_runs(config, results)
    assert len(data.splitlines()) == 1 + sum(len(r.mm_G) for r in results)


@pytest.mark.parametrize("column,value", [("alg", float("nan")), ("mm_Q", float("inf")),
                                          ("mm_G", float("-inf"))])
def test_cmd_run_rejects_non_finite_weights_before_any_output(tmp_path, monkeypatch,
                                                             column, value):
    # repr would write nan where json.dumps writes NaN: the writers would differ
    sweep = cli.end_to_end

    def poisoned(*args):
        results = sweep(*args)
        getattr(results[1], column)[3] = value
        return results

    monkeypatch.setattr(cli, "end_to_end", poisoned)
    with pytest.raises(ValueError, match="non-finite run weight"):
        cmd_run(tiny_run_config(tmp_path, trials=20))
    assert not (tmp_path / "results").exists()


VERIFY_REPORTS_DIGEST = "1a3e5341a8b1e734b61fda59088a5b9f4aa448d042883b8387fa51aa787bae94"


def test_cmd_verify_golden_digest(tmp_path):
    # At 256 trials the 3-standard-error gates false-fail 9 of the seeds
    # 2024-2043; this seed passes.
    config = ExperimentConfig(out=str(tmp_path / "v"), seed=2026, verify_trials=256)
    assert cmd_verify(config) == 0
    data = (tmp_path / "v" / "verify_reports.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == VERIFY_REPORTS_DIGEST


def test_verify_reports_json_equals_the_asdict_bytes(tmp_path, monkeypatch):
    # every report kind and details shape, the forced failure included
    reports = []
    suite = cli.default_suite
    monkeypatch.setattr(cli, "default_suite", lambda **kw: reports.extend(suite(**kw)) or reports)
    config = ExperimentConfig(out=str(tmp_path / "v"), seed=3, verify_trials=64,
                              negative_control=True)
    assert cmd_verify(config) == 1
    assert {r.verdict for r in reports} == {"pass", "fail", "inconclusive"}
    reference = json.dumps({"config_hash": config.config_hash(),
                            "reports": [dataclasses.asdict(r) for r in reports]},
                           sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "v" / "verify_reports.json").read_text() == reference


def test_cmd_verify_byte_identical_across_workers(tmp_path):
    # the pool spans the whole suite: no state may leak from one check to the next
    blobs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        config = ExperimentConfig(out=str(out), seed=2024, verify_trials=BLOCK_LEN + 1,
                                  workers=workers)
        assert cmd_verify(config) == 0
        blobs.append((out / "verify_reports.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cmd_run_ratio_grows_with_t(tmp_path):
    out = cmd_run(tiny_run_config(tmp_path, trials=400))
    summary = json.loads((out / "summary.json").read_text())
    by_t = {entry["t"]: entry["ratio"] for entry in summary["sweep"]}
    assert by_t[8] >= by_t[1]
    assert by_t[-1] == 1.0


def test_cmd_verify_passes_default_and_fails_control(tmp_path):
    config = ExperimentConfig(out=str(tmp_path / "v"), seed=2024, verify_trials=3000)
    assert cmd_verify(config) == 0
    config_bad = ExperimentConfig(out=str(tmp_path / "vbad"), seed=2024,
                                  verify_trials=3000, negative_control=True)
    assert cmd_verify(config_bad) == 1
    payload = json.loads((tmp_path / "vbad" / "verify_reports.json").read_text())
    names = [r["name"] for r in payload["reports"]]
    assert any("positive_covariance_control" in n for n in names)


def test_flag_overrides_and_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 1, "trials": 60, "t": [2], "out": str(tmp_path / "out"),
        "tables": "exact", "tau": 0.02,
    }))
    config = load_config(str(cfg_path), {"seed": 9, "out": None})
    assert config.seed == 9  # flag wins
    assert config.trials == 60  # file value kept
    code = main(["--config", str(cfg_path), "--trials", "40", "run"])
    assert code == 0
    agg = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 2 + 2  # one t + control


def test_main_generate(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": {"generator": {"n": 5, "density": 0.5, "seed": 8}},
        "seed": 8, "out": str(tmp_path / "gen"),
    }))
    assert main(["--config", str(cfg_path), "generate"]) == 0
    g = read_graph(tmp_path / "gen" / "graph.txt")
    assert g.n == 5


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(verify_trials=0)


def test_config_rejects_worker_count_below_one(tmp_path):
    with pytest.raises(ValueError, match="worker count must be >= 1"):
        ExperimentConfig(workers=0)
    with pytest.raises(ValueError, match="worker count must be >= 1, got -2"):
        main(["--workers", "-2", "--out", str(tmp_path / "out"), "verify"])
    assert not (tmp_path / "out").exists()


def test_config_rejects_empty_t(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t": [], "out": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match="at least one plan size"):
        main(["--config", str(cfg_path), "run"])
    assert not (tmp_path / "out").exists()


def test_config_rejects_negative_t(tmp_path):
    with pytest.raises(ValueError, match="plan sizes must be >= 0, got -1"):
        main(["--t", "-1", "--out", str(tmp_path / "out"), "run"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value,message", [
    ("tables", "exactt", "tables must be one of auto, exact, monte_carlo, got 'exactt'"),
    ("tables", "Exact", "tables must be one of .*, got 'Exact'"),
    ("tables", "montecarlo", "tables must be one of .*, got 'montecarlo'"),
    ("budgets", {"x_trial": 5}, "unknown budget 'x_trial'"),
    ("budgets", {"cond_trials": 0}, "budget cond_trials must be an int >= 1, got 0"),
    ("budgets", {"pair_trials": -3}, "budget pair_trials must be an int >= 1, got -3"),
    ("budgets", {"q_trials": 2.5}, "budget q_trials must be an int >= 1, got 2.5"),
])
def test_config_rejects_bad_tables_and_budgets(tmp_path, field, value, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: value, "out": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match=message):
        main(["--config", str(cfg_path), "run"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,field,value,message", [
    ("run", "tau", -1.0, "tau must be > 0, got -1.0"),
    ("run", "tau", 0.0, "tau must be > 0, got 0.0"),
    ("run", "epsilon", 2.0, r"epsilon must be in \(0, 1\)"),
    ("run", "delta", 0.0, r"delta must be in \(0, 1\)"),
    ("run", "trials", 2.5, "trial budget must be an int >= 1, got 2.5"),
    ("run", "trials", True, "trial budget must be an int >= 1, got True"),
    ("verify", "verify_trials", 2.5, "verify trial budget must be an int >= 2, got 2.5"),
    ("run", "t", [1.5], "t must be an int, got 1.5"),
    ("run", "t", [True], "t must be an int, got True"),
    ("run", "t", ["2"], "t must be an int, got '2'"),
    ("run", "seed", 1.5, "seed must be an int, got 1.5"),
    ("run", "seed", "3", "seed must be an int, got '3'"),
    ("run", "workers", True, "workers must be an int, got True"),
    ("run", "workers", 1.5, "workers must be an int, got 1.5"),
    ("run", "epsilon", "0.2", "epsilon must be a number, got '0.2'"),
    ("run", "tau", "0.3", "tau must be a number, got '0.3'"),
    ("run", "control_full_plan", "false", "control_full_plan must be true or false, got 'false'"),
    ("run", "negative_control", 1, "negative_control must be true or false, got 1"),
    ("run", "sead", 3, "unknown config field 'sead'; known: graph, seed, trials, workers"),
    ("verify", "trails", 5, "unknown config field 'trails'; known: graph, seed, trials"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5, "sead": 3}},
     "unknown generator key 'sead'; known: n, density, weight_law, prob_law, seed"),
    ("run", "graph", {"bundle": "benchmark_6v8e"},
     "graph must name one of bundled, file, generator, got {'bundle': 'benchmark_6v8e'}"),
    ("run", "graph", {"bundled": "benchmark_6v8e", "file": "graph.txt"},
     "graph must name one of .*, got {'bundled': 'benchmark_6v8e', 'file': 'graph.txt'}"),
    ("run", "graph", {}, "graph must name one of .*, got {}"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "prob_law": {"name": "uniform", "low": 0.3}}},
     "probability law is missing 'high'"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "weight_law": {"name": "uniform", "high": 2.0}}},
     "weight law is missing 'low'"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "prob_law": {"name": "constant"}}},
     "probability law is missing 'value'"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "weight_law": {"name": "exponential"}}},
     "weight law is missing 'scale'"),
    ("run", "graph", {"generator": {"n": 2.7, "density": 0.5}},
     "generator n must be an int, got 2.7"),
    ("run", "graph", {"generator": {"n": True, "density": 0.5}},
     "generator n must be an int, got True"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5, "seed": 2.9}},
     "generator seed must be an int, got 2.9"),
    ("run", "graph", {"generator": {"n": "6", "density": "0.5"}},
     "generator n must be an int, got '6'"),
    ("run", "graph", {"generator": {"n": 6, "density": "0.5"}},
     "generator density must be a number, got '0.5'"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "prob_law": {"name": "uniform", "low": 0.3, "high": 0.9,
                                                 "scale": 4}}},
     "unknown probability law key 'scale'; known: name, low, high"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "weight_law": {"name": "constant", "value": 1.0,
                                                   "low": 0.1}}},
     "unknown weight law key 'low'; known: name, value"),
    ("run", "budgets", ["x_trials"], r"budgets must be an object, got \['x_trials'\]"),
    ("run", "graph", ["bundled"], r"graph must be an object, got \['bundled'\]"),
    ("run", "graph", {"file": 0}, "graph file must be a path string, got 0"),
    ("run", "graph", {"generator": ["n", "density"]},
     "generator graph source must be an object"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5, "prob_law": "uniform"}},
     "probability law must be an object, got 'uniform'"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5, "weight_law": [0.1, 2.0]}},
     r"weight law must be an object, got \[0.1, 2.0\]"),
    ("run", "out", 5, "out must be a path string, got 5"),
    ("verify", "out", ["results"], r"out must be a path string, got \['results'\]"),
    ("verify", "verify_trials", 1, "verify trial budget must be an int >= 2, got 1"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "weight_law": {"name": "uniform", "low": 0.2,
                                                   "high": float("nan")}}},
     "weight law 'uniform' needs a finite number for 'high', got nan"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "weight_law": {"name": "uniform", "low": 0.2,
                                                   "high": float("inf")}}},
     "weight law 'uniform' needs a finite number for 'high', got inf"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "prob_law": {"name": "uniform", "low": [1], "high": 1}}},
     r"probability law 'uniform' needs a finite number for 'low', got \[1\]"),
    ("run", "graph", {"generator": {"n": 6, "density": 0.5,
                                    "weight_law": {"name": "constant", "value": None}}},
     "weight law 'constant' needs a number for 'value', got None"),
])
def test_bad_config_fails_before_any_output(tmp_path, command, field, value, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 5, "t": [1], "out": str(tmp_path / "out"),
                                    field: value}))
    with pytest.raises(ValueError, match=message):
        main(["--config", str(cfg_path), command])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("top", [[1, 2], "run", 3, None])
def test_config_file_must_hold_an_object(tmp_path, top):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(top))
    with pytest.raises(ValueError, match="config file must hold a JSON object"):
        main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "run"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["n", "density"])
def test_load_graph_names_missing_generator_key(tmp_path, missing):
    generator = {"n": 6, "density": 0.5}
    del generator[missing]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"graph": {"generator": generator},
                                    "out": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match=f"missing '{missing}'"):
        main(["--config", str(cfg_path), "run"])
    assert not (tmp_path / "out").exists()


def test_config_hash_stable_under_key_order():
    a = ExperimentConfig(seed=1, trials=10).config_hash()
    b = ExperimentConfig(trials=10, seed=1).config_hash()
    assert a == b
    c = ExperimentConfig(seed=2, trials=10).config_hash()
    assert a != c


def test_generator_source_loads_without_networkx():
    # the matching table answers every untied query on a generated graph, so
    # networkx is imported only by a networkx solve
    import stochmatch

    src = str(Path(stochmatch.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from stochmatch import cli; "
            "config = cli.ExperimentConfig(graph={'generator': "
            "{'n': 12, 'density': 0.3, 'seed': 3}}); "
            "g = cli.load_graph(config); print(g.m, 'networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["19", "False"]


@pytest.mark.parametrize("source", ["bundled", "file"])
def test_bundled_and_file_sources_load_without_networkx(tmp_path, source):
    # loading a graph builds no law and solves no mask (the generator source
    # is the test above)
    import stochmatch

    path = tmp_path / "graph.txt"
    write_graph(benchmark_6v8e_graph(), path)
    graph = {"bundled": "benchmark_6v8e", "file": str(path)}[source]
    src = str(Path(stochmatch.__file__).resolve().parents[1])
    code = ("import sys, json; sys.path.insert(0, sys.argv[1]); from stochmatch import cli; "
            "g = cli.load_graph(cli.ExperimentConfig(graph=json.loads(sys.argv[2]))); "
            "print(g.m, 'networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src, json.dumps({source: graph})],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["8", "False"]


def test_cli_import_does_not_load_scipy_stats():
    import stochmatch

    src = str(Path(stochmatch.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import stochmatch.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
