"""Experiment orchestration: configuration, persistence, reports.

Subcommands: ``generate`` (write a graph file), ``run`` (end-to-end ratio
experiments with a t-sweep and a query-everything control row), ``verify``
(the statistical check suite; nonzero exit on a gated failure).  Flags
override config-file fields; every output file carries the config hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augmenter import (
    E2EResult,
    PipelineTables,
    build_tables_exact,
    build_tables_monte_carlo,
    end_to_end,
)
from .exact import enumerable
from .gadgets import benchmark_6v8e_graph
from .graph_core import GENERATOR, Fields, check_rows, is_int, is_number
from .graph_core import Params, StochasticGraph, gen_random_graph, read_graph, write_graph
from .parallel import BLOCK_LEN, worker_pool
from .verifier import default_suite, format_report_table, gated_failures

DEFAULT_BUDGETS = {
    "x_trials": 20_000,
    "q_trials": 4000,
    "pair_trials": 20_000,
    "cond_trials": 400,
}
TABLE_MODES = ("auto", "exact", "monte_carlo")


_SOURCES = {
    "bundled": [(lambda name: name == "benchmark_6v8e", "bundled graph must be 'benchmark_6v8e'")],
    # open(0) would read stdin
    "file": [(lambda path: isinstance(path, str), "graph file must be a path string")],
    "generator": [GENERATOR],
}
GRAPH = [(lambda source: len(source) == 1 and set(source) <= set(_SOURCES),
          f"graph must name one of {', '.join(_SOURCES)}"),
         Fields("graph", "graph source", _SOURCES)]
CONFIG = Fields("config file", "config field", {
    "graph": [(lambda graph: isinstance(graph, dict), "graph must be an object")],
    "seed": [(is_int, "seed must be an int"), (lambda seed: seed >= 0, "seed must be >= 0")],
    "trials": [(lambda n: is_int(n) and n >= 1, "trial budget must be an int >= 1")],
    "workers": [(lambda n: n is None or is_int(n), "workers must be an int"),
                (lambda n: n is None or n >= 1, "worker count must be >= 1")],
    "t": [(lambda t: isinstance(t, (int, list, tuple)), "t must be an int or a list of ints"),
          (lambda t: t not in ([], ()), "t must hold at least one plan size"),
          [(is_int, "t must be an int"), (lambda t: t >= 0, "plan sizes must be >= 0")]],
    "epsilon": [(is_number, "epsilon must be a number")],
    "delta": [(is_number, "delta must be a number")],
    "tau": [(lambda tau: tau is None or is_number(tau), "tau must be a number"),
            (lambda tau: tau is None or tau > 0, "tau must be > 0")],
    "out": [(lambda out: isinstance(out, str), "out must be a path string")],
    "budgets": [Fields("budgets", "budget", {
        key: [(lambda n: is_int(n) and n >= 1, f"budget {key} must be an int >= 1")]
        for key in DEFAULT_BUDGETS})],
    "tables": [(TABLE_MODES.__contains__, f"tables must be one of {', '.join(TABLE_MODES)}")],
    "control_full_plan": [(lambda v: type(v) is bool, "control_full_plan must be true or false")],
    # verify's variance gates need at least two runs per check
    "verify_trials": [(lambda n: is_int(n) and n >= 2,
                       "verify trial budget must be an int >= 2")],
    "negative_control": [(lambda v: type(v) is bool, "negative_control must be true or false")],
}, shape="must hold a JSON object")


@dataclass
class ExperimentConfig:
    graph: dict = field(default_factory=lambda: {"bundled": "benchmark_6v8e"})
    seed: int = 1
    trials: int = 2000
    workers: int | None = None
    t: list[int] = field(default_factory=lambda: [1, 2, 4, 8])
    epsilon: float = 0.2
    delta: float = 1.0 / 576.0
    tau: float | None = 0.05
    out: str = "results"
    budgets: dict = field(default_factory=dict)
    tables: str = "auto"  # one of TABLE_MODES
    control_full_plan: bool = True
    verify_trials: int = 20_000
    negative_control: bool = False

    def __post_init__(self):
        if isinstance(self.t, int):
            self.t = [self.t]
        check_rows(vars(self), [CONFIG])

    def config_hash(self) -> str:
        """Hash of every field but ``out`` and ``workers``, budgets merged over the defaults."""
        fields = {key: value for key, value in vars(self).items() if key not in ("out", "workers")}
        text = json.dumps({**fields, "budgets": {**DEFAULT_BUDGETS, **self.budgets}},
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
    if isinstance(data, dict):
        data.update({k: v for k, v in overrides.items() if v is not None})
    check_rows(data, [CONFIG])  # unknown fields, before they reach the constructor
    return ExperimentConfig(**data)


def load_graph(config: ExperimentConfig) -> StochasticGraph:
    check_rows(config.graph, GRAPH)
    (source, value), = config.graph.items()
    if source == "file":
        return read_graph(value)
    if source == "generator":
        return gen_random_graph(**{
            "weight_law": {"name": "uniform", "low": 0.1, "high": 2.0},
            "prob_law": {"name": "uniform", "low": 0.3, "high": 0.9},
            "seed": config.seed, **value})
    return benchmark_6v8e_graph()


def build_tables(g: StochasticGraph, config: ExperimentConfig, t_max: int) -> PipelineTables:
    params = Params.for_graph(g, config.epsilon, config.delta)
    budgets = {**DEFAULT_BUDGETS, **config.budgets}
    mode = config.tables
    if mode == "auto":
        mode = "exact" if enumerable(g) else "monte_carlo"
    if mode == "exact":
        return build_tables_exact(
            g, params, t_max, tau=config.tau,
            pair_trials=budgets["pair_trials"], seed=config.seed,
        )
    return build_tables_monte_carlo(g, params, t_max, config.seed, tau=config.tau, **budgets)


def cmd_generate(config: ExperimentConfig) -> Path:
    """Write the configured graph to <out>/graph.txt."""
    g = load_graph(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "graph.txt"
    write_graph(g, path, header_comment=f"config_hash={config.config_hash()}")
    return path


def _t_label(result: E2EResult) -> int:
    """The sweep point as written to the outputs; -1 is the control."""
    return -1 if result.t is None else result.t


def _write_runs(fh, seed: int, result: E2EResult) -> None:
    """Write a sweep point's ``runs.jsonl`` lines: the bytes of
    ``json.dumps(record, sort_keys=True)``, the run index being the row.

    Each chunk of at most ``BLOCK_LEN`` runs formats each of its distinct
    values once, keyed on the bits so ``-0.0`` stays apart from ``0.0`` (the
    weights are finite, so repr writes what json.dumps writes).  The lines go
    to the file one by one: joined into one string per chunk, they make the
    heap grow and shrink with every chunk, and the next command's sampling
    faults the pages back in.
    """
    line = ('{"ratio": %%s, "run": %%d, "scheme_chosen": "%%s", "seed": %d, "t": %d, '
            '"weights": {"alg": %%s, "mm_G": %%s, "mm_Q": %%s}}\n' % (seed, _t_label(result)))
    for start in range(0, len(result.mm_G), BLOCK_LEN):
        chunk = slice(start, start + BLOCK_LEN)
        alg, mm_q, mm_g = result.alg[chunk], result.mm_Q[chunk], result.mm_G[chunk]
        count = len(mm_g)
        # the IEEE quotient of Python's mm_q / mm_g where mm_g > 0.0, else 1.0
        ratio = np.divide(mm_q, mm_g, out=np.ones(count), where=mm_g > 0.0)
        bits, inverse = np.unique(np.stack([ratio, alg, mm_g, mm_q]).view(np.int64),
                                  return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        ratio_s, alg_s, mm_g_s, mm_q_s = text[inverse.reshape(4, count)].tolist()
        schemes = np.where(result.augmented[chunk], "augmented", "crucial").tolist()
        fh.writelines(map(line.__mod__, zip(
            ratio_s, range(start, start + count), schemes, alg_s, mm_g_s, mm_q_s)))


def cmd_run(config: ExperimentConfig) -> Path:
    """t-sweep of the full pipeline; writes runs, aggregates and plot data."""
    g = load_graph(config)
    if g.m == 0:
        raise ValueError("cannot run the pipeline on an edgeless graph")
    t_values = sorted(set(int(t) for t in config.t))
    points = t_values + ([None] if config.control_full_plan else [])
    with worker_pool(config.workers):
        tables = build_tables(g, config, max(t_values))
        results = end_to_end(g, tables, points, config.trials, config.seed)
    # repr writes nan and inf where json.dumps writes NaN and Infinity.
    if not all(np.isfinite(w).all() for r in results for w in (r.alg, r.mm_Q, r.mm_G)):
        raise ValueError("the sweep returned a non-finite run weight")

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config.config_hash()

    runs_path = out_dir / "runs.jsonl"
    with open(runs_path, "w") as fh:
        fh.write(json.dumps({"config_hash": chash}, sort_keys=True) + "\n")
        for result in results:
            _write_runs(fh, config.seed, result)

    agg_path = out_dir / "aggregate.csv"
    with open(agg_path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("seed,t,ratio,alg_weight,mmQ_weight,mmG_weight,scheme\n")
        for result in results:
            t_label = _t_label(result)
            n = len(result.mm_G)
            mean_alg, mean_q, mean_g = (total / n for total in result.totals)
            frac_aug = int(result.augmented.sum()) / n
            fh.write(
                f"{config.seed},{t_label},{result.ratio!r},{mean_alg!r},"
                f"{mean_q!r},{mean_g!r},{frac_aug!r}\n"
            )

    plot_path = out_dir / "ratio_vs_t.txt"
    with open(plot_path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("# t ratio   (t=-1 is the query-everything control; reference 0.681)\n")
        for result in results:
            t_label = _t_label(result)
            fh.write(f"{t_label} {result.ratio!r}\n")

    summary = {
        "config_hash": chash,
        "graph": {"n": g.n, "m": g.m, "p_min": g.p_min, "token": g.token},
        "reference_ratio": 0.681,
        "sweep": [
            {
                "t": _t_label(r),
                "ratio": r.ratio,
                "ratio_se": r.ratio_std_err(),
                "alg_ratio": r.alg_ratio,
                "runs": len(r.mm_G),
            }
            for r in results
        ],
    }
    with open(out_dir / "summary.json", "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return out_dir


def cmd_verify(config: ExperimentConfig) -> int:
    """Run the statistical suite; returns a nonzero code on gated failure."""
    with worker_pool(config.workers):
        reports = default_suite(
            trials=config.verify_trials,
            seed=config.seed,
            include_negative_control=config.negative_control,
        )
    payload = {
        "config_hash": config.config_hash(),
        "reports": [vars(r) for r in reports],  # read in place, not deep-copied
    }
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "verify_reports.json", "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(format_report_table(reports))
    failures = gated_failures(reports)
    if failures:
        print(f"\n{len(failures)} gated check(s) failed:")
        for r in failures:
            print(f"  FAIL {r.name}")
        return 1
    print("\nall gated checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochmatch",
        description="Stochastic matching sparsifier experiments and verification",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (default 1)")
    parser.add_argument("--trials", type=int, help="pipeline runs per sweep point")
    parser.add_argument("--workers", type=int, help="worker processes")
    parser.add_argument("--t", type=int, help="single plan size (overrides sweep)")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="write the configured graph file")
    sub.add_parser("run", help="run the end-to-end experiment sweep")
    verify_parser = sub.add_parser("verify", help="run the verification suite")
    verify_parser.add_argument("--negative-control", action="store_true", default=None,
                               help="include the forced-failure fixture")

    args = parser.parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in CONFIG.rows}
    config = load_config(args.config, overrides)

    if args.command == "generate":
        path = cmd_generate(config)
        print(path)
        return 0
    if args.command == "run":
        out = cmd_run(config)
        print(out)
        return 0
    if args.command == "verify":
        return cmd_verify(config)
    raise AssertionError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
