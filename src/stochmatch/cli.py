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
from dataclasses import dataclass, field, fields
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
GRAPH_SOURCES = ("bundled", "file", "generator")


def _reject_unknown(kind: str, keys, known) -> None:
    unknown = [repr(key) for key in keys if key not in known]
    if unknown:
        raise ValueError(f"unknown {kind} {', '.join(unknown)}; known: {', '.join(known)}")


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
        if not isinstance(self.t, (list, tuple)):
            raise ValueError(f"t must be an int or a list of ints, got {self.t!r}")
        # JSON true/false are bools, which Python also counts as ints.
        ints = [("seed", self.seed), *(("t", t) for t in self.t)]
        if self.workers is not None:
            ints.append(("workers", self.workers))
        for name, value in ints:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        numbers = [("epsilon", self.epsilon), ("delta", self.delta)]
        if self.tau is not None:
            numbers.append(("tau", self.tau))
        for name, value in numbers:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("control_full_plan", "negative_control"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trial budget must be an int >= 1, got {self.trials!r}")
        # verify's variance gates need at least two runs per check
        if type(self.verify_trials) is not int or self.verify_trials < 2:
            raise ValueError(f"verify trial budget must be an int >= 2, got {self.verify_trials!r}")
        if self.tau is not None and not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")
        if not self.t:
            raise ValueError("t must hold at least one plan size")
        if min(self.t) < 0:
            raise ValueError(f"plan sizes must be >= 0, got {min(self.t)}")
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        if self.tables not in TABLE_MODES:
            raise ValueError(f"tables must be one of {', '.join(TABLE_MODES)}, got {self.tables!r}")
        for name in ("graph", "budgets"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be an object, got {getattr(self, name)!r}")
        _reject_unknown("budget", self.budgets, DEFAULT_BUDGETS)
        for key, value in self.budgets.items():
            if type(value) is not int or value < 1:
                raise ValueError(f"budget {key} must be an int >= 1, got {value!r}")

    def to_canonical_dict(self) -> dict:
        return {
            "graph": self.graph,
            "seed": self.seed,
            "trials": self.trials,
            "t": list(self.t),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "tau": self.tau,
            "budgets": {**DEFAULT_BUDGETS, **self.budgets},
            "tables": self.tables,
            "control_full_plan": self.control_full_plan,
            "verify_trials": self.verify_trials,
            "negative_control": self.negative_control,
        }

    def config_hash(self) -> str:
        text = json.dumps(self.to_canonical_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(data).__name__}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    _reject_unknown("config field", data, [f.name for f in fields(ExperimentConfig)])
    return ExperimentConfig(**data)


def load_graph(config: ExperimentConfig) -> StochasticGraph:
    source = config.graph
    if len(source) != 1 or not set(source) <= set(GRAPH_SOURCES):
        raise ValueError(f"graph must name one of {', '.join(GRAPH_SOURCES)}, got {source!r}")
    if "file" in source:
        if not isinstance(source["file"], str):  # open(0) would read stdin
            raise ValueError(f"graph file must be a path string, got {source['file']!r}")
        return read_graph(source["file"])
    if "generator" in source:
        gen = source["generator"]
        if not isinstance(gen, dict):
            raise ValueError(f"generator graph source must be an object, got {gen!r}")
        _reject_unknown("generator key", gen, ("n", "density", "weight_law", "prob_law", "seed"))
        for key in ("n", "density"):
            if key not in gen:
                raise ValueError(f"generator graph source is missing {key!r}: {gen!r}")
        n, density, seed = gen["n"], gen["density"], gen.get("seed", config.seed)
        for name, value in (("n", n), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"generator {name} must be an int, got {value!r}")
        if isinstance(density, bool) or not isinstance(density, (int, float)):
            raise ValueError(f"generator density must be a number, got {density!r}")
        return gen_random_graph(
            n=n,
            density=float(density),
            weight_law=gen.get("weight_law", {"name": "uniform", "low": 0.1, "high": 2.0}),
            prob_law=gen.get("prob_law", {"name": "uniform", "low": 0.3, "high": 0.9}),
            seed=seed,
        )
    if source.get("bundled") == "benchmark_6v8e":
        return benchmark_6v8e_graph()
    raise ValueError(f"unrecognized graph source: {source!r}")


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
    return build_tables_monte_carlo(
        g, params, t_max, config.seed, tau=config.tau,
        x_trials=budgets["x_trials"], q_trials=budgets["q_trials"],
        pair_trials=budgets["pair_trials"], cond_trials=budgets["cond_trials"],
    )


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
    verify_parser.add_argument("--negative-control", action="store_true",
                               help="include the forced-failure fixture")

    args = parser.parse_args(argv)
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "workers": args.workers,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "out": args.out,
    }
    if args.t is not None:
        overrides["t"] = [args.t]
    if getattr(args, "negative_control", False):
        overrides["negative_control"] = True
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
