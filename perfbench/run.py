"""stochmatch benchmark: one workload, timed rounds, checked outputs, one JSON line.

    python3 perfbench/run.py --workload generated_mc --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each round is one ``stochmatch`` command run in-process through
``cli.main`` with a fresh graph, so the oracle cache starts cold as it does
for a user.  Untraced rounds each take the next of ``SEEDS`` seeds derived
from ``--seed`` until ``--seconds`` have passed, so a run's means span
many inputs.  Outputs go to
``.perfbench_out/<workload>/`` and are checked after the timed rounds.

Timings are scaled to a reference machine speed: between rounds (and
between set-up probes) the benchmark times ``calibrate``, a fixed loop
that shares no code with stochmatch, and multiplies each timing by
``CALIBRATION_REF_S`` over the run's mean calibration time (see
``speed_factor``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats cycles
over the first ``TRACE_SEEDS`` seeds, an untraced and a traced round per
seed, and prints the per-layer metrics per traced round and the tracing
overhead; whole cycles make the counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from checks import RUN_FILES
from tracer import Patcher, Stopwatch, Tracer, install_stopwatch, install_tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 16
TRACE_SEEDS = 3
SETUP_REPEATS = 5
# calibrate() at the reference speed: the typical time on the 2-core VM the
# README's figures come from.  Any fixed value would do; this one keeps the
# reported times close to the raw times measured there.
CALIBRATION_REF_S = 0.035

WORKLOADS = {
    "generated_mc": {
        "command": "run",
        "workers": 1,
        "config": {"graph": {"generator": {"n": 12, "density": 0.3, "seed": 3}},
                   "tables": "monte_carlo", "t": [1, 2, 4, 8], "trials": 200,
                   "budgets": {"x_trials": 1000, "q_trials": 200,
                               "pair_trials": 80, "cond_trials": 40}},
    },
    "verify_suite": {
        "command": "verify",
        "workers": 1,
        "config": {"verify_trials": 2048},
    },
}

# Not timed: the `generated_mc` checks run this sweep once with 1 and once
# with 2 workers.  2304 trials make two blocks (`BLOCK_LEN` is 2048), so
# the 2-worker run really uses worker processes.
BUNDLED_CHECK = {
    "command": "run",
    "workers": 1,
    "config": {"graph": {"bundled": "benchmark_6v8e"}, "tables": "exact",
               "t": [1, 2, 4, 8], "trials": 2304},
}


def round_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def output_digest(out_dir: Path, command: str) -> str:
    names = ["verify_reports.json"] if command == "verify" else RUN_FILES
    h = hashlib.sha256()
    for name in names:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


class Rounds:
    """Runs one workload's commands and keeps what the checks need."""

    def __init__(self, spec: dict, seed: int, count: int, out_root: Path):
        from stochmatch import cli

        self.cli = cli
        self.spec = spec
        self.command = self.spec["command"]
        self.seeds = round_seeds(seed, count)
        self.dirs = [out_root / f"s{k}" for k in range(count)]
        self.configs = []
        for k, out_dir in enumerate(self.dirs):
            out_dir.mkdir(parents=True)
            path = out_dir / "config.json"
            path.write_text(json.dumps({**self.spec["config"], "seed": self.seeds[k]}))
            self.configs.append(path)
        self.digests: list[set] = [set() for _ in self.dirs]
        self.exit_codes: list[set] = [set() for _ in self.dirs]
        self.xs: list = [None] * count  # x_hat of each seed's tables
        self.attempted = 0
        self.failed = 0

    def argv(self, k: int, workers: int, out_dir: Path) -> list[str]:
        return ["--config", str(self.configs[k]), "--seed", str(self.seeds[k]),
                "--workers", str(workers), "--out", str(out_dir), self.command]

    def run(self, k: int, workers: int | None = None,
            out_dir: Path | None = None) -> float | None:
        """One command; returns its wall time, or None if it raised."""
        workers = self.spec["workers"] if workers is None else workers
        out_dir = self.dirs[k] if out_dir is None else out_dir
        self.attempted += 1
        gc.collect()  # start each command from a collected heap, as a fresh process does
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main(self.argv(k, workers, out_dir))
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        self.exit_codes[k].add(code)
        self.digests[k].add(output_digest(out_dir, self.command))
        return wall


def capture_tables(rounds: Rounds, patcher) -> None:
    """Keep the x_hat each `run` command built, for the output checks.

    Only the array is kept, not the graph or the tables: they hold the
    oracle cache, which would make peak memory grow with the rounds run.
    """
    cli = rounds.cli

    def make(fn):
        def captured(g, config, t_max):
            tables = fn(g, config, t_max)
            rounds.xs[rounds.seeds.index(config.seed)] = tables.x
            return tables
        return captured
    patcher.patch_function(cli, "build_tables", make)


def sampled_per_round(rounds: Rounds) -> int:
    """Runs sampled by one command: pipeline runs, or check trials for verify."""
    if rounds.command == "verify":
        data = json.loads((rounds.dirs[0] / "verify_reports.json").read_text())
        return sum(r["trials"] for r in data["reports"])
    cfg = rounds.spec["config"]
    return (len(cfg["t"]) + 1) * cfg["trials"]


def check_outputs(rounds: Rounds, seed: int) -> list[str]:
    errors = []
    for k, seed_k in enumerate(rounds.seeds):
        if len(rounds.digests[k]) > 1:
            errors.append(f"seed {seed_k}: repeated rounds wrote different bytes")
        if len(rounds.exit_codes[k]) > 1:
            errors.append(f"seed {seed_k}: repeated rounds exited differently")
    ran = [k for k in range(len(rounds.seeds)) if rounds.digests[k]]
    if not ran:
        return errors + ["no round completed"]
    cfg = rounds.spec["config"]
    if rounds.command == "verify":
        from stochmatch.gadgets import verification_gadgets
        gadgets = verification_gadgets()
        for k in ran:
            code = next(iter(rounds.exit_codes[k]))
            errors += checks.check_verify_outputs(rounds.dirs[k], code, gadgets)
        return errors

    for k in ran:
        errors += checks.check_run_outputs(rounds.dirs[k], cfg["t"], cfg["trials"])
    cli = rounds.cli
    graph = cli.load_graph(cli.load_config(str(rounds.configs[ran[0]]), {}))
    errors += checks.check_generated(graph, [rounds.xs[k] for k in ran], seed)
    bundled = Rounds(BUNDLED_CHECK, seed, 1, rounds.dirs[0].parent / "bundled")
    try:
        errors += check_bundled_sweep(bundled)
    finally:
        rounds.attempted += bundled.attempted
        rounds.failed += bundled.failed
    return errors


def check_bundled_sweep(rounds: Rounds) -> list[str]:
    """The bundled sweep against enumeration, and the north-star invariant:
    2 workers write the same bytes as 1 worker."""
    capture = Patcher()
    capture_tables(rounds, capture)
    try:
        if rounds.run(0) is None:
            return ["the bundled sweep raised"]
    finally:
        capture.uninstall()
    cfg, out_dir = rounds.spec["config"], rounds.dirs[0]
    errors = checks.check_run_outputs(out_dir, cfg["t"], cfg["trials"])
    graph = rounds.cli.load_graph(rounds.cli.load_config(str(rounds.configs[0]), {}))
    errors += checks.check_bundled(graph, rounds.xs[0], [out_dir], cfg["t"])
    other = out_dir.parent / "s0_workers2"
    if rounds.run(0, workers=2, out_dir=other) is None:
        return errors + ["the 2-worker bundled sweep raised"]
    return errors + [f"{name}: 2 workers wrote different bytes than 1 worker"
                     for name in RUN_FILES
                     if (other / name).read_bytes() != (out_dir / name).read_bytes()]


def calibrate() -> float:
    """Seconds taken by a fixed loop of dict updates, integer arithmetic and
    small numpy operations: the machine's current speed, measured with code
    that no change to stochmatch can make faster or slower.

    On a shared 2-core VM the same code runs up to 40% faster or slower
    for minutes at a time.  Such a shift moves every timing of a run
    alike, so it cannot be averaged away within a run, while a calibration
    taken between rounds moves with it.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(100_000):
            table[i & 1023] = acc
            acc += i * i % 7
        a = np.arange(64.0)
        for _ in range(3000):
            a = np.sqrt(a * a + 1.0) - 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(calibrations: list[float]) -> float:
    """Multiply a run's timings by this to state them at the reference speed."""
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


def measure_setup(config: Path) -> tuple[float, float]:
    """Median wall time of fresh processes that import and load the graph,
    and the speed factor of calibrations taken between them."""
    times, calibrations = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
        calibrations.append(calibrate())
    return statistics.median(times), speed_factor(calibrations)


def peak_rss_mb() -> float:
    """This process's peak plus the largest worker's peak (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def untraced(rounds: Rounds, seconds: float) -> dict:
    watch = Stopwatch()
    install_stopwatch(watch, rounds.command)
    walls, tables, sampling = [], [], []
    calibrations = [calibrate()]
    start = time.perf_counter()
    i = 0
    try:
        # Start another round while it would end, on average, no later than
        # half a round past the deadline, so a run measures about `seconds`.
        while i == 0 or (time.perf_counter() - start
                         + statistics.median(walls or [0.0]) / 2 < seconds):
            watch.reset()
            wall = rounds.run(i % len(rounds.seeds))
            i += 1
            if wall is not None:
                walls.append(wall)
                tables.append(watch.seconds["tables"])
                sampling.append(watch.seconds["sampling"])
            calibrations.append(calibrate())
    finally:
        watch.uninstall()
    rss = peak_rss_mb()
    if not walls:
        return {}
    setup, setup_factor = measure_setup(rounds.configs[0])
    factor = speed_factor(calibrations)
    print(f"raw: wall_s {statistics.fmean(walls)!r} tables_s {statistics.fmean(tables)!r} "
          f"sampling_s {statistics.fmean(sampling)!r} setup_s {setup!r}; speed factors: "
          f"rounds {factor!r} setup {setup_factor!r}", file=sys.stderr)
    # Means, not medians: the machine's speed switches between a fast and a
    # slow mode within seconds, and a mean moves smoothly with the share of
    # rounds in each mode where a median of a few rounds jumps between them.
    sampled = sampled_per_round(rounds) * len(sampling)
    return {
        "wall_s": (statistics.fmean(walls) * factor, "s"),
        "tables_s": (statistics.fmean(tables) * factor, "s"),
        "pipeline_runs_per_s": (sampled / (sum(sampling) * factor), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup * setup_factor, "s"),
    }


def traced(rounds: Rounds, seconds: float, span_file: Path) -> dict:
    """Per-layer metrics, averaged per traced round over whole cycles."""
    tracer = Tracer()
    self_s, counts = defaultdict(float), defaultdict(float)
    plain, with_trace = [], []
    start = time.perf_counter()
    cycles = 0
    # Whole cycles only; as with untraced rounds, start another cycle while
    # it would end no later than half a cycle past the deadline.
    while cycles == 0 or (time.perf_counter() - start) * (1 + 0.5 / cycles) < seconds:
        cycles += 1
        for k in range(len(rounds.seeds)):
            wall = rounds.run(k, workers=1)
            install_tracer(tracer)
            try:
                traced_wall = rounds.run(k, workers=1)
            finally:
                tracer.uninstall()
            if wall is not None and traced_wall is not None:
                plain.append(wall)
                with_trace.append(traced_wall)
                if not span_file.exists():
                    tracer.write_spans(span_file)
                for name, value in tracer.self_times().items():
                    self_s[name] += value
                for name, value in tracer.counts.items():
                    counts[name] += value
            tracer.clear()
    if not with_trace:
        return {}
    n = len(with_trace)
    metrics = layer_metrics(self_s, counts, n)
    overhead = (sum(with_trace) - sum(plain)) / n
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / (sum(plain) / n), "ratio")
    fails = 0
    if rounds.command == "verify":
        fails = sum(checks.fail_verdicts(d) for d in rounds.dirs)
    metrics["verifier.fail_verdicts"] = (fails / len(rounds.seeds), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stochmatch" / "__init__.py").is_file():
        print(f"no stochmatch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stochmatch
    if Path(stochmatch.__file__).resolve().parent != ROOT / "src" / "stochmatch":
        print(f"imported stochmatch from {stochmatch.__file__}, not from src/",
              file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    rounds = Rounds(WORKLOADS[args.workload], args.seed,
                    TRACE_SEEDS if args.trace else SEEDS, out_root)
    capture = Patcher()
    capture_tables(rounds, capture)
    try:
        if args.trace:
            metrics = traced(rounds, args.seconds, out_root / "spans.jsonl")
        else:
            metrics = untraced(rounds, args.seconds)
    finally:
        capture.uninstall()
    errors = ["no metrics"]
    if metrics:
        try:
            errors = check_outputs(rounds, args.seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            errors = ["the output checks raised"]
    for error in errors[:50]:
        print("CHECK FAILED:", error, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
