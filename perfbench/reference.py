"""Recompute the reference figures: every workload over several seeds.

    python3 perfbench/reference.py                     # 10 seeds, trace 0
    python3 perfbench/reference.py --trace 1 --seeds 1 2
    python3 perfbench/reference.py --full-size         # default-size CLI commands

Runs ``run.py`` for ``run_seconds`` once per (workload, seed), over every
workload in ``BENCHMARK.json``, one after another, and prints for
every metric the median over seeds and the spread, the distance between
the first and third quartiles as a share of the median, which is what the
bounds in ``BENCHMARK.json`` are compared against.  The raw results go to
``.perfbench_out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The CLI's own defaults: 2000 trials per sweep point, 20k verify trials.
FULL_SIZE = {
    "run_bundled_1_worker": ["--seed", "1", "--workers", "1", "run"],
    "verify_1_worker": ["--seed", "2024", "--workers", "1", "verify"],
    "verify_2_workers": ["--seed", "2024", "--workers", "2", "verify"],
}
CLI = "import sys; sys.path.insert(0, 'src'); from stochmatch.cli import main; sys.exit(main())"


def full_size() -> None:
    """Wall time (from process start) and peak RSS of default-size commands."""
    for name, argv in FULL_SIZE.items():
        out = ROOT / ".perfbench_out" / "full_size" / name
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI, *argv[:-1], "--out", str(out),
                                 argv[-1]], cwd=ROOT, stdout=subprocess.DEVNULL)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # ru_maxrss of a reaped child is the largest peak among it and its workers.
        print(f"{name}: wall {wall:.2f} s, peak RSS {usage.ru_maxrss / 1024:.1f} MB, "
              f"exit {os.waitstatus_to_exitcode(status)}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-size", action="store_true",
                        help="time the default-size CLI commands instead")
    args = parser.parse_args()
    if args.full_size:
        full_size()
        return 0
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["elapsed_s"] = time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"elapsed={result['elapsed_s']:.1f}s", flush=True)
        results[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed share: "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {first['unit']}")
        print(flush=True)
    out = ROOT / ".perfbench_out" / "reference.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
