"""Output checks, run after the timed rounds.

Each check compares the command's outputs with a computation made apart
from the code under test (exhaustive enumeration, the brute-force oracle)
or with a property the method must have.  A check returns a list of error
strings; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

WEIGHT_TOL = 1e-9
# Two-sided normal tail at 6 standard errors is 2e-9 per comparison, so a
# suite of ~200 comparisons raises a false alarm far less than once in the
# benchmark's lifetime while a real bias of a few standard errors per edge
# at 2048 trials still shows.
Z_BOUND = 6.0
RUN_FILES = ("runs.jsonl", "aggregate.csv", "ratio_vs_t.txt", "summary.json")


def _weight(g, edges) -> float:
    return sum(g.edges[e].w for e in edges)


def check_run_outputs(out_dir: Path, t_values: list[int], trials: int) -> list[str]:
    """Properties of a `run` sweep that hold for every seed."""
    errors = []
    lines = (out_dir / "runs.jsonl").read_text().splitlines()
    points = len(t_values) + 1
    if len(lines) != 1 + points * trials:
        errors.append(f"runs.jsonl has {len(lines)} lines, want {1 + points * trials}")
    by_run: dict[int, dict[int, dict]] = defaultdict(dict)
    for line in lines[1:]:
        rec = json.loads(line)
        by_run[rec["run"]][rec["t"]] = rec["weights"]
    for run, rows in by_run.items():
        if len(rows) != points:
            errors.append(f"run {run}: {len(rows)} sweep points, want {points}")
            continue
        mm_g = {w["mm_G"] for w in rows.values()}
        if len(mm_g) != 1:
            errors.append(f"run {run}: mm_G differs across sweep points")
        for t, w in rows.items():
            if not (w["alg"] <= w["mm_Q"] + WEIGHT_TOL and w["mm_Q"] <= w["mm_G"] + WEIGHT_TOL):
                errors.append(f"run {run} t={t}: alg <= mm_Q <= mm_G violated: {w}")
        if rows[-1]["mm_Q"] != rows[-1]["mm_G"]:
            errors.append(f"run {run}: the control queries everything but mm_Q != mm_G")
        mm_q = [rows[t]["mm_Q"] for t in sorted(t_values)]
        if any(b < a - WEIGHT_TOL for a, b in zip(mm_q, mm_q[1:])):
            errors.append(f"run {run}: mm_Q decreases in t although plans are nested: {mm_q}")
        if len(errors) > 20:
            break

    with open(out_dir / "aggregate.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    control = [r for r in rows if r["t"] == "-1"]
    if len(control) != 1 or float(control[0]["ratio"]) != 1.0:
        errors.append(f"aggregate.csv control row ratio is not exactly 1.0: {control}")
    summary = json.loads((out_dir / "summary.json").read_text())
    ratios = {row["t"]: row["ratio"] for row in summary["sweep"]}
    if ratios.get(-1) != 1.0:
        errors.append(f"summary.json control ratio is {ratios.get(-1)!r}, want exactly 1.0")
    if sorted(ratios) != sorted(t_values + [-1]):
        errors.append(f"summary.json sweep points {sorted(ratios)} != {t_values} + control")
    return errors


def realization_weights(out_dir: Path, t: int) -> np.ndarray:
    """w(MM(realization)) of every run at one sweep point."""
    out = []
    with open(out_dir / "runs.jsonl") as fh:
        next(fh)
        for line in fh:
            rec = json.loads(line)
            if rec["t"] == t:
                out.append(rec["weights"]["mm_G"])
    return np.array(out)


def expected_mm_weight_brute_force(g) -> float:
    """E[w(MM)] over all 2^m realizations, each solved by exhaustive search."""
    from stochmatch.mwm import GraphView, brute_force_mwm

    total = 0.0
    for mask in range(1 << g.m):
        prob = 1.0
        for e in range(g.m):
            p = g.edges[e].p
            prob *= p if (mask >> e) & 1 else 1.0 - p
        total += prob * _weight(g, brute_force_mwm(GraphView(g, mask)).edges)
    return total


def check_bundled(g, x: np.ndarray, out_dirs: list[Path], t_values: list[int]) -> list[str]:
    """Exact tables and sampled optima against enumeration by brute force.

    Weights are compared, never per-edge memberships: the graph has weight
    ties that networkx and the brute-force oracle break differently.
    """
    errors = []
    truth = expected_mm_weight_brute_force(g)
    from_tables = float(np.dot(x, g.weights))
    if abs(truth - from_tables) > WEIGHT_TOL:
        errors.append(f"exact_x . w = {from_tables!r} but enumeration gives {truth!r}")
    for out_dir in out_dirs:
        w = realization_weights(out_dir, t_values[0])
        z = abs(w.mean() - truth) / (w.std(ddof=1) / math.sqrt(len(w)))
        if z > Z_BOUND:
            errors.append(f"{out_dir.name}: mean mm_G {w.mean()!r} is {z:.2f} standard "
                          f"errors from E[w(MM)] = {truth!r}")
    return errors


def check_generated(g, xs: list[np.ndarray], seed: int, samples: int = 300) -> list[str]:
    """Oracle agreement on sampled realizations and fractional vertex loads."""
    from stochmatch.mwm import GraphView, brute_force_mwm, max_weight_matching
    from stochmatch.graph_core import StochasticGraph

    errors = []
    fresh = StochasticGraph(n=g.n, edges=tuple(g.edges))  # empty oracle cache
    rng = np.random.default_rng(seed)
    for bits in rng.random((samples, g.m)) < g.probs:
        mask = sum(1 << e for e in range(g.m) if bits[e])
        view = GraphView(fresh, mask)
        w_nx = _weight(g, max_weight_matching(view).edges)
        w_bf = _weight(g, brute_force_mwm(view).edges)
        if abs(w_nx - w_bf) > WEIGHT_TOL:
            errors.append(f"mask {mask:#x}: networkx weight {w_nx!r} != brute force {w_bf!r}")
    for x in xs:
        for v in range(g.n):
            load = sum(x[e] for e in g.incident[v])
            if load > 1.0 + 1e-12:
                errors.append(f"sum of x_hat at vertex {v} is {load!r} > 1")
    return errors


def _off(freq: float, p0: float, trials: int) -> bool:
    """True when ``freq`` is more than Z_BOUND null standard errors from ``p0``."""
    se0 = math.sqrt(max(p0 * (1.0 - p0), 0.0) / trials)
    if se0 == 0.0:
        return abs(freq - p0) > 1e-12
    return abs(freq - p0) / se0 > Z_BOUND


def _below(freq: float, floor: float, trials: int) -> bool:
    p0 = min(max(floor, 0.0), 1.0)
    se0 = math.sqrt(p0 * (1.0 - p0) / trials)
    return freq < floor - Z_BOUND * se0 - 1e-12


def expected_report_names(gadgets) -> list[str]:
    names = []
    for gadget in gadgets:
        names += [f"activation[{gadget.name}]", f"selectability[{gadget.name}]",
                  f"pair_alive[{gadget.name}]"]
        if gadget.graph.m >= 2:
            names.append(f"negative_association[{gadget.name}]")
    return names + ["two_point_oracle[shared_tie]", "negative_association[shared_tie]",
                    "var_z[relaxed_suite_8v]", "concentration_y[relaxed_suite_8v]"]


def _statistical_errors(report: dict) -> list[str]:
    """Re-test a z-gated report with the null standard error at Z_BOUND.

    The suite's own gates use the plug-in standard error of the observed
    frequency at 3 standard errors with no correction for the number of
    comparisons, so a correct program fails them on a share of seeds.  This
    re-test states a family-wise bound instead; the suite's verdict itself
    is checked for consistency with its exit code and counted as a
    per-layer metric.
    """
    name, n, det = report["name"], report["trials"], report["details"]
    kind = name.split("[", 1)[0]
    bad = []
    if kind == "activation":
        for e, entry in det["edges"].items():
            for key in ("g_of_y", "exact"):
                if key in entry and _off(entry["freq"], entry[key], n):
                    bad.append(f"edge {e}: freq {entry['freq']} vs {key} {entry[key]}")
    elif kind == "selectability":
        gated_floor = det["eight_fifteenths_gated"]
        for e, entry in det["edges"].items():
            if "exact" in entry and _off(entry["freq"], entry["exact"], n):
                bad.append(f"edge {e}: freq {entry['freq']} vs exact {entry['exact']}")
            if gated_floor and _below(entry["freq"], entry["target_8_15"], n):
                bad.append(f"edge {e}: freq {entry['freq']} below 8/15 y")
    elif kind == "pair_alive":
        for pair, entry in det["pairs"].items():
            if entry.get("adjacent"):
                continue
            if _below(entry["freq"], report["threshold"], n):
                bad.append(f"pair {pair}: freq {entry['freq']} below the floor")
            if "exact" in entry and _off(entry["freq"], entry["exact"], n):
                bad.append(f"pair {pair}: freq {entry['freq']} vs exact {entry['exact']}")
        for v, entry in det["alive_single"].items():
            if _below(entry["freq"], entry["floor"], n):
                bad.append(f"vertex {v}: alive freq {entry['freq']} below {entry['floor']}")
    elif kind == "negative_association":
        for pair, entry in det["pairs"].items():
            if entry["cov"] > Z_BOUND * entry["se"] + 1e-12:
                bad.append(f"pair {pair}: covariance {entry['cov']} > {Z_BOUND} se")
    return [f"{name}: {msg}" for msg in bad]


def check_verify_outputs(out_dir: Path, exit_code: int, gadgets) -> list[str]:
    errors = []
    reports = json.loads((out_dir / "verify_reports.json").read_text())["reports"]
    names = [r["name"] for r in reports]
    expected = expected_report_names(gadgets)
    if names != expected or len(names) != 44:
        errors.append(f"report names {names} != expected {expected} (44)")
    failed = any(r["gated"] and r["verdict"] == "fail" for r in reports)
    if exit_code != (1 if failed else 0):
        errors.append(f"exit code {exit_code} does not match the gated verdicts")
    for r in reports:
        kind = r["name"].split("[", 1)[0]
        if kind in ("activation", "selectability", "pair_alive", "negative_association"):
            errors += _statistical_errors(r)
        elif kind == "concentration_y":
            if r["verdict"] != "inconclusive":
                errors.append(f"{r['name']}: verdict {r['verdict']}, want inconclusive "
                              "below the theory-scale t")
        elif r["verdict"] != "pass":
            errors.append(f"{r['name']}: verdict {r['verdict']}")
    return errors


def fail_verdicts(out_dir: Path) -> int:
    reports = json.loads((out_dir / "verify_reports.json").read_text())["reports"]
    return sum(1 for r in reports if r["verdict"] == "fail")
