"""Spans and counts recorded from outside the package.

The benchmark wraps public functions of the ``stochmatch`` modules (and the
networkx blossom solver the oracle calls) and swaps the wrappers into every
module namespace that binds the original, since the package imports most
functions by name.  Nothing inside the package is edited.

Two recorders share the patching code:

* :class:`Stopwatch` times a few groups of functions, outermost call only.
  It adds a handful of clock reads per command and is what the untraced
  runs use for ``tables_s`` and ``pipeline_runs_per_s``.
* :class:`Tracer` records one span (name, start, end, parent) per call at
  every layer boundary plus counts, keeps them in memory, and derives each
  layer's self time: the span's duration minus its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import networkx


def _bindings(orig):
    """Every (namespace, attribute) of the package that binds ``orig``."""
    out = []
    for name, module in list(sys.modules.items()):
        if name == "stochmatch" or name.startswith("stochmatch."):
            for attr, value in vars(module).items():
                if value is orig:
                    out.append((module, attr))
    return out


class Patcher:
    """Swaps wrappers into the package and puts the originals back."""

    def __init__(self):
        self._undo = []

    def patch_function(self, module, attr, make_wrapper):
        orig = getattr(module, attr)
        wrapper = make_wrapper(orig)
        targets = _bindings(orig) or [(module, attr)]
        if (module, attr) not in targets:
            targets.append((module, attr))
        for ns, name in targets:
            self._undo.append((ns, name, getattr(ns, name)))
            setattr(ns, name, wrapper)

    def patch_classmethod(self, cls, attr, make_wrapper):
        orig = vars(cls)[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, classmethod(make_wrapper(orig.__func__)))

    def patch_method(self, cls, attr, make_wrapper):
        orig = vars(cls)[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make_wrapper(orig))

    def uninstall(self):
        while self._undo:
            ns, name, value = self._undo.pop()
            setattr(ns, name, value)


class Stopwatch(Patcher):
    """Accumulated wall time per group, counting only outermost calls."""

    def __init__(self):
        super().__init__()
        self.seconds = defaultdict(float)
        self._depth = defaultdict(int)

    def time_group(self, group):
        seconds, depth, clock = self.seconds, self._depth, time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                depth[group] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[group] -= 1
                    if depth[group] == 0:
                        seconds[group] += clock() - start
            return timed
        return make

    def reset(self):
        self.seconds.clear()


class Tracer(Patcher):
    """In-memory spans with parent links, plus counters."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name, on_result=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent)
                counts[name + ".calls"] += 1
                if on_result is not None:
                    on_result(counts, args, kwargs, result)
                return result
            return traced
        return make

    def count(self, name, on_call=None):
        """Counting wrapper without a span, for cheap calls made very often."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                if on_call is not None:
                    on_call(counts, args, kwargs)
                return fn(*args, **kwargs)
            return counted
        return make

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover.

        Calls are synchronous, so a span's children are disjoint intervals
        inside it and their durations simply add up.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(spans):
            out[name] += (end - start) - child[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from stochmatch import (augmenter, cli, estimator, exact, mwm, parallel,
                            sparsifier, vb_matching, verifier)

    def plan_rounds(counts, args, kwargs, _result):
        counts["sparsifier.plan_rounds"] += args[1] if len(args) > 1 else kwargs["t"]

    def blocks(counts, args, kwargs):
        total = args[2] if len(args) > 2 else kwargs["total"]
        block_len = kwargs.get("block_len", args[4] if len(args) > 4 else parallel.BLOCK_LEN)
        counts["parallel.blocks"] += -(-total // block_len)

    def vb_run(counts, _args, _kwargs, out):
        counts["vb_matching.clip_events"] += out.clip_events

    def fractional(counts, _args, _kwargs, result):
        counts["augmenter.zeroed_vertices"] += sum(result[1].overloaded)

    def combined(counts, _args, _kwargs, result):
        if result[1] == "augmented":
            counts["augmenter.augmented_runs"] += 1

    seen_keys = set()
    laws = []  # keeps every law alive for the round, so its id() is not reused

    def exact_cond(counts, args, kwargs):
        law, key = args[0], args[1:]
        if (id(law), key) not in seen_keys:
            seen_keys.add((id(law), key))
            laws.append(law)
            counts["exact.cond_queries"] += 1

    tracer.patch_function(networkx, "max_weight_matching", tracer.span("mwm.solve"))
    tracer.patch_function(mwm, "max_weight_matching", tracer.count("mwm.calls"))
    tracer.patch_function(mwm, "mm_edge_mask", tracer.count("mwm.calls"))
    tracer.patch_function(parallel, "rng_from", tracer.span("parallel.rng_from"))
    # No span: block work belongs to the estimator or check that asked for it.
    tracer.patch_function(parallel, "run_blocks", tracer.count("parallel.run_blocks", blocks))
    tracer.patch_function(estimator, "estimate_x", tracer.span("estimator.x"))
    tracer.patch_function(estimator, "estimate_y", tracer.span("estimator.y"))
    tracer.patch_function(estimator, "estimate_q", tracer.span("estimator.q"))
    tracer.patch_function(estimator, "estimate_pair_alive", tracer.span("estimator.pair_alive"))
    tracer.patch_function(estimator, "estimate_y_conditional", tracer.span("estimator.cond"))
    tracer.patch_function(exact, "exact_x", tracer.span("exact.x"))
    tracer.patch_classmethod(exact.MatchingLaw, "from_pipeline", tracer.span("exact.law"))
    tracer.patch_method(exact.MatchingLaw, "y_prime", tracer.count("exact.y_prime", exact_cond))
    tracer.patch_function(sparsifier, "plan_round_masks", tracer.span("sparsifier.plan", plan_rounds))
    tracer.patch_function(vb_matching, "run_vb", tracer.span("vb_matching.run", vb_run))
    tracer.patch_function(vb_matching, "exact_vb_enumeration", tracer.span("vb_matching.enum"))
    tracer.patch_function(augmenter, "build_fractional", tracer.span("augmenter.fractional", fractional))
    tracer.patch_function(augmenter, "round_fractional", tracer.span("augmenter.round"))
    tracer.patch_function(augmenter, "combine", tracer.span("augmenter.combine", combined))
    tracer.patch_function(augmenter, "end_to_end", tracer.span("augmenter.end_to_end"))
    for check in ("activation", "selectability", "pair_alive", "negative_association",
                  "var_z", "concentration_y"):
        tracer.patch_function(verifier, "check_" + check, tracer.span("verifier." + check))
    tracer.patch_function(verifier, "default_suite", tracer.span("verifier.suite"))
    tracer.patch_function(cli, "load_graph", tracer.span("cli.load_graph"))
    tracer.patch_function(cli, "build_tables", tracer.span("cli.build_tables"))
    tracer.patch_function(cli, "cmd_run", tracer.span("cli.write"))
    tracer.patch_function(cli, "cmd_verify", tracer.span("cli.write"))


def install_stopwatch(watch: Stopwatch, command: str) -> None:
    """Time table building and the sampling stage of one command.

    ``run``: ``cli.build_tables`` and ``augmenter.end_to_end``.  ``verify``:
    the exact tables and oracle laws the suite builds, and its checks.
    """
    from stochmatch import augmenter, cli, exact, verifier

    tables, sampling = watch.time_group("tables"), watch.time_group("sampling")
    if command == "run":
        watch.patch_function(cli, "build_tables", tables)
        watch.patch_function(augmenter, "end_to_end", sampling)
        return
    watch.patch_function(augmenter, "build_tables_exact", tables)
    watch.patch_classmethod(exact.MatchingLaw, "from_pipeline", tables)
    for check in ("activation", "selectability", "pair_alive", "negative_association",
                  "var_z", "concentration_y"):
        watch.patch_function(verifier, "check_" + check, sampling)


def layer_metrics(self_s: dict, counts: dict, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round from summed self times and counts."""
    def s(name):
        return self_s.get(name, 0.0) / rounds

    def c(name):
        return counts.get(name, 0.0) / rounds

    calls, solves = c("mwm.calls"), c("mwm.solve.calls")
    combines = c("augmenter.combine.calls")
    out = {
        "mwm.calls": (calls, "count"),
        "mwm.solves": (solves, "count"),
        "mwm.solve_s": (s("mwm.solve"), "s"),
        "mwm.hit_ratio": (1.0 - solves / calls if calls else 0.0, "ratio"),
        "parallel.rng_from_calls": (c("parallel.rng_from.calls"), "count"),
        "parallel.rng_from_s": (s("parallel.rng_from"), "s"),
        "parallel.blocks": (c("parallel.blocks"), "count"),
        "estimator.x_s": (s("estimator.x"), "s"),
        "estimator.y_s": (s("estimator.y"), "s"),
        "estimator.q_s": (s("estimator.q"), "s"),
        "estimator.pair_alive_s": (s("estimator.pair_alive"), "s"),
        "estimator.cond_queries": (c("estimator.cond.calls"), "count"),
        "estimator.cond_s": (s("estimator.cond"), "s"),
        "exact.x_s": (s("exact.x"), "s"),
        "exact.law_s": (s("exact.law"), "s"),
        "exact.cond_queries": (c("exact.cond_queries"), "count"),
        "sparsifier.plan_rounds": (c("sparsifier.plan_rounds"), "count"),
        "sparsifier.plan_s": (s("sparsifier.plan"), "s"),
        "vb_matching.runs": (c("vb_matching.run.calls"), "count"),
        "vb_matching.run_s": (s("vb_matching.run"), "s"),
        "vb_matching.enum_s": (s("vb_matching.enum"), "s"),
        "vb_matching.clip_events": (c("vb_matching.clip_events"), "count"),
        "augmenter.fractional_s": (s("augmenter.fractional"), "s"),
        "augmenter.round_s": (s("augmenter.round"), "s"),
        "augmenter.combine_s": (s("augmenter.combine"), "s"),
        "augmenter.augmented_share": (
            c("augmenter.augmented_runs") / combines if combines else 0.0, "ratio"),
        "augmenter.zeroed_vertices": (c("augmenter.zeroed_vertices"), "count"),
        "verifier.activation_s": (s("verifier.activation"), "s"),
        "verifier.selectability_s": (s("verifier.selectability"), "s"),
        "verifier.pair_alive_s": (s("verifier.pair_alive"), "s"),
        "verifier.negative_association_s": (s("verifier.negative_association"), "s"),
        "verifier.var_z_s": (s("verifier.var_z"), "s"),
        "verifier.concentration_y_s": (s("verifier.concentration_y"), "s"),
        "cli.write_s": (s("cli.write"), "s"),
    }
    return out
