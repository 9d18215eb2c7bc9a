"""A property over JSON objects near the config schema: each one either fails
with a ValueError that names a field before ``out`` exists, or loads,
hashes and finishes ``run`` at a tiny budget."""

import json
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochmatch.cli import DEFAULT_BUDGETS, cmd_run, load_config, load_graph
from stochmatch.exact import EnumerationTooLarge
from stochmatch.gadgets import benchmark_6v8e_graph
from stochmatch.graph_core import write_graph

OUT, FILE = "<out>", "<graph file>"  # replaced by paths under the test's directory

# Wrong types, bools where ints go, negatives, zero, NaN and infinities.
JUNK = st.sampled_from([None, True, False, 0, -1, -2.5, 0.0, 1.5, float("nan"), float("inf"),
                        float("-inf"), "1", "benchmark_6v8e", [], [1], {"x": 1}])
# Any string is a valid path: a junk one would read or write outside the test's directory.
NOT_A_PATH = JUNK.filter(lambda value: not isinstance(value, str))


def mix(*strategies):
    """One of ``strategies``, each as likely (``one_of`` would merge repeats)."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def near(valid, junk=JUNK):
    """Nine times in ten a valid value, else junk."""
    return mix(*[valid] * 9, junk)


def objects(keys, required=()):
    """Objects over ``keys``: the required keys and some optional ones; one
    in ten has an unknown key, one in ten may miss any key."""
    present = st.fixed_dictionaries({key: keys[key] for key in required},
                                    optional={k: v for k, v in keys.items() if k not in required})
    return mix(*[present] * 8, present.map(lambda obj: {**obj, "sead": 3}),
               st.fixed_dictionaries({}, optional=keys))


def laws(names, values):
    """Law descriptors, most of them naming a law of ``names``."""
    params = {"constant": ("value",), "uniform": ("low", "high"), "exponential": ("scale",),
              "normal": ("mu",)}
    return mix(*(objects({"name": st.just(name), **{key: near(values) for key in keys}},
                         required=("name", *keys))
                 for name, keys in params.items() for _ in range(3 if name in names else 1)),
               JUNK)


GENERATORS = objects({
    "n": near(st.sampled_from([0, 1, 4, 5, 5, 8, 8])),
    "density": near(st.sampled_from([0.0, 0.3, 0.3, 1, 1.0])),
    "weight_law": laws(("constant", "uniform", "exponential"),
                       st.sampled_from([0.0, 0.1, 2.0, 1e300])),
    "prob_law": laws(("constant", "uniform"), st.sampled_from([0.05, 0.5, 1.0])),
    "seed": near(st.sampled_from([0, 3, 2**64 + 7])),
}, required=("n", "density", "weight_law", "prob_law"))
GRAPHS = mix(
    *[st.fixed_dictionaries({"generator": near(GENERATORS)})] * 4,
    st.fixed_dictionaries({"bundled": near(st.just("benchmark_6v8e"))}),
    st.fixed_dictionaries({"file": near(st.just(FILE), NOT_A_PATH)}),
    JUNK, st.just({}), st.just({"bundled": "benchmark_6v8e", "file": FILE}),
)
# Every budget is always drawn: a missing one would be its (large) default.
BUDGETS = near(st.fixed_dictionaries({key: near(st.integers(1, 16)) for key in DEFAULT_BUDGETS}))
CONFIGS = mix(*[st.tuples(
    objects({
        "graph": GRAPHS,
        "seed": near(st.sampled_from([0, 7, 2**64 + 7])),
        "workers": near(st.sampled_from([None, 1])),
        "t": near(st.one_of(st.integers(0, 8), st.lists(st.integers(0, 8), max_size=3))),
        "epsilon": near(st.sampled_from([0.2, 0.5, 1.0])),
        "delta": near(st.sampled_from([1.0 / 576.0, 0.1])),
        "tau": near(st.sampled_from([None, 0.05, 0.3])),
        "tables": near(st.sampled_from(["auto", "exact", "monte_carlo", "Exact"])),
        "control_full_plan": near(st.booleans()),
        "verify_trials": near(st.integers(2, 8)),
        "negative_control": near(st.booleans()),
    }, required=("graph",)),
    # out, trials and the budgets are always drawn, so no run is large
    st.fixed_dictionaries({"out": near(st.just(OUT), NOT_A_PATH), "trials": near(st.integers(1, 8)),
                           "budgets": BUDGETS}),
).map(lambda parts: {**parts[0], **parts[1]})] * 9, JUNK)

# Every message begins with the field it is about (a missing or unknown key
# names its object).
NAMES_A_FIELD = re.compile(
    r"(unknown )?(config |graph |bundled graph |generator |weight law |probability law "
    r"|exponential weight law |budgets? |seed |trial budget |verify trial budget |workers? "
    r"|t must |plan sizes |epsilon |delta |tau |out |tables |control_full_plan "
    r"|negative_control )")


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(config=CONFIGS)
def test_a_config_near_the_schema_fails_on_a_field_or_runs(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("fuzz")
    write_graph(benchmark_6v8e_graph(), root / "graph.txt")
    text = json.dumps(config).replace(json.dumps(OUT), json.dumps(str(root / "out")))
    path = root / "config.json"
    path.write_text(text.replace(json.dumps(FILE), json.dumps(str(root / "graph.txt"))))
    try:
        loaded = load_config(str(path), {})
        loaded.config_hash()
        out = cmd_run(loaded)
    except ValueError as error:
        if str(error) == "cannot run the pipeline on an edgeless graph":
            assert load_graph(loaded).m == 0
        elif isinstance(error, EnumerationTooLarge):  # exact tables stop past 16 edges
            assert loaded.tables == "exact"
        else:
            assert NAMES_A_FIELD.match(str(error)), str(error)
        assert not (root / "out").exists()
        return
    assert (out / "runs.jsonl").exists()
