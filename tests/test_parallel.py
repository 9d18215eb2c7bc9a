import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from stochmatch import augmenter, cli, estimator, parallel, sparsifier, verifier
from stochmatch.cli import ExperimentConfig, cmd_run, cmd_verify
from stochmatch.parallel import BLOCK_LEN, run_blocks, worker_pool


def _pid_block(block, count):
    return block, count, os.getpid()


@pytest.fixture
def executors(monkeypatch):
    """Every ProcessPoolExecutor that `parallel` builds, in build order."""
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return built


def assert_no_pool_left():
    assert parallel._pool is None
    assert multiprocessing.active_children() == []


def test_run_blocks_outside_a_pool_runs_inline(executors):
    parts = run_blocks(_pid_block, (), 2 * BLOCK_LEN + 1)
    assert parts == [(0, BLOCK_LEN, os.getpid()), (1, BLOCK_LEN, os.getpid()),
                     (2, 1, os.getpid())]
    assert executors == []


def test_pool_of_one_worker_opens_no_executor(executors):
    with worker_pool(1):
        parts = run_blocks(_pid_block, (), 2 * BLOCK_LEN)
    assert {pid for _b, _c, pid in parts} == {os.getpid()}
    assert executors == []


def test_pool_sends_blocks_to_workers_in_block_order(executors):
    with worker_pool(2):
        parts = run_blocks(_pid_block, (), 3 * BLOCK_LEN)
    assert [(b, c) for b, c, _pid in parts] == [(0, BLOCK_LEN), (1, BLOCK_LEN), (2, BLOCK_LEN)]
    assert os.getpid() not in {pid for _b, _c, pid in parts}
    assert len(executors) == 1
    assert_no_pool_left()


def test_nested_pool_reuses_the_outer_executor(executors):
    with worker_pool(2):
        with worker_pool(2):
            run_blocks(_pid_block, (), 2 * BLOCK_LEN)
        run_blocks(_pid_block, (), 2 * BLOCK_LEN)
    assert len(executors) == 1
    assert_no_pool_left()


def test_pool_is_gone_after_an_exception(executors):
    with pytest.raises(RuntimeError, match="inside the pool"):
        with worker_pool(2):
            run_blocks(_pid_block, (), 2 * BLOCK_LEN)
            raise RuntimeError("inside the pool")
    assert_no_pool_left()
    parts = run_blocks(_pid_block, (), 2 * BLOCK_LEN)
    assert {pid for _b, _c, pid in parts} == {os.getpid()}
    assert len(executors) == 1


def test_cmd_verify_builds_one_executor(tmp_path, executors):
    config = ExperimentConfig(out=str(tmp_path / "v"), seed=2024,
                              verify_trials=BLOCK_LEN + 1, workers=2)
    assert cmd_verify(config) == 0
    assert len(executors) == 1
    assert_no_pool_left()


def test_cmd_run_leaves_no_pool_when_it_raises(tmp_path, executors, monkeypatch):
    def failing(*args, **kwargs):
        run_blocks(_pid_block, (), 2 * BLOCK_LEN)  # the pool is up and used
        raise RuntimeError("sampling failed")

    monkeypatch.setattr(cli, "end_to_end", failing)
    config = ExperimentConfig(graph={"bundled": "benchmark_6v8e"}, seed=3, trials=10,
                              tables="exact", out=str(tmp_path / "r"), workers=2)
    with pytest.raises(RuntimeError, match="sampling failed"):
        cmd_run(config)
    assert len(executors) == 1
    assert_no_pool_left()


def test_stream_tags_are_pairwise_distinct():
    """A tag used by two streams would correlate their draws silently."""
    tags = {f"{module.__name__}.{name}": value
            for module in (estimator, augmenter, verifier, sparsifier)
            for name, value in vars(module).items() if name.startswith("_TAG_")}
    assert len(tags) >= 12
    assert len(set(tags.values())) == len(tags), tags
