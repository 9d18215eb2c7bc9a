"""Deterministic seed splitting and block-parallel trial execution.

Every randomized operation in this package draws from a generator derived
from ``(master_seed, *path)`` via :class:`numpy.random.SeedSequence`, and
long Monte Carlo loops are chopped into fixed-size blocks whose streams
depend only on the block index.  Aggregation happens in block order, so the
result of a run is byte-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable

import numpy as np

# Fixed block length for Monte Carlo loops.  Must never depend on the worker
# count, or the per-block streams would change with it.
BLOCK_LEN = 2048

_WORKERS_ENV = "STOCHMATCH_WORKERS"


def rng_from(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by ``(master_seed, *path)``."""
    entropy = (int(master_seed),) + tuple(int(x) for x in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the STOCHMATCH_WORKERS env var, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_WORKERS_ENV)
    if env:
        return max(1, int(env))
    return 1


def iter_blocks(total: int):
    """Yield (block_index, count) covering ``total`` trials in ``BLOCK_LEN`` blocks.

    Block ``i`` holds trials ``i * BLOCK_LEN`` onwards; callers that number
    their trials rely on that.
    """
    for index, start in enumerate(range(0, total, BLOCK_LEN)):
        yield index, min(BLOCK_LEN, total - start)


def run_blocks(
    fn: Callable[..., Any],
    args: tuple,
    total: int,
    workers: int | None = None,
) -> list:
    """Run ``fn(*args, block_index, count)`` over all blocks of ``total`` trials.

    Results are returned in block order.  ``fn`` must be picklable (a
    module-level function) when more than one worker is used.
    """
    workers = resolve_workers(workers)
    blocks = list(iter_blocks(total))
    if workers == 1 or len(blocks) == 1:
        return [fn(*args, index, count) for index, count in blocks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args, index, count) for index, count in blocks]
        return [f.result() for f in futures]
