"""Deterministic seed splitting and block-parallel trial execution.

Every randomized operation in this package draws from a generator derived
from ``(master_seed, *path)`` via :class:`numpy.random.SeedSequence`, and
long Monte Carlo loops are chopped into fixed-size blocks whose streams
depend only on the block index.  Aggregation happens in block order, so the
result of a run is byte-identical for any worker count.

The worker count belongs to a command, not to an estimator: the CLI opens
one :func:`worker_pool` around a whole command, and every :func:`run_blocks`
call inside it submits its blocks to that pool.  Outside a pool, blocks run
inline.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

# Fixed block length for Monte Carlo loops.  Must never depend on the worker
# count, or the per-block streams would change with it.
BLOCK_LEN = 2048

# The executor of the open worker_pool, if any.
_pool: ProcessPoolExecutor | None = None


def rng_from(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by ``(master_seed, *path)``."""
    entropy = (int(master_seed),) + tuple(int(x) for x in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@contextmanager
def worker_pool(workers: int | None):
    """Hold one process pool of ``workers`` processes for the body.

    ``None`` or 1 opens no pool.  Inside an open pool a nested call reuses
    it.  On exit, also by an exception, the pool is shut down and its
    worker processes are gone.
    """
    global _pool
    if _pool is not None or workers is None or workers == 1:
        yield
        return
    _pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield
    finally:
        pool, _pool = _pool, None
        pool.shutdown(wait=True, cancel_futures=True)


def iter_blocks(total: int):
    """Yield (block_index, count) covering ``total`` trials in ``BLOCK_LEN`` blocks.

    Block ``i`` holds trials ``i * BLOCK_LEN`` onwards; callers that number
    their trials rely on that.
    """
    for index, start in enumerate(range(0, total, BLOCK_LEN)):
        yield index, min(BLOCK_LEN, total - start)


def run_blocks(fn: Callable[..., Any], args: tuple, total: int) -> list:
    """Run ``fn(*args, block_index, count)`` over all blocks of ``total`` trials.

    Results are returned in block order.  Inside a :func:`worker_pool` with
    more than one block, the blocks go to its processes, so ``fn`` and
    ``args`` must be picklable (``fn`` a module-level function), and ``fn``
    must not call ``run_blocks``: a forked worker still sees the pool.
    Raises ``ValueError`` unless ``total >= 1``.
    """
    if total < 1:
        raise ValueError("trials must be >= 1")
    blocks = list(iter_blocks(total))
    if _pool is None or len(blocks) == 1:
        return [fn(*args, index, count) for index, count in blocks]
    futures = [_pool.submit(fn, *args, index, count) for index, count in blocks]
    return [f.result() for f in futures]
