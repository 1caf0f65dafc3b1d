"""Path-level worker parallelism.

Paths are split into contiguous index ranges, one per worker, and every
random value is a pure function of (seed, path index, component), so the
assembled result is bit-identical to a single-worker run no matter how
many processes share the work.  The worker count comes from the
NEUROMF_WORKERS environment variable (default 1), which must hold an
integer >= 1.
"""

from __future__ import annotations

import os

from .errors import ConfigError
from .network import NetworkConfig, PathEnsemble, _check_memory, _Storage, simulate

WORKERS_ENV = "NEUROMF_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError([f"{WORKERS_ENV} = {raw!r}: must be an integer >= 1"])
    return n


def _chunk_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    per = (n + workers - 1) // workers
    return [(lo, min(lo + per, n)) for lo in range(0, n, per)]


def _simulate_chunk(config: NetworkConfig, lo: int, hi: int) -> PathEnsemble:
    return simulate(config, n_paths=hi - lo, path_offset=lo)


def simulate_paths(config: NetworkConfig, n_paths: int) -> PathEnsemble:
    """`simulate`, with paths spread across `NEUROMF_WORKERS` processes."""
    workers = min(worker_count(), n_paths)
    if workers <= 1:  # no path, or one worker
        return simulate(config, n_paths=n_paths)
    from concurrent.futures import ProcessPoolExecutor  # a single worker never needs it

    config.validate_or_raise()
    store = _Storage(config, n_paths)  # the whole ensemble must fit, not each worker's share
    ranges = _chunk_ranges(n_paths, workers)
    # while a part is stored, its pickled bytes or the next finished part wait beside it
    in_transit = sum(sorted(hi - lo for lo, hi in ranges)[-2:])
    _check_memory(store.path_bytes * (n_paths + in_transit),
                  f"spec.n_paths = {n_paths} over {WORKERS_ENV} = {workers} workers holds the ensemble "
                  f"and its two largest parts in transit, at least")
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_simulate_chunk, [config] * len(ranges), *zip(*ranges))
        for (lo, _), part in zip(ranges, parts):  # in path order
            store.merge(lo, part)
    return store.ensemble()
