"""Replication fan-out used by the Monte Carlo drivers.

Workers are module-level functions fed picklable argument tuples, so the
process pool stays optional: threads = 1 runs the same loop serially and
produces byte-identical aggregates (results keep submission order).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, items, threads: int | None = 1) -> list:
    items = list(items)
    if threads is None:
        threads = 1
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (8 * threads))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
