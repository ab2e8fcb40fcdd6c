"""Chunked replication fan-out used by the Monte Carlo drivers.

The drivers cut their replications into chunks that go through the
batched pipeline as one array computation each: the oracle harness in
chunks of ``CHUNK``, the Bernstein harness in chunks its
``chunk_length(config)`` sets. Workers are module-level functions fed
picklable argument tuples, one chunk per call, so the process pool stays
optional: threads = 1 runs the same loop serially and produces
byte-identical aggregates (results keep submission order, and a
replication's numbers do not depend on its chunk).
"""

from __future__ import annotations

# Replications per oracle chunk, and the fewest per Bernstein chunk. At the
# 200 x 50 default config one (R, n, d) batch array is 0.64 MB at 8, and an
# oracle chunk with the whitened design holds about eight of them at its
# peak, so its live arrays stay near 5 MB while the per-call overhead is
# spread over 8 replications.
CHUNK = 8


def chunks(count: int, size: int) -> list[range]:
    """Replication indices 0..count-1 cut into runs of at most ``size``."""
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: the pool brings in multiprocessing and socket, which
    # a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
