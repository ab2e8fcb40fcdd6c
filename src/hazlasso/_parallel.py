"""Chunked replication fan-out used by the Monte Carlo drivers.

The drivers cut their replications into chunks that go through the
batched pipeline as one array computation each: the oracle harness in
chunks of ``CHUNK``, the Bernstein harness in chunks its
``chunk_length(config)`` sets. Workers are module-level functions fed
picklable argument tuples, one chunk per call, so the process pool stays
optional: threads = 1 runs the same loop serially and produces
byte-identical aggregates (results keep submission order, and a
replication's numbers do not depend on its chunk).

Every chunk allocates and frees arrays of the same few sizes. glibc's
malloc takes blocks above its mmap threshold straight from the kernel and
hands them back when they are freed, and it returns the top of its heap
to the kernel once more than its trim threshold lies free there. Both
thresholds start near 128 KiB and adapt only to the largest block freed
so far, so a chunk's arrays go back to the kernel when it ends and are
faulted in again, page by page, by the next.
``parallel_map`` therefore raises both thresholds once per process, and
in every pool worker, so that freed chunk memory stays with malloc for the
next chunk. The setting is process-wide and outlives the call; it changes
no number, and where the C library has no ``mallopt`` (anything but glibc)
nothing is done.
"""

from __future__ import annotations

import functools

# Replications per oracle chunk, and the fewest per Bernstein chunk. At the
# 200 x 50 default config one (R, n, d) batch array is 0.64 MB at 8, and an
# oracle chunk with the whitened design holds about six of them at its
# peak, so its live arrays stay near 4 MB, all of it below the mmap
# threshold that _keep_chunk_memory sets and so kept by malloc from one
# chunk to the next, while the per-call overhead is spread over 8
# replications.
CHUNK = 8

# glibc mallopt parameters (malloc.h) and the values set: blocks up to
# 32 MiB (the largest mmap threshold glibc accepts on 64-bit) come from the
# heap, and up to 64 MiB may lie free at its top before it is trimmed.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _keep_chunk_memory() -> bool:
    """Raise glibc's mmap and trim thresholds, once per process; whether
    both settings took. False, with nothing changed, where the C library
    has no ``mallopt``."""
    import ctypes  # only the Monte Carlo drivers get here

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
    return mmap_set and trim_set


def chunks(count: int, size: int) -> list[range]:
    """Replication indices 0..count-1 cut into runs of at most ``size``."""
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _keep_chunk_memory()
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: the pool brings in multiprocessing and socket, which
    # a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads, initializer=_keep_chunk_memory) as pool:
        return list(pool.map(fn, items))
