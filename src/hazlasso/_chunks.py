"""Replication chunks for the Monte Carlo drivers.

The drivers cut their replications into chunks that go through the
batched pipeline as one array computation each. Both take the chunk
length from one rule, ``chunk_length(n, width)``: as many replications
as fit one (R, n, width) float array in ``CHUNK_BYTES``, clipped to
[``CHUNK``, ``MAX_CHUNK``]. The Bernstein harness passes the covariate
columns a chunk draws, the oracle harness the dictionary width d; at the
200 x 50 default config that is 256 replications a Bernstein chunk and
32 an oracle chunk, so a round of 200 and 15 replications is one chunk
each. Each replication draws from its own generator, so a report does
not depend on the chunking.

Every chunk allocates and frees arrays of the same few sizes. glibc's
malloc takes blocks above its mmap threshold straight from the kernel and
hands them back when they are freed, and it returns the top of its heap
to the kernel once more than its trim threshold lies free there. Both
thresholds start near 128 KiB and adapt only to the largest block freed
so far, so a chunk's arrays go back to the kernel when it ends and are
faulted in again, page by page, by the next.
The drivers therefore call ``_keep_chunk_memory`` before their first
chunk; it raises both thresholds once per process, so that freed chunk
memory stays with malloc for the next chunk. The setting is process-wide
and outlives the call; it changes no number, and where the C library has
no ``mallopt`` (anything but glibc) nothing is done.
"""

from __future__ import annotations

import functools

# The bytes of one (R, n, width) float array a chunk may fill, and the
# fewest and most replications of a chunk. An oracle chunk with the
# whitened design holds about six such arrays at its peak, so its live
# arrays stay near 15 MB, below the mmap threshold that _keep_chunk_memory
# sets and so kept by malloc from one chunk to the next. A Bernstein chunk
# holds a few far narrower ones, so MAX_CHUNK ends it first: 256
# replications, which spreads the fixed cost of a chunk over a whole
# default round.
CHUNK_BYTES = 5 << 19  # 2.5 MiB
CHUNK = 8
MAX_CHUNK = 256

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


def chunk_length(n: int, width: int) -> int:
    """Replications per chunk for n records and ``width`` columns: as many
    as fit one (R, n, width) float array in ``CHUNK_BYTES``, clipped to
    [``CHUNK``, ``MAX_CHUNK``]."""
    return min(max(CHUNK_BYTES // (8 * n * width), CHUNK), MAX_CHUNK)
