"""The Monte Carlo driver: replications drawn and worked in chunks.

Both harnesses, ``bernstein.run_mc`` and ``oracle.run_oracle_mc``, hand
their replications to ``run_chunks``, which makes every decision they
share. It refuses fewer than one replication, takes the seed of the
config unless one is given, keys replication ``rep`` as ``[seed, rep]``,
cuts the replications into chunks, draws each chunk with
``simulate_batch`` and builds its timeline, and returns what the
harness's ``work(truth, timeline)`` makes of each chunk, in replication
order. A chunk goes through the batched pipeline as one array
computation; ``work`` runs inside the driver, so one chunk's arrays are
freed before the next is drawn. Each replication draws from its own
generator, so a report does not depend on the chunking.

The chunk length comes from one rule, ``chunk_length(n, width)``: as
many replications as fit one (R, n, width) float array in
``CHUNK_BYTES``, clipped to [``CHUNK``, ``MAX_CHUNK``]. The width is the
number of covariate columns a chunk draws, ``drawn_columns(config,
columns)``: the Bernstein harness asks for the audited column's prefix,
the oracle harness for all d. At the 200 x 50 default that is 256
replications a Bernstein chunk and 32 an oracle chunk, so a round of 200
and 15 replications is one chunk each.

Every chunk allocates and frees arrays of the same few sizes. glibc's
malloc takes blocks above its mmap threshold straight from the kernel and
hands them back when they are freed, and it returns the top of its heap
to the kernel once more than its trim threshold lies free there. Both
thresholds start near 128 KiB and adapt only to the largest block freed
so far, so a chunk's arrays go back to the kernel when it ends and are
faulted in again, page by page, by the next.
The driver therefore calls ``_keep_chunk_memory`` before its first
chunk; it raises both thresholds once per process, so that freed chunk
memory stays with malloc for the next chunk. The setting is process-wide
and outlives the call; it changes no number, and where the C library has
no ``mallopt`` (anything but glibc) nothing is done.
"""

from __future__ import annotations

import functools

from .errors import ConfigError
from .simulate import SimulationConfig, drawn_columns, simulate_batch
from .survival import build_timeline

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


def run_chunks(
    config: SimulationConfig, replications: int, seed: int | None, columns: int | None, work
) -> list:
    """``work(truth, timeline)`` of each chunk of ``replications`` fresh
    datasets, in replication order. Replication rep is keyed ``[seed,
    rep]``, with ``config.seed`` when ``seed`` is None; each chunk draws
    the leading ``drawn_columns(config, columns)`` covariate columns (all
    d for None)."""
    if replications < 1:
        raise ConfigError("need at least one replication")
    base = config.seed if seed is None else int(seed)
    length = chunk_length(config.n, drawn_columns(config, columns))
    _keep_chunk_memory()

    def draw(reps: range):
        truth = simulate_batch(config, [[base, rep] for rep in reps], columns=columns)
        return truth, build_timeline(truth.dataset)

    # no name holds a chunk once its work returns, so it is freed before
    # the next chunk is drawn
    return [work(*draw(reps)) for reps in chunks(replications, length)]
