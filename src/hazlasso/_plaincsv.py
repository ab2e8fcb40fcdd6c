"""The compiled reader of plain CSV bodies: build, cache, load and run.

``_plaincsv.c`` parses a plain body (see ``csvio``) straight into the
float64 block. It is compiled on first use, not at import, with
``cc -O2 -shared -fPIC``, into the per-user cache directory
``$XDG_CACHE_HOME/hazlasso`` (``~/.cache/hazlasso`` when that variable is
unset or not absolute), created with mode 0700; a directory that is not
the user's own, or that others may write to, is not used. The object's
name is the SHA-256 of the C source, of this module's source (which
writes the power table into it and holds the compiler flags) and of
``platform.machine()``, so the table, which takes milliseconds to make
with Python integers, is made on a cache miss only. The object is compiled
under a ``mkstemp`` name and moved into place with ``os.replace``, so
processes that build at once are safe; a process with a warm cache pays
only the hash of the source and the ``dlopen``.

When there is no compiler, the directory cannot be written, the build
fails or the object does not load, ``library()`` returns None for the
rest of the process and every body goes through numpy. Nothing is warned;
the reason is logged at DEBUG on this module's logger.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import sys
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_plaincsv.c")
POWERS_MARK = "/* POWERS */"
# the decimal exponents of the power table, as in _plaincsv.c
SMALLEST_POWER, LARGEST_POWER = -342, 308
COMPILE = ("cc", "-O2", "-shared", "-fPIC")
BLOCK = 1 << 20  # bytes read at a time


def debug(message: str, *args, **extra) -> None:
    """Log ``message`` at DEBUG on this module's logger. A process that has
    not imported ``logging`` (about 10 ms) has no handler to hear it."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(message, *args, extra=extra or None)


def powers_table() -> str:
    """The C initializer rows of the power table: 5^q for q from
    SMALLEST_POWER to LARGEST_POWER in 128 bits, normalised so the top bit
    is set, truncated for q >= 0 and rounded up for q < 0, as in the
    fast_float library's table."""
    rows = []
    for q in range(SMALLEST_POWER, LARGEST_POWER + 1):
        if q >= 0:
            power = 5**q
            shift = power.bit_length() - 128
            c = power >> shift if shift > 0 else power << -shift
        else:
            power = 5**-q
            z = power.bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // power + 1
            c >>= max(c.bit_length() - 128, 0)
        rows.append(f"    {{UINT64_C(0x{c >> 64:016x}), UINT64_C(0x{c & (2**64 - 1):016x})}},")
    return "\n".join(rows)


def generated_source() -> str:
    """``_plaincsv.c`` with its power table written in."""
    return SOURCE.read_text(encoding="ascii").replace(POWERS_MARK, powers_table())


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "hazlasso")


def _sha256(data: bytes) -> str:
    # hashlib's OpenSSL backend costs about 5 ms to import, its builtin
    # implementation under 1 ms; both give the same digest
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def object_path() -> Path:
    """Where the compiled reader for this source and machine is cached."""
    key = SOURCE.read_bytes() + Path(__file__).read_bytes() + platform.machine().encode()
    return cache_dir() / f"plaincsv-{_sha256(key)}.so"


def _private_dir(directory: Path) -> None:
    """Create ``directory`` with mode 0700 if need be; refuse one that is
    not this user's own or that others may write to."""
    try:
        st = os.stat(directory)
    except FileNotFoundError:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(directory)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{directory} is not private to this user")


def build(target: Path) -> None:
    """Compile the reader into ``target``, atomically."""
    import subprocess
    import tempfile

    fd, source = tempfile.mkstemp(suffix=".c", dir=target.parent)
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(generated_source())
    fd, built = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        try:
            subprocess.run([*COMPILE, "-o", built, source], check=True, capture_output=True, timeout=300)
        except subprocess.SubprocessError as exc:
            stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
            raise OSError(f"{' '.join(COMPILE)} failed: {exc} {stderr}") from None
        os.replace(built, target)
    finally:
        for name in (source, built):
            try:
                os.unlink(name)
            except FileNotFoundError:
                pass


def _load() -> ctypes.CDLL:
    """Build the reader if the cache lacks it, and load it."""
    target = object_path()
    _private_dir(target.parent)
    if not target.exists():
        build(target)
        debug("compiled the plain CSV reader into %s", target)
    lib = ctypes.CDLL(str(target))
    i64, pointer = ctypes.c_int64, ctypes.c_void_p
    lib.hazlasso_plaincsv_init.argtypes = []
    lib.hazlasso_plaincsv_init.restype = ctypes.c_int
    lib.hazlasso_parse_plain.argtypes = [
        pointer, i64, i64, ctypes.c_char_p, pointer, i64, ctypes.POINTER(i64), ctypes.POINTER(i64),
    ]
    lib.hazlasso_parse_plain.restype = ctypes.c_int
    if lib.hazlasso_plaincsv_init() != 0:
        raise OSError("no C locale for strtod_l")
    return lib


@functools.cache
def library():
    """The loaded reader, or None when it cannot be had in this process."""
    try:
        return _load()
    except (OSError, AttributeError) as exc:  # AttributeError: a symbol is missing
        debug("no compiled CSV reader, numpy reads every body: %s", exc)
        return None


def _records(rows: int, size: int, seen: int) -> int:
    """Records to make room for: ``rows`` in the first ``seen`` bytes of a
    ``size``-byte body, scaled to the whole, with 2% and one to spare."""
    return int(1.02 * rows * size / max(seen, 1)) + 1


def read_body(path, offset: int, width: int, binary_columns=()):
    """The (n, width) float64 block of the plain body of ``path`` from byte
    ``offset`` on, or None when the body is not plain, holds no record or
    the compiled reader is not available.

    The body is read in BLOCK-byte ``readinto`` calls into one buffer that
    carries the partial last line to the next block. The output is sized
    from the line ends of the first block, grown in place when that
    estimate falls short, and trimmed to fit at the end.
    """
    lib = library()
    if lib is None or width < 1:
        return None
    binary = bytes(j in binary_columns for j in range(width))
    rows, used = ctypes.c_int64(0), ctypes.c_int64(0)
    out = None
    filled = done = 0  # bytes in buf, and bytes of the body parsed
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size - offset
        fh.seek(offset)
        buf = bytearray(max(1, min(BLOCK, size + 1)))  # a small body is read whole
        view = (ctypes.c_char * len(buf)).from_buffer(buf)  # keeps buf from resizing
        while True:
            if filled == len(buf):  # a line longer than the buffer
                buf = buf + bytearray(len(buf))
                view = (ctypes.c_char * len(buf)).from_buffer(buf)
            got = fh.readinto(memoryview(buf)[filled:])
            filled += got
            if got == 0:
                cut = filled
            else:
                # up to the last line end; a "\r" there may be half of a
                # "\r\n", whose "\n" the next block then reads as a blank line
                newline = buf.rfind(b"\n", 0, filled)
                cut = max(newline, buf.rfind(b"\r", newline + 1, filled)) + 1
            if out is None:
                # np.empty, unlike a resize, writes no zeros to the block
                lines = max(buf.count(b"\n", 0, cut), buf.count(b"\r", 0, cut))
                out = np.empty(_records(lines, size, cut) * width)
            start = 0
            while start < cut:
                status = lib.hazlasso_parse_plain(
                    ctypes.addressof(view) + start, cut - start, width, binary, out.ctypes.data,
                    len(out) // width, rows, used,
                )
                if status < 0:
                    return None
                start += used.value
                if status == 1:
                    out.resize(_records(rows.value, size, done + start) * width, refcheck=False)
            done += cut
            buf[: filled - cut] = buf[cut:filled]
            filled -= cut
            if got == 0:
                break
    if rows.value == 0:
        return None
    out.resize(rows.value * width, refcheck=False)
    return out.reshape(rows.value, width)
