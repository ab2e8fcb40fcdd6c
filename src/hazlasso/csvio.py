"""Numeric CSV input: one header row of labels, then rows of numbers.

Both loaders, ``survival.load_dataset`` and ``dictionary.load_dictionary``,
read through ``read_numeric_csv``. The syntax is the default dialect of
Python's ``csv`` module:

* fields are separated by commas; a field may be wrapped in double
  quotes, inside which a comma or a line break is literal and ``""`` is
  one quote character;
* blank lines are skipped but still counted in line numbers;
* a number is a Python float literal written in ASCII (``-1``, ``2.5e-3``,
  ``1.``, ``inf``, ``nan``), with optional whitespace around it and no
  digit-grouping underscores; there are no comments, so ``#`` is an error;
* in a binary column (``binary_columns``, such as a dataset's status) a
  value is the text ``0`` or ``1`` alone, with optional whitespace around
  it: ``1.0``, ``01`` and ``+1`` are errors.

The header is read as text, by ``csv.reader`` over lines pulled one at a
time, in the platform's default encoding; one leading byte-order mark
(U+FEFF, as spreadsheet programs write "CSV UTF-8") is dropped from the
first label. The body, from the byte just past the header, goes to one of
two readers, and the result is checked as whole arrays: the record width,
finite values, binary columns, and the loader's own test.

* A **plain** body is parsed by the compiled reader of ``_plaincsv``,
  straight into the float64 block. Plain means: an ASCII-compatible
  encoding (UTF-8 or ASCII); unquoted ASCII decimal literals
  ``[+-]?(d+[.d*]|.d+)([eE][+-]?d+)?``, with spaces around them;
  commas; "\\n", "\\r\\n" and "\\r" line ends, with empty lines skipped;
  and exactly one field per header label on every other line. Its
  conversion is correctly rounded, as numpy's is, so the values are
  bit-identical. The reader is compiled with ``cc`` on first use, in about
  0.15 s, into ``$XDG_CACHE_HOME/hazlasso`` (``~/.cache/hazlasso`` when
  that is unset), a directory made with mode 0700, and loaded from there
  by later processes.
* Every other body, a plain body that fails a check, and every body when
  the reader cannot be built or loaded, goes to numpy's C reader, opened
  in binary: numpy decodes the lines itself, in the header's encoding,
  which is cheaper than taking lines Python has already decoded. The
  lines are split at "\\n", "\\r\\n" and "\\r", as text mode splits them.
  The fallback is silent: DEBUG records on the ``hazlasso._plaincsv``
  logger say why the compiled reader is missing and name the reader of
  each file (their ``reader`` attribute is ``"compiled"`` or ``"numpy"``).

Only when the numpy parse or a check fails does ``scan_rows`` read the
file again, as text, record by record and by the same rules, to name the
first bad line, so every error message comes from numpy or ``scan_rows``.
Line numbers count CSV records: the header is line 1, blank lines count,
and a quoted line break does not start a new line.
"""

from __future__ import annotations

import codecs
import csv
import warnings

import numpy as np

from .errors import DataValidationError

_BINARY = {"0": 0.0, "1": 1.0}


def parse_number(field: str) -> float:
    """One field as a float, accepting exactly what numpy's reader accepts."""
    text = field.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {field!r}")
    return float(text)


def _pulled(fh, consumed: list):
    """The lines of a text handle, one ``readline()`` at a time, each also
    appended to ``consumed``. The first line is yielded without one
    leading byte-order mark; ``consumed`` keeps it, so its bytes still
    count in the body offset."""
    for line in iter(fh.readline, ""):
        consumed.append(line)
        yield line.removeprefix("\ufeff") if len(consumed) == 1 else line


def _binary_lines(fh):
    """The lines of a binary handle, split at "\\n", "\\r\\n" and "\\r" as a
    text handle opened with ``newline=""`` splits them; iterating a binary
    handle splits only at "\\n"."""
    for line in fh:
        # the line's own ending ("\r\n", "\n", "\r" or none) is not searched
        end = len(line) - 2 if line.endswith(b"\r\n") else len(line) - 1
        if line.find(b"\r", 0, end) < 0:
            yield line
        else:
            yield from line.splitlines(keepends=True)


def _binary_field(field: str) -> float:
    """A binary column's field for numpy's reader; -1 marks a bad one."""
    return _BINARY.get(field.strip(), -1.0)


def _accepted(values: np.ndarray, width: int, binary_columns, valid) -> bool:
    """The whole-array checks of a parsed body."""
    if values.shape[1] != width or not np.isfinite(values).all():
        return False
    binary = values[:, list(binary_columns)]
    return bool(((binary == 0.0) | (binary == 1.0)).all() and (valid is None or valid(values)))


def read_numeric_csv(path, check_header, row_error, valid=None, binary_columns=()):
    """Header labels and an (n, width) array of the non-blank records.

    ``check_header(path, header)`` raises for a bad header (labels already
    stripped). A column in ``binary_columns`` takes only ``0`` or ``1``.
    Every value must be finite, and ``valid(values)``, if given, is the
    loader's own whole-array test. When the parse or a test fails,
    ``row_error`` locates the bad line (see ``scan_rows``).
    """
    # imported here, so that a process that reads no CSV does not load it
    from . import _plaincsv

    consumed: list[str] = []
    with open(path, newline="") as fh:
        try:
            header = [c.strip() for c in next(csv.reader(_pulled(fh, consumed)))]
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        encoding = fh.encoding
    check_header(path, header)
    # newline="" keeps line endings as written, so the header's lines
    # encode back to exactly the bytes they came from
    offset = len("".join(consumed).encode(encoding))
    if codecs.lookup(encoding).name in ("utf-8", "ascii"):
        values = _plaincsv.read_body(path, offset, len(header), binary_columns)
        if values is not None and _accepted(values, len(header), binary_columns, valid):
            _plaincsv.debug("%s: body read by the compiled reader", path, reader="compiled")
            return header, values
        del values
    with open(path, "rb") as fh:
        fh.seek(offset)
        try:
            with warnings.catch_warnings():
                # a body of blank lines is reported as "no data rows" below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(
                    _binary_lines(fh),
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    ndmin=2,
                    # a bad binary field becomes -1, which _accepted rejects
                    converters=dict.fromkeys(binary_columns, _binary_field) or None,
                    encoding=encoding,
                )
        except ValueError as exc:
            failure = str(exc)
        else:
            if values.shape[0] == 0:
                raise DataValidationError(f"{path}: no data rows")
            failure = "a value failed the whole-file checks"
            if _accepted(values, len(header), binary_columns, valid):
                _plaincsv.debug("%s: body read by numpy", path, reader="numpy")
                return header, values
    scan_rows(path, header, row_error, failure)


def scan_rows(path, header, row_error, failure: str):
    """Raise DataValidationError naming the first bad line of ``path``.

    ``row_error(header, row)`` returns the loader's message for a record
    with one field per header label, or None if the record is fine. The
    records are read with ``csv.reader``, so blank lines count as lines.
    If every record passes, the error names the last line and quotes
    ``failure``, the reason the whole-file parse gave.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(_pulled(fh, []))  # drops a byte-order mark as the header parse does
        next(reader)
        lineno = 1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                problem = f"expected {len(header)} fields, got {len(row)}"
            else:
                problem = row_error(header, row)
            if problem:
                raise DataValidationError(f"{path}: line {lineno}: {problem}")
    raise DataValidationError(f"{path}: line {lineno} (end of file): {failure}")
