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
  digit-grouping underscores; there are no comments, so ``#`` is an error.

The header is read as text, by ``csv.reader`` over lines pulled one at a
time, in the platform's default encoding; one leading byte-order mark
(U+FEFF, as spreadsheet programs write "CSV UTF-8") is dropped from the
first label. The body is parsed in one call to numpy's C reader from the
same file opened in binary just past the header: numpy decodes the lines
itself, in that encoding, which is cheaper than taking lines Python has
already decoded. The lines are split at "\\n", "\\r\\n" and "\\r", as
text mode splits them. The result is checked as whole arrays. Only when
that parse or a check fails does ``scan_rows`` read the file again, as
text, record by record and by the same rules, to name the first bad line.
Line numbers count CSV records: the header is line 1, blank lines count,
and a quoted line break does not start a new line.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import DataValidationError


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


def read_numeric_csv(path, check_header, row_error, valid=None, converters=None):
    """Header labels and an (n, width) array of the non-blank records.

    ``check_header(path, header)`` raises for a bad header (labels already
    stripped). ``converters`` maps a column to a function of the field
    text, as in ``np.loadtxt``. Every value must be finite, and
    ``valid(values)``, if given, is the loader's own whole-array test.
    When the parse or a test fails, ``row_error`` locates the bad line
    (see ``scan_rows``).
    """
    consumed: list[str] = []
    with open(path, newline="") as fh:
        try:
            header = [c.strip() for c in next(csv.reader(_pulled(fh, consumed)))]
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        encoding = fh.encoding
    check_header(path, header)
    with open(path, "rb") as fh:
        # newline="" keeps line endings as written, so the header's lines
        # encode back to exactly the bytes they came from
        fh.seek(len("".join(consumed).encode(encoding)))
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
                    converters=converters,
                    encoding=encoding,
                )
        except ValueError as exc:
            failure = str(exc)
        else:
            if values.shape[0] == 0:
                raise DataValidationError(f"{path}: no data rows")
            failure = "a value failed the whole-file checks"
            if (
                values.shape[1] == len(header)
                and np.isfinite(values).all()
                and (valid is None or valid(values))
            ):
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
