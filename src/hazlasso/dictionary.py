"""Candidate function dictionaries evaluated on the sample.

A dictionary is the n x M matrix of candidate functions h_j evaluated at
the covariate rows; the estimator only ever sees these evaluations, so
the matrix is the whole interface. The default choice is the linear
dictionary h_j(x) = x_j. A batch of datasets gives an (R, n, M) batch of
evaluations with shared labels.

Validation reads each column through one max and one min reduction, and
makes no (n, M) temporary: they give the column half-range (max - min) / 2
(``half_range``, the one home of that formula) that the penalty weights
read, and the column level max(|max|, |min|). The half-range is finite
exactly when the column is, 0 exactly when the column is constant, and
refused when it is nonzero but below ``MIN_HALF_RANGE``, where the
column's squares underflow. The level bounds the half-range and every
value, so a level at most ``MAX_HALF_RANGE`` keeps the risk-set means
and the squares of the centred values finite.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .csvio import parse_number, read_numeric_csv
from .errors import DataValidationError
from .survival import SurvivalDataset

# The largest column level and the smallest nonzero column half-range the
# arithmetic takes: H, vhat and the weights sum squared centered column
# values, at most 2^1002 here, so they stay finite up to millions of
# records, and at least 2^-1000 for a column's largest, so they stay far
# above the float's smallest normal number, 2^-1022.
MAX_HALF_RANGE = 2.0**500
MIN_HALF_RANGE = 2.0**-500


def half_range(values) -> np.ndarray:
    """Half-range (max_i h_j - min_i h_j) / 2 of each column of (..., n, M)
    evaluations, the only column scale of the deviation bound. It equals
    min_c max_i |h_j - c|, so it ignores a shift of the column, and it is
    0 exactly when the column is constant. It is finite exactly when the
    column is: halved before the difference, finite values never overflow,
    and a column holding NaN, or both infinities, gives NaN."""
    return _half_range(*_extremes(values))


def _extremes(values) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of each column of (..., n, M) evaluations."""
    return np.maximum.reduce(values, axis=-2), np.minimum.reduce(values, axis=-2)


def _half_range(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # inf - inf, in a column of infinities
        return 0.5 * high - 0.5 * low


@dataclass
class DictionaryMatrix:
    """Evaluations h_j(X_i), one column per candidate function.

    ``values`` is a read-only view of the array given, not a copy, so the
    half-range taken when it is checked always describes it:
    ``half_range[j]`` is ``half_range`` of column j, shape (M,) or (R, M)
    for a batch.
    """

    values: np.ndarray
    labels: list[str]
    half_range: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).view()
        self.values.flags.writeable = False
        if self.values.ndim not in (2, 3):
            raise DataValidationError("dictionary values must be a 2-d array (3-d for a batch)")
        if len(self.labels) != self.values.shape[-1]:
            raise DataValidationError("one label per dictionary column required")
        if len(set(self.labels)) != len(self.labels):
            raise DataValidationError("duplicate dictionary labels")
        if self.n == 0:
            raise DataValidationError("dictionary has no rows")
        high, low = _extremes(self.values)
        self.half_range = _half_range(high, low)
        if not np.isfinite(self.half_range).all():
            raise DataValidationError("dictionary values must be finite")
        large = self._columns(np.maximum(high, -low) > MAX_HALF_RANGE)
        if large:
            raise DataValidationError(
                f"dictionary values too large in column(s) {large}: magnitude above "
                f"2^500 (about {MAX_HALF_RANGE:.2g}), where their sums and squares overflow"
            )
        small = self._columns((self.half_range > 0.0) & (self.half_range < MIN_HALF_RANGE))
        if small:
            raise DataValidationError(
                f"dictionary values too small in column(s) {small}: half-range below "
                f"2^-500 (about {MIN_HALF_RANGE:.2g}), where their squares underflow"
            )
        # a constant column (half-range 0) carries no information: the fit
        # pins it at zero, whatever its level
        dead = self._columns(self.half_range == 0.0)
        if dead:
            warnings.warn(f"constant dictionary column(s): {dead}", stacklevel=_caller_level())

    def _columns(self, mask: np.ndarray) -> str:
        """The labels of the columns ``mask`` marks in any replication."""
        marked = np.flatnonzero(mask.reshape(-1, self.M).any(axis=0))
        return ", ".join(self.labels[j] for j in marked)

    @property
    def n(self) -> int:
        return self.values.shape[-2]

    @property
    def M(self) -> int:
        return self.values.shape[-1]


def _caller_level() -> int:
    """The ``stacklevel`` of the first frame outside this package, for a
    warning issued by this function's caller: the user's line, whichever
    library function built the dictionary."""
    level, frame = 1, sys._getframe(1)
    # by module name: the dataclass's generated __init__ runs in this
    # module's globals, and a module run as a script is "__main__"
    while frame.f_back and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        level, frame = level + 1, frame.f_back
    return level


def linear_dictionary(dataset: SurvivalDataset) -> DictionaryMatrix:
    """Identity dictionary: one candidate per covariate, h_j(x) = x_j.

    The values are a read-only view of the covariates, not a copy, so the
    data cannot be changed through the dictionary.
    """
    return DictionaryMatrix(values=dataset.covariates, labels=list(dataset.labels))


def _check_dictionary_header(path, header: list[str]) -> None:
    if not header or any(not c for c in header):
        raise DataValidationError(f"{path}: header must name every column")


def _dictionary_row_error(header: list[str], row: list[str]) -> str | None:
    """Why one record of a dictionary CSV is bad, or None."""
    try:
        values = [parse_number(c) for c in row]
    except ValueError:
        return "bad value"
    for label, v in zip(header, values):
        if not math.isfinite(v):
            return f"non-finite value in column {label}"
    return None


def load_dictionary(path, n_expected: int | None = None) -> DictionaryMatrix:
    """Read a dictionary CSV (header of labels, one row per record).

    The syntax is that of ``hazlasso.csvio``, as for ``load_dataset``:
    comma-separated fields that may be double-quoted, blank lines skipped,
    numbers written as ASCII Python float literals with optional
    surrounding whitespace, no comments. Every value must be finite.
    Errors name the first offending file line, counting the header as
    line 1 and blank lines as lines. With ``n_expected`` the number of
    rows must equal the dataset's number of records.
    """
    header, values = read_numeric_csv(path, _check_dictionary_header, _dictionary_row_error)
    if n_expected is not None and values.shape[0] != n_expected:
        raise DataValidationError(
            f"{path}: {values.shape[0]} rows but the dataset has {n_expected} records"
        )
    return DictionaryMatrix(values=values, labels=header)

