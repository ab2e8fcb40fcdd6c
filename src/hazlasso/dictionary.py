"""Candidate function dictionaries evaluated on the sample.

A dictionary is the n x M matrix of candidate functions h_j evaluated at
the covariate rows; the estimator only ever sees these evaluations, so
the matrix is the whole interface. The default choice is the linear
dictionary h_j(x) = x_j. A batch of datasets gives an (R, n, M) batch of
evaluations with shared labels.

Validation reads each column through one max and one min reduction, and
makes no (n, M) temporary: the same two reductions give the finiteness
check, the column half-range (max - min) / 2 that the penalty weights
read, and the constant columns, which are those of half-range 0.
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


@dataclass
class DictionaryMatrix:
    """Evaluations h_j(X_i), one column per candidate function.

    ``values`` is a read-only view of the array given, not a copy, so the
    half-range taken when it is checked always describes it:
    ``half_range[j]`` is (max_i h_j - min_i h_j) / 2, shape (M,) or (R, M)
    for a batch, the arithmetic of ``bernstein.half_range``.
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
        # NaN and inf carry through max and min; checked before the
        # difference, which is NaN for an all-inf column
        high = np.maximum.reduce(self.values, axis=-2)
        low = np.minimum.reduce(self.values, axis=-2)
        if not (np.isfinite(high).all() and np.isfinite(low).all()):
            raise DataValidationError("dictionary values must be finite")
        self.half_range = 0.5 * (high - low)
        # a constant column (half-range 0) carries no information: the fit
        # pins it at zero, whatever its level
        dead = np.flatnonzero((self.half_range == 0.0).reshape(-1, self.M).any(axis=0))
        if dead.size:
            names = ", ".join(self.labels[j] for j in dead)
            warnings.warn(f"constant dictionary column(s): {names}", stacklevel=_caller_level())

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

