"""Right-censored survival data on the unit follow-up window.

Counting-process backbone for the whole package. A dataset holds one row
per subject: follow-up time Z = min(T, C, 1) in (0, 1] and event flag
delta = 1 if the failure was observed. A RiskSetTimeline turns the
observed times into the breakpoint grid on which every integrand used
downstream (risk-set means, Gram entries, compensators) is piecewise
constant, so all time integrals are exact finite sums rather than
quadrature.

The timeline is the single home of the risk-set arithmetic: its
``prefix_sums`` are the at-risk sums, and over ``at_risk`` (every
interval's risk set is nonempty) the risk-set means. Risk sets are
nested: with the records in decreasing follow-up, each is a prefix of
that order. ``centered`` makes the one
centered prefix pass, the running sums in that order, which
``centered_means`` (the risk-set means), ``event_moments`` (the sums and
sums of squares of the centered values less their risk-set means at the
event times) and ``cross_moment`` (the centered at-risk moment, hence
the inner product <u, v>_n) read. Their readers: ``gram.build_gram``
takes hn and vhat from ``event_moments`` and H from ``cross_moment``;
``simulate.noise_terms`` takes the event sums of the noise terms from
``event_moments`` and the compensators from ``centered_means``;
``oracle.identity_gram_check`` takes the whitened hn and vhat from
``event_moments``; ``gram.empirical_norm_sq_fn`` is a ``cross_moment``.
A caller needing several of them shares one pass; the running sums are
the pass's only (n, M) array, and ``cross_moment`` reads it last because
it overwrites it. Because the sets are nested, ``cross_moment`` is one
matrix product of Welford increments (each record less the mean of the
records followed longer) rather than a sum over intervals.
``interval_integrals`` integrates a deterministic step function, such as
a baseline hazard, over each interval of the grid.

Leading-axis convention: a dataset, its timeline and everything built
from them may carry a leading replication axis of length R, so that R
datasets of the same size n go through the arithmetic as one batch (the
Monte Carlo harnesses do this). A single dataset is a batch of one
without that axis; the code is the same. ``dataset[r]`` and
``timeline[r]`` take replication r out of a batch.

Conventions, fixed once here and relied on everywhere:

* the at-risk indicator is closed on the left, Y_i(t) = 1{Z_i >= t}, so a
  subject is still at risk at its own follow-up time;
* on the open interval between consecutive breakpoints the at-risk set is
  constant and equals {i : Z_i >= right endpoint}, which is the a.e. value
  used for Lebesgue integrals;
* step functions evaluate left-continuously, so the value read off at an
  event time is the value of the interval ending there (the predictable
  version, the one that multiplies event counts).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import parse_number, read_numeric_csv
from .errors import DataValidationError


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, 1].

    ``values[k]`` is the value on ``[breakpoints[k], breakpoints[k+1])``.
    Evaluation is left-continuous: at an interior breakpoint the value of
    the interval ending there is returned, and ``f(0)`` is the first value.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or len(vals) != len(bp) - 1:
            raise ValueError("need K+1 breakpoints and K values")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("step values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls(np.array([0.0, 1.0]), np.array([float(value)]))

    def __call__(self, t):
        idx = np.searchsorted(self.breakpoints, t, side="left") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx]


@dataclass
class SurvivalDataset:
    """Right-censored sample with follow-up times normalized into (0, 1].

    ``times`` and ``status`` have shape (n,) and ``covariates`` (n, d); a
    batch of R datasets adds a leading axis, (R, n) and (R, n, d). The
    covariates may be a view rather than a contiguous array of their own:
    ``load_dataset`` keeps them as columns of the parsed CSV block, so the
    block is not copied.
    ``time_scale`` records the factor raw times were divided by when a file
    carried follow-up beyond the unit window (1.0 when no rescaling
    happened); reports quote it so results can be mapped back.
    """

    times: np.ndarray
    status: np.ndarray
    covariates: np.ndarray
    labels: list[str] = field(default_factory=list)
    time_scale: float = 1.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        status = np.asarray(self.status)
        self.covariates = np.asarray(self.covariates, dtype=float)
        if self.times.ndim not in (1, 2) or self.covariates.ndim != self.times.ndim + 1:
            raise DataValidationError("covariates must be a 2-d array (3-d for a batch)")
        if status.shape != self.times.shape or self.covariates.shape[:-1] != self.times.shape:
            raise DataValidationError("times, status and covariates disagree on n")
        if self.times.shape[-1] == 0:
            raise DataValidationError("empty dataset")
        # written so that NaN fails: every comparison with NaN is False
        outside = ~((self.times > 0) & (self.times <= 1))
        if outside.any():
            at = tuple(np.argwhere(outside)[0])
            raise DataValidationError(f"{_record(at)}: time {self.times[at]} outside (0, 1]")
        if status.dtype != bool:  # bool, as every simulated batch has, needs no check
            bad = ~((status == 0) | (status == 1))
            if bad.any():
                at = tuple(np.argwhere(bad)[0])
                value = status[at].item()
                raise DataValidationError(f"{_record(at)}: status {value!r} is not 0 or 1")
        self.status = status.astype(bool, copy=False)
        # NaN and inf carry through max and min, which make no temporary
        x = self.covariates
        if x.size and not (np.isfinite(x.max()) and np.isfinite(x.min())):
            at = tuple(np.argwhere(~np.isfinite(x).all(axis=-1))[0])
            raise DataValidationError(f"{_record(at)}: non-finite covariate")
        if not self.labels:
            self.labels = [f"x{j + 1}" for j in range(self.covariates.shape[-1])]

    @property
    def n(self) -> int:
        return self.times.shape[-1]

    @property
    def d(self) -> int:
        return self.covariates.shape[-1]

    def __getitem__(self, r: int) -> "SurvivalDataset":
        """Replication r of a batch."""
        return SurvivalDataset(
            self.times[r], self.status[r], self.covariates[r], self.labels, self.time_scale
        )


def _record(at: tuple) -> str:
    """Name a record by its index, with its replication in a batch."""
    return f"record {at[0]}" if len(at) == 1 else f"replication {at[0]}, record {at[1]}"


_STATUS = {"0": 0.0, "1": 1.0}


def _check_data_header(path, header: list[str]) -> None:
    if len(header) < 3 or header[0] != "time" or header[1] != "status":
        raise DataValidationError(
            f"{path}: header must be time,status,x1,...,xd (got {','.join(header)})"
        )
    labels = header[2:]
    if len(set(labels)) != len(labels):
        raise DataValidationError(f"{path}: duplicate covariate labels in header")


def _data_row_error(header: list[str], row: list[str]) -> str | None:
    """Why one record of a data CSV is bad, or None; checks run in file order."""
    try:
        t = parse_number(row[0])
    except ValueError:
        return f"bad time {row[0]!r}"
    if not math.isfinite(t) or t <= 0:
        return "time must be finite and > 0"
    if row[1].strip() not in _STATUS:
        return "status must be 0 or 1"
    try:
        x = [parse_number(c) for c in row[2:]]
    except ValueError:
        return "bad covariate value"
    for label, v in zip(header[2:], x):
        if not math.isfinite(v):
            return f"non-finite value in column {label}"
    return None


def _valid_data(values: np.ndarray) -> bool:
    """Whole-array form of the record checks; values are already finite."""
    status = values[:, 1]
    return bool((values[:, 0] > 0).all() and ((status == 0.0) | (status == 1.0)).all())


def load_dataset(path) -> SurvivalDataset:
    """Read a ``time,status,x1,...,xd`` CSV into a SurvivalDataset.

    The syntax is that of ``hazlasso.csvio``: comma-separated fields that
    may be double-quoted, blank lines skipped, numbers written as ASCII
    Python float literals with optional surrounding whitespace, no
    comments. Times must be finite and > 0, status exactly ``0`` or ``1``
    (``1.0`` is rejected) and covariates finite. Validation reports the
    first offending file line, counting the header as line 1 and blank
    lines as lines. Raw times may exceed 1; they are divided by the
    maximum follow-up time in that case and the scale factor is recorded
    on the dataset.
    """
    header, values = read_numeric_csv(
        path,
        _check_data_header,
        _data_row_error,
        valid=_valid_data,
        # a bad status becomes -1, which _valid_data rejects
        converters={1: lambda field: _STATUS.get(field.strip(), -1.0)},
    )
    times = values[:, 0]
    scale = float(times.max()) if times.max() > 1.0 else 1.0
    return SurvivalDataset(
        times=times / scale,
        status=values[:, 1] == 1.0,
        covariates=values[:, 2:],  # a view: the parsed block is not copied
        labels=header[2:],
        time_scale=scale,
    )


def write_dataset(dataset: SurvivalDataset, path) -> None:
    """Inverse of load_dataset (times are written as stored, already in (0, 1])."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "status"] + list(dataset.labels))
        for i in range(dataset.n):
            writer.writerow(
                [repr(float(dataset.times[i])), int(dataset.status[i])]
                + [repr(float(v)) for v in dataset.covariates[i]]
            )


def take_rows(values: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``values[index]`` along the record or interval axis, per replication.

    ``index`` has shape (k,) or, for a batch, (R, k); ``values`` has the
    same leading axes followed by the indexed axis and any trailing ones.
    Whole trailing rows are copied, which is much cheaper than gathering
    element by element. A batch is one flat gather: the replication and
    indexed axes merge, and replication r's indices move by r times the
    indexed axis's length. ``out``, when given, receives the rows.
    """
    batch = index.ndim == 2
    if batch:
        index = index + (np.arange(len(index)) * values.shape[1])[:, None]
        values = values.reshape((-1,) + values.shape[2:])
    if out is None and not (batch and values.flags.c_contiguous):
        # np.take is no faster on one replication, and it would first copy
        # a strided array whole
        return values[index]
    # every index is in range, so "clip" changes none; unlike the default
    # "raise", it lets np.take write into ``out`` without a buffer
    return np.take(values, index, 0, out, "clip")


# rows per block of the centered values that the event moments and the
# Welford increments read
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class RiskSetTimeline:
    """Breakpoint grid of a dataset with at-risk bookkeeping.

    The grid is {0} followed by the sorted follow-up times, so there are
    exactly n intervals whatever the data: interval k spans
    ``[breakpoints[k], breakpoints[k+1]]`` and ends at the k-th smallest
    follow-up time, tied times give zero-length intervals, and the grid
    stops at the last follow-up time, beyond which nobody is at risk. A
    batch of R datasets has the same width for every replication, so the
    arrays stack on a leading axis: (R, n + 1) breakpoints, (R, n) for the
    rest.

    The at-risk set on interval k is the first ``at_risk[k]`` entries of
    ``desc_order`` (records sorted by decreasing follow-up time, tied
    records in record order), so sums over risk sets are prefix sums in
    that ordering. ``end_interval[i]`` is the interval ending at Z_i (the
    first of a tied run): record i is at risk on intervals
    0..end_interval[i], and a left-continuous integrand is read there when
    its event fires. ``status`` marks the records whose event was
    observed.

    Per-record values passed to the methods have shape (n,) or (n, M),
    with the leading replication axis in front for a batch.
    """

    breakpoints: np.ndarray
    lengths: np.ndarray
    at_risk: np.ndarray
    n: int
    desc_order: np.ndarray
    status: np.ndarray
    end_interval: np.ndarray

    def __getitem__(self, r: int) -> "RiskSetTimeline":
        """Replication r of a batch."""
        return RiskSetTimeline(
            self.breakpoints[r], self.lengths[r], self.at_risk[r], self.n,
            self.desc_order[r], self.status[r], self.end_interval[r],
        )

    @property
    def follow_up(self) -> np.ndarray:
        """Follow-up time Z_i of each record, the total length it is at risk."""
        return take_rows(self.breakpoints, self.end_interval + 1)

    def _per_record(self, values) -> tuple[np.ndarray, bool]:
        """Values as (..., n, M) floats, and whether they were one per record."""
        v = np.asarray(values, dtype=float)
        single = v.ndim == self.desc_order.ndim
        return (v[..., None] if single else v), single

    def _running_sums(self, v: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
        """Cumulative sums of (..., n, M) values, less ``shift`` if given,
        with the records in decreasing follow-up order: row p - 1 sums the
        p longest."""
        cs = take_rows(v, self.desc_order)
        if shift is not None:
            cs -= shift
        np.cumsum(cs, axis=-2, out=cs)
        return cs

    def _leading_means(
        self, running: np.ndarray, counts: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Means of the ``counts`` longest-followed records, from running
        sums, written into ``out`` if given."""
        sums = take_rows(running, counts - 1, out)
        sums /= counts.astype(float)[..., None]  # a float divisor keeps the division fast
        return sums

    def prefix_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-interval sums of per-record values over the at-risk set.

        ``values`` has shape (n,) or (n, M); the result has shape (K,) or
        (K, M) with row k equal to sum over {i : Z_i >= breakpoints[k+1]}.
        """
        v, single = self._per_record(values)
        sums = take_rows(self._running_sums(v), self.at_risk - 1)
        return sums[..., 0] if single else sums

    def centered(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The centered prefix pass that every centered quantity starts from.

        Returns three arrays: the per-record values, shape (n, M) (not
        copied when they are floats already), their column means over all
        records, shape (1, M), and the running sums of the centered values
        with the records in decreasing follow-up order, shape (n, M): row
        p - 1 sums the p longest-followed records, so every risk set's sum
        is one of its rows. The running sums are the pass's one new (n, M)
        array; the centered values are read as values less means, a block
        of rows at a time, with the same arithmetic as a centered copy. Risk-set
        centering ignores constant shifts, so removing the global means
        first changes no centered quantity and keeps the sums free of
        cancellation (stable centering, Chan, Golub & LeVeque 1983).
        ``centered_means``, ``event_moments`` and ``cross_moment`` take
        this pass, so one pass can serve several of them;
        ``cross_moment`` overwrites the running sums, so it comes last.
        """
        v, _ = self._per_record(values)
        mean = v.mean(axis=-2, keepdims=True)
        return v, mean, self._running_sums(v, mean)

    def centered_means(self, centered: tuple) -> np.ndarray:
        """At-risk means of the centered values, shape (K, M), from a
        ``centered`` pass: their ``prefix_sums`` over ``at_risk``."""
        return self._leading_means(centered[2], self.at_risk)

    def _deviations(self, centered: tuple, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Event deviations of records lo..hi - 1, written into ``out``."""
        v, mean, running = centered
        self._leading_means(running, take_rows(self.at_risk, self.end_interval[..., lo:hi]), out)
        np.subtract(v[..., lo:hi, :] - mean, out, out=out)
        out[~self.status[..., lo:hi]] = 0.0
        return out

    def event_moments(self, centered: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Sums over the observed events of the event deviations of the
        columns of a ``centered`` pass, and of their squares, shape (M,)
        each. Record i's event deviation is its centered value less the
        at-risk mean at Z_i; over n, the two sums are hn and vhat.

        The deviations are made a block of rows at a time in one buffer.
        Past the first block, row 0 of the buffer carries the totals so
        far, so each column is summed row after row in record order, as
        numpy sums all n deviations of several columns at once: the result
        is that sum's bit for bit. Up to ``_BLOCK_ROWS`` records there is
        one block and no carry row, and so there is for a single column,
        which numpy sums pairwise rather than row after row.
        """
        v = centered[0]
        n = self.n
        rows = n if v.shape[-1] == 1 else min(n, _BLOCK_ROWS)
        carry = int(n > rows)
        buf = np.empty(v.shape[:-2] + (carry + rows, v.shape[-1]))
        total = square = None
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            dev = self._deviations(centered, lo, hi, buf[..., carry:carry + hi - lo, :])
            # the first block's sums start at its first deviation, the
            # others' at the carry row
            summed = buf[..., (0 if lo else carry):carry + hi - lo, :]
            if lo:
                buf[..., 0, :] = total
            total = summed.sum(axis=-2)
            np.square(dev, out=dev)
            if lo:
                buf[..., 0, :] = square
            square = summed.sum(axis=-2)
        return total, square

    def _increments(self, centered: tuple) -> np.ndarray:
        """Weighted Welford increments of a ``centered`` pass, shape (n, M),
        written over its running sums.

        Row p - 1, with the records in decreasing follow-up, is
        sqrt(Z_(p) (p - 1) / (p n)) times u_(p) less the mean of the p - 1
        records before it; the first row is 0. The rows are built a block
        at a time from the last block back, so each block still reads the
        running sums before it; the pass's running sums are gone after.
        """
        v, mean, running = centered
        n = self.n
        before = np.arange(1.0, n)  # p - 1 for p = 2..n
        zdesc = self.breakpoints[..., :0:-1]  # Z_(p), decreasing
        scale = np.sqrt(zdesc[..., 1:] * (before / ((before + 1.0) * n)))
        for lo in reversed(range(1, n, _BLOCK_ROWS)):
            hi = min(lo + _BLOCK_ROWS, n)
            rows = take_rows(v, self.desc_order[..., lo:hi])
            rows -= mean
            rows -= running[..., lo - 1:hi - 1, :] / before[lo - 1:hi - 1, None]
            rows *= scale[..., lo - 1:hi - 1, None]
            running[..., lo:hi, :] = rows
        running[..., 0, :] = 0.0
        return running

    def cross_moment(self, left, right) -> np.ndarray:
        """Centered at-risk moment of two ``centered`` passes (u, v), the
        empirical inner products <u_j, v_l>_n of their columns,

            (1/n) sum_k len_k sum_{i at risk on k} (u_i - ubar_k)(v_i - vbar_k),

        shape (M, M'). Risk sets are nested: with the records in
        decreasing follow-up, the set at risk on interval k is the first
        R_k of them, and record p lies in exactly the sets that end by
        Z_(p), so their lengths add up to its own follow-up. Welford's
        co-moment update (Welford 1962; Chan, Golub & LeVeque 1983) then
        turns the double sum into one product,

            (1/n) sum_p Z_(p) (p - 1)/p du_p dv_p',

        with du_p = u_(p) less the mean of the p - 1 records before it;
        ties are zero-length intervals and change nothing. For
        ``left is right`` the product is a'a of one buffer (BLAS ``syrk``),
        exactly symmetric. The increments are written over the passes'
        running sums, so the passes are used up: read anything else from
        them first.
        """
        a = self._increments(left)
        b = a if right is left else self._increments(right)
        return np.swapaxes(a, -1, -2) @ b

    def interval_integrals(self, step: StepFunction) -> np.ndarray:
        """Integral of a step function over each timeline interval, shape (K,).

        Exact: each interval's overlap with each piece of the step function,
        times that piece's value.
        """
        lo, hi = self.breakpoints[..., :-1, None], self.breakpoints[..., 1:, None]
        overlap = np.minimum(hi, step.breakpoints[1:]) - np.maximum(lo, step.breakpoints[:-1])
        return np.maximum(overlap, 0.0) @ step.values


def build_timeline(dataset: SurvivalDataset) -> RiskSetTimeline:
    """Breakpoints {0} + {sorted follow-up times}, with risk sets.

    Tied times (event or censoring alike) give zero-length intervals, so a
    dataset of n records always has n intervals; the first has all n
    subjects at risk. Works on a batch of datasets along the leading axis.
    """
    z = dataset.times
    n = dataset.n
    # nothing below reads the order within a tied run, so an unstable sort
    # serves
    ascending = np.argsort(z, axis=-1)
    zasc = np.take_along_axis(z, ascending, axis=-1)
    # first sorted position of each record's tied run; the a.e. at-risk set
    # on the interval ending at zasc[k] is every record from there on
    tie_start = np.ones(z.shape, dtype=bool)
    tie_start[..., 1:] = zasc[..., 1:] != zasc[..., :-1]
    first = np.maximum.accumulate(np.where(tie_start, np.arange(n), 0), axis=-1)
    end_interval = np.empty_like(first)
    np.put_along_axis(end_interval, ascending, first, axis=-1)
    breakpoints = np.concatenate([np.zeros(z.shape[:-1] + (1,)), zasc], axis=-1)
    # decreasing follow-up, ties in record order: the integer keys are
    # distinct, so any sort of them gives that one order, and sorting
    # integers is much cheaper than a stable sort of the times
    desc_key = (n - 1 - end_interval) * n + np.arange(n)
    return RiskSetTimeline(
        breakpoints=breakpoints,
        lengths=np.diff(breakpoints, axis=-1),
        at_risk=n - first,
        n=n,
        desc_order=np.argsort(desc_key, axis=-1),
        status=dataset.status,
        end_interval=end_interval,
    )


def check_orthogonality(timeline: RiskSetTimeline, values: np.ndarray, phi: StepFunction) -> float:
    """Residual of the risk-set centering identity, computed honestly.

    Returns sum_i of the integral of phi(t) * (v_i - vbar_Y(t)) * Y_i(t) dt,
    which is 0 in exact arithmetic for any deterministic step function phi
    because the centered at-risk sum vanishes on every interval. The value
    returned is the floating-point residual of that sum against the
    interval integrals of phi, not a hard-coded zero.
    """
    sums = timeline.prefix_sums(values)
    resid = sums - timeline.at_risk * (sums / timeline.at_risk)  # sum less count times mean
    return float(resid @ timeline.interval_integrals(phi))
