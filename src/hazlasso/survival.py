"""Right-censored survival data on the unit follow-up window.

Counting-process backbone for the whole package. A dataset holds one row
per subject: follow-up time Z = min(T, C, 1) in (0, 1] and event flag
delta = 1 if the failure was observed. A RiskSetTimeline turns the
observed times into the breakpoint grid on which every integrand used
downstream (risk-set means, Gram entries, compensators) is piecewise
constant, so all time integrals are exact finite sums rather than
quadrature.

The timeline is the single home of the risk-set arithmetic: its
``prefix_sums`` and ``means`` methods are the at-risk sums and the
risk-set mean. ``centered`` makes the one centered prefix pass that
``event_deviations`` (the centered values at the event times) and
``cross_moment`` (the centered at-risk moment, hence the inner product
<u, v>_n) read, so the Gram matrix, the inner products, the weights and
the noise processes all start from it, and a caller needing several of
them shares one pass. ``interval_integrals`` integrates a deterministic
step function, such as a baseline hazard, over each interval of the grid.

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
        self.status = np.asarray(self.status, dtype=bool)
        self.covariates = np.asarray(self.covariates, dtype=float)
        if self.covariates.ndim != 2:
            raise DataValidationError("covariates must be a 2-d array")
        n = len(self.times)
        if len(self.status) != n or self.covariates.shape[0] != n:
            raise DataValidationError("times, status and covariates disagree on n")
        if n == 0:
            raise DataValidationError("empty dataset")
        if np.any(self.times <= 0) or np.any(self.times > 1):
            bad = int(np.flatnonzero((self.times <= 0) | (self.times > 1))[0])
            raise DataValidationError(f"record {bad}: time {self.times[bad]} outside (0, 1]")
        if not np.all(np.isfinite(self.covariates)):
            bad = int(np.flatnonzero(~np.isfinite(self.covariates).all(axis=1))[0])
            raise DataValidationError(f"record {bad}: non-finite covariate")
        if not self.labels:
            self.labels = [f"x{j + 1}" for j in range(self.covariates.shape[1])]

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def d(self) -> int:
        return self.covariates.shape[1]


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
        covariates=np.ascontiguousarray(values[:, 2:]),
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


@dataclass(frozen=True)
class RiskSetTimeline:
    """Breakpoint grid of a dataset with at-risk bookkeeping.

    Interval k spans ``[breakpoints[k], breakpoints[k+1])``. The at-risk
    set on interval k is the first ``at_risk[k]`` entries of
    ``desc_order`` (records sorted by decreasing follow-up time), so sums
    over risk sets are prefix sums in that ordering. ``end_interval[i]``
    is the interval ending at Z_i: record i is at risk on intervals
    0..end_interval[i], and a left-continuous integrand is read there
    when its event fires.
    """

    breakpoints: np.ndarray
    lengths: np.ndarray
    at_risk: np.ndarray
    n: int
    desc_order: np.ndarray
    event_rows: np.ndarray
    event_times: np.ndarray
    end_interval: np.ndarray

    @property
    def follow_up(self) -> np.ndarray:
        """Follow-up time Z_i of each record, the total length it is at risk."""
        return self.breakpoints[self.end_interval + 1]

    @property
    def event_interval(self) -> np.ndarray:
        """Interval ending at each event time, in ``event_rows`` order."""
        return self.end_interval[self.event_rows]

    def prefix_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-interval sums of per-record values over the at-risk set.

        ``values`` has shape (n,) or (n, M); the result has shape (K,) or
        (K, M) with row k equal to sum over {i : Z_i >= breakpoints[k+1]}.
        """
        cs = np.asarray(values, dtype=float)[self.desc_order]
        np.cumsum(cs, axis=0, out=cs)
        sums = cs[self.at_risk - 1]
        sums[self.at_risk == 0] = 0.0  # index -1 above read the last row
        return sums

    def means(self, values: np.ndarray) -> np.ndarray:
        """At-risk averages of per-record values, shape (K,) or (K, M).

        Empty risk sets average to 0 by convention; those intervals never
        contribute to integrals against at-risk indicators anyway.
        """
        sums = self.prefix_sums(values)
        # an empty risk set sums to exactly 0, so dividing by 1 there gives 0
        sums /= np.maximum(self.at_risk, 1).reshape((-1,) + (1,) * (sums.ndim - 1))
        return sums

    def centered(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The centered prefix pass that every centered quantity starts from.

        Returns the per-record values less their column means over all
        records, shape (n, M), and the at-risk means of those, shape (K, M).
        Risk-set centering ignores constant shifts, so removing the global
        means first changes no centered quantity and keeps the sums free of
        cancellation (stable centering, Chan, Golub & LeVeque 1983).
        ``event_deviations`` and ``cross_moment`` take this pair, so one
        pass can serve several of them.
        """
        v = np.asarray(values, dtype=float)
        c = (v - v.mean(axis=0)).reshape(self.n, -1)
        return c, self.means(c)

    def event_deviations(self, centered: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Centered values minus their at-risk mean at Z_i, over event
        records, from a ``centered`` pair; shape (events, M)."""
        c, mean = centered
        out = c[self.event_rows]
        out -= mean[self.event_interval]
        return out

    def cross_moment(self, left, right) -> np.ndarray:
        """Centered at-risk moment of two ``centered`` pairs (u, v), the
        empirical inner products <u_j, v_l>_n of their columns,

            (1/n) sum_k len_k sum_{i at risk on k} (u_i - ubar_k)(v_i - vbar_k),

        shape (M, M'). The sum is two matrix products, sum_i Z_i u_i v_i'
        minus sum_k len_k R_k ubar_k vbar_k', because record i is at risk
        for a total length Z_i.
        """
        (u, mu), (v, mv) = left, right
        mass = (self.lengths * self.at_risk)[:, None]
        return ((self.follow_up[:, None] * u).T @ v - (mass * mu).T @ mv) / self.n

    def interval_integrals(self, step: StepFunction) -> np.ndarray:
        """Integral of a step function over each timeline interval, shape (K,).

        Exact: on the common refinement of the two grids the integrand is
        constant, and each refined piece is read at its midpoint and added
        to the timeline interval that contains it.
        """
        grid = np.unique(np.concatenate([self.breakpoints, step.breakpoints]))
        mids = 0.5 * (grid[:-1] + grid[1:])
        parent = np.searchsorted(self.breakpoints, mids, side="left") - 1
        out = np.zeros(len(self.lengths))
        np.add.at(out, parent, np.diff(grid) * step(mids))
        return out


def build_timeline(dataset: SurvivalDataset) -> RiskSetTimeline:
    """Breakpoints {0} + {distinct follow-up times} + {1}, with risk sets.

    Tied times (event or censoring alike) share one breakpoint. The first
    interval always has all n subjects at risk; intervals beyond the last
    follow-up time have an empty risk set.
    """
    z = dataset.times
    bp = np.unique(np.concatenate([np.array([0.0, 1.0]), z]))
    zasc = np.sort(z)
    # a.e. at-risk count on interval k is #{Z_i >= right endpoint}
    at_risk = dataset.n - np.searchsorted(zasc, bp[1:], side="left")
    event_rows = np.flatnonzero(dataset.status)
    # Z_i is breakpoint m >= 1; the closed at-risk value at Z_i lives on interval m-1
    end_interval = np.searchsorted(bp, z, side="left") - 1
    return RiskSetTimeline(
        breakpoints=bp,
        lengths=np.diff(bp),
        at_risk=at_risk.astype(np.int64),
        n=dataset.n,
        desc_order=np.argsort(-z, kind="stable"),
        event_rows=event_rows,
        event_times=z[event_rows],
        end_interval=end_interval.astype(np.int64),
    )


def check_orthogonality(timeline: RiskSetTimeline, values: np.ndarray, phi: StepFunction) -> float:
    """Residual of the risk-set centering identity, computed honestly.

    Returns sum_i of the integral of phi(t) * (v_i - vbar_Y(t)) * Y_i(t) dt,
    which is 0 in exact arithmetic for any deterministic step function phi
    because the centered at-risk sum vanishes on every interval. The value
    returned is the floating-point residual of that sum against the
    interval integrals of phi, not a hard-coded zero.
    """
    v = np.asarray(values, dtype=float)
    resid = timeline.prefix_sums(v) - timeline.at_risk * timeline.means(v)
    return float(resid @ timeline.interval_integrals(phi))
