"""Data-driven Bernstein bound for the martingale noise, with a Monte
Carlo harness that measures how often the bound is violated.

The deviation bound for the terminal noise Z = Z_1(h) of a column h is

    c1 sqrt((x + l) / n * Vhat) + c2 (x + 1 + l) / n * r,

where Vhat is the optional variation of Z (computable from data), r is
the column's half-range (max_i h(X_i) - min_i h(X_i)) / 2, and l is a
log-log correction that prices the data-driven variance. The at-risk mean
of h is a convex combination of its values, so every jump of Z has size
|h(X_i) - mean| <= 2r; Z, Vhat and r all ignore a shift of h. The
constants (c1, c2, c3) derive from three free parameters (c_ell, epsilon,
c0); the violation probability is at most c3 e^{-x}. The penalty weights
are this bound at level x + log M, so with probability at least
1 - c3 e^{-x} it holds for all M columns at once. The harness simulates
the truth, evaluates Z exactly, and reports violation frequencies with
Wilson intervals per x, alongside the classical predictable-variation
bound sqrt(2Vx/n) + x/(3n) evaluated in oracle mode (it needs the
unobservable V). ``run_mc`` returns the report dict that ``hazlasso
bernstein-mc`` writes, key for key.

The harness hands its replications to ``_chunks.run_chunks``, which
keys, chunks and draws them, and evaluates Z, Vhat and V of a whole
chunk in one ``noise_terms`` call along the leading replication axis
(``_mc_chunk``); a single dataset (``noise_process_terminal``) is a batch
of one without that axis. A replication reads only the audited column,
h0 = X beta0 and the times and status, so a chunk draws only the m
leading covariate columns these need (``simulate.drawn_columns``: 3 for
column 0 of the 200 x 50 default), and the driver sizes its chunks for
those m columns: 256 replications for column 0 of the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from ._chunks import run_chunks
from .dictionary import half_range
from .errors import ConfigError
from .simulate import SimulatedTruth, SimulationConfig, noise_terms
from .survival import RiskSetTimeline

WILSON_Z = 1.959963984540054  # two-sided 95%


@lru_cache(maxsize=None)
def zeta(s: float) -> float:
    """Riemann zeta for s > 1: exact at 2, else summed with an
    Euler-Maclaurin tail (error far below 1e-10)."""
    if s <= 1:
        raise ValueError("zeta(s) needs s > 1")
    if s == 2.0:
        return math.pi**2 / 6.0
    cutoff = 1_000_000
    j = np.arange(1, cutoff + 1, dtype=float)
    head = float(np.sum(j**-s))
    tail = cutoff ** (1.0 - s) / (s - 1.0) - 0.5 * cutoff**-s + s / 12.0 * cutoff ** (-s - 1.0)
    return head + tail


@dataclass(frozen=True)
class BernsteinConstants:
    """Parameter triple (c_ell, epsilon, c0) and the constants it implies.

    ``stated_c3`` optionally overrides the tail constant used for pass/fail
    bounds (the published ceiling rather than the exact series value); the
    exact value is always reported next to it.
    """

    c_ell: float = 2.0
    epsilon: float = 1.0
    c0: float = 56.0 / (3.0 * math.e)
    stated_c3: float | None = None

    def __post_init__(self):
        for name in ("c_ell", "epsilon", "c0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c_ell <= 1:
            raise ConfigError("c_ell must exceed 1 (the c3 series diverges otherwise)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.c0 <= 0:
            raise ConfigError("c0 must be positive")
        if math.e * self.c0 <= 2.0 * (4.0 / 3.0 + self.epsilon) * self.c_ell:
            raise ConfigError("need e*c0 > 2*(4/3 + epsilon)*c_ell")

    @property
    def c1(self) -> float:
        return 2.0 * math.sqrt(1.0 + self.epsilon)

    @property
    def c2(self) -> float:
        inner = max(self.c0, 2.0 * (1.0 + self.epsilon) * (4.0 / 3.0 + self.epsilon))
        return 2.0 * math.sqrt(2.0 * inner) + 2.0 / 3.0

    @property
    def c3(self) -> float:
        return 8.0 + 6.0 * math.log(1.0 + self.epsilon) ** -self.c_ell * zeta(self.c_ell)

    @property
    def mc_c3(self) -> float:
        """Tail constant the harness compares frequencies against."""
        return self.c3 if self.stated_c3 is None else self.stated_c3

    def tail_probability(self, x: float) -> float:
        return self.mc_c3 * math.exp(-x)

    def describe(self) -> dict:
        out = {
            "c_ell": self.c_ell,
            "epsilon": self.epsilon,
            "c0": self.c0,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "c3_used_for_bounds": self.mc_c3,
        }
        if self == PAPER_NUMERIC:
            out["c3_printed_variant"] = PAPER_NUMERIC_PRINTED_C3
        return out


# The published numeric instantiation: c_ell=2, epsilon=1, c0=56/(3e),
# quoted with the ceilings c2 <= 9.31 and c3 <= 28.55. The also-printed
# expression "8 + (log 2)^-2 pi^2 + 4" exceeds that ceiling; it is carried
# in reports but never used for bounds.
PAPER_NUMERIC = BernsteinConstants(stated_c3=28.55)
PAPER_NUMERIC_PRINTED_C3 = 8.0 + math.log(2.0) ** -2 * math.pi**2 + 4.0


def _checked_pair(vhat, r, x: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """vhat and r as float arrays of one shape, after the checks on every
    argument of the bound."""
    if x <= 0:
        raise ValueError("confidence level x must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    v = np.atleast_1d(np.asarray(vhat, dtype=float))
    s = np.atleast_1d(np.asarray(r, dtype=float))
    if v.shape != s.shape:
        v, s = np.broadcast_arrays(v, s)
    if (v < 0).any() or (s < 0).any():
        raise ValueError("variance and half-range must be nonnegative")
    return v, s


def _loglog(v: np.ndarray, s: np.ndarray, x: float, n: int, constants: BernsteinConstants):
    a = 4.0 / 3.0 + constants.epsilon
    r2 = s * s
    num = 2.0 * math.e * n * v + 8.0 * math.e * a * x * r2
    den = 4.0 * (math.e * constants.c0 - 2.0 * a * constants.c_ell) * r2
    ratio = np.divide(num, den, out=np.ones_like(num), where=den > 0)
    return constants.c_ell * np.log(np.log(np.maximum(ratio, math.e)))


def loglog_correction(vhat, r, x: float, n: int, constants: BernsteinConstants):
    """General-form log-log term; clamps at e, and a zero half-range means
    the whole correction (and bound) degenerates to zero."""
    out = _loglog(*_checked_pair(vhat, r, x, n), x, n, constants)
    return float(out[0]) if np.isscalar(vhat) and np.isscalar(r) else out


def bound_empirical(vhat, r, x: float, n: int, constants: BernsteinConstants = PAPER_NUMERIC):
    """Deviation bound on |Z| from observable quantities only: the optional
    variation vhat and the half-range r of the column."""
    v, s = _checked_pair(vhat, r, x, n)
    ell = _loglog(v, s, x, n, constants)
    out = np.where(
        s > 0,
        constants.c1 * np.sqrt((x + ell) / n * v) + constants.c2 * (x + 1.0 + ell) / n * s,
        0.0,
    )
    return float(out[0]) if np.isscalar(vhat) and np.isscalar(r) else out


def classical_bound(v, x: float, n: int):
    """Predictable-variation Bernstein bound, valid on the event V <= v;
    elementwise for an array of variations."""
    if x <= 0:
        raise ValueError("confidence level x must be positive")
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise ValueError("variation must be nonnegative")
    out = np.sqrt(2.0 * v_arr * x / n) + x / (3.0 * n)
    return float(out) if np.isscalar(v) else out


def _margin_quantile(ratio: np.ndarray, q: float) -> float:
    """``np.quantile`` of margin ratios, which are inf where |Z| = 0.

    Next to an infinite order statistic numpy's interpolation can compute
    inf - inf or inf * 0 and return NaN. There the quantile is inf if an
    infinite neighbour carries nonzero weight, else the order statistic
    that carries all of it; elsewhere it is numpy's value.
    """
    ordered = np.sort(ratio)
    pos = (len(ordered) - 1) * q  # the virtual index of numpy's linear method
    k = math.floor(pos)
    if math.isinf(ordered[min(k + 1, len(ordered) - 1)]):
        return float(ordered[k]) if pos == k else math.inf
    return float(np.quantile(ordered, q))


def wilson_interval(successes: int, total: int, z: float = WILSON_Z) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= total:
        raise ValueError("successes must lie in [0, total]")
    p = successes / total
    shift = z * z / (2.0 * total)
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total))
    low = (p + shift - half) / (1.0 + 2.0 * shift)
    high = (p + shift + half) / (1.0 + 2.0 * shift)
    return max(0.0, low), min(1.0, high)


def noise_process_terminal(
    truth: SimulatedTruth, column_values, timeline: RiskSetTimeline
) -> tuple[float, float, float]:
    """Terminal noise Z, its optional variation Vhat, and the predictable
    variation V for one column, all exact under the simulated truth."""
    z, vhat, var = noise_terms(truth, column_values, timeline)
    return float(z), float(vhat), float(var)


def _mc_chunk(column: int, truth: SimulatedTruth, timeline: RiskSetTimeline):
    """|Z|, Vhat, V and the half-range of one chunk of replications, one
    array each."""
    v = truth.dataset.covariates[..., column : column + 1]
    z, vhat, var = noise_terms(truth, v[..., 0], timeline)
    return np.abs(z), vhat, var, half_range(v)[..., 0]


def run_mc(
    config: SimulationConfig,
    column: int,
    x_grid,
    replications: int,
    constants: BernsteinConstants = PAPER_NUMERIC,
    seed: int | None = None,
) -> dict:
    """Violation frequencies of the data-driven bound over fresh datasets,
    as the report dict that ``hazlasso bernstein-mc`` writes.

    Frequencies are meant to be read at >= 1,000 replications; smaller runs
    are fine for smoke tests but the Wilson interval will be wide. Within
    one run the violation sets are nested across x (the bound increases in
    x on each fixed dataset), so reported frequencies are exactly
    nonincreasing in x. Replications run in chunks through the batched
    pipeline (simulate, timeline and noise terms along a leading
    replication axis), each from its own generator, so the report does not
    depend on the chunking. Each chunk draws only the
    leading covariate columns that ``column`` and beta0 need, a prefix of
    the full draw, so narrowing changes no number of the report on a column
    of beta0's support; past it the audited column differs from a full
    draw's only by the roundoff of the AR(1) product.
    """
    x_grid = tuple(float(x) for x in x_grid)
    if not x_grid or not all(math.isfinite(x) and x > 0 for x in x_grid):
        raise ConfigError(f"x grid must be nonempty, positive and finite, got {list(x_grid)}")
    if not 0 <= column < config.d:
        raise ConfigError(f"column {column} out of range for d={config.d}")
    results = run_chunks(config, replications, seed, column + 1, partial(_mc_chunk, column))
    abs_z, vhat, var, r = (np.concatenate(parts) for parts in zip(*results))

    # r == 0 makes the bound degenerate (a constant column has Z = 0); drop those
    good = r > 0
    kept = int(good.sum())
    if kept == 0:
        raise ConfigError("every replication had a degenerate (constant) column")
    abs_z, vhat, var, r = abs_z[good], vhat[good], var[good], r[good]

    n = config.n
    rows = []
    for x in x_grid:
        bounds = bound_empirical(vhat, r, x, n, constants)
        violations = int(np.sum(abs_z >= bounds))
        low, high = wilson_interval(violations, kept)
        tail = constants.tail_probability(x)
        ratio = np.divide(bounds, abs_z, out=np.full(kept, np.inf), where=abs_z > 0)
        classical = classical_bound(var, x, n)
        rows.append(
            {
                "x": x,
                "tail_bound": tail,
                "violations": violations,
                "frequency": violations / kept,
                "wilson_low": low,
                "wilson_high": high,
                "passed": bool(high <= tail) if tail <= 1.0 else True,
                "margin_min": float(ratio.min()),
                "margin_q10": _margin_quantile(ratio, 0.10),
                "margin_median": _margin_quantile(ratio, 0.50),
                "margin_q90": _margin_quantile(ratio, 0.90),
                "classical_violations": int(np.sum(abs_z >= classical)),
                "classical_frequency": float(np.mean(abs_z >= classical)),
                "classical_tail": 2.0 * math.exp(-x),
            }
        )
    return {
        "x_grid": list(x_grid),
        "replications": replications,
        "column": column,
        "constants": constants.describe(),
        "excluded_degenerate": replications - kept,
        "rows": rows,
        "passed": all(row["passed"] for row in rows),
    }
