"""Ground-truth generator for the additive hazard model with censoring.

Subjects carry hazard alpha0(t, X_i) = lambda0(t) + X_i' beta0 with a
nonnegative step-function baseline, so the cumulative hazard is piecewise
linear and failure times come from exact inverse-transform sampling (no
quadrature, no discretization). Censoring is independent: uniform,
exponential, or administrative-at-1 only. Everything downstream that the
theory calls unobservable (h0, compensators, predictable variation) is
computable exactly from the returned truth object.

Covariate rows violating lambda0(t) + x' beta0 >= 0 are rejected and
counted; a configuration whose per-draw violation probability (estimated
on a dedicated probe substream) exceeds ``max_negative_prob`` is refused
with a diagnostic.

``simulate_batch`` draws R datasets at once: the dataset, ``h0`` and the
noise terms of ``noise_terms`` carry a leading replication axis of length
R, which the Monte Carlo harnesses push through the rest of the pipeline
as one array computation. ``simulate`` is a batch of one without that
axis. Each replication draws from one generator seeded by its key, so
its numbers do not depend on the batch it is drawn in.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .survival import RiskSetTimeline, StepFunction, SurvivalDataset, take_rows

# substream tags, above any replication index: key + [tag] never seeds a replication
_PROBE_TAG, _TOPUP_TAG = 2**32 - 1, 2**32 - 2
_PROBE_DRAWS = 1000

_chol_cache: dict[tuple[int, float], np.ndarray] = {}


@dataclass(frozen=True)
class GaussianCovariates:
    """Centered gaussian rows with Toeplitz correlation rho^|j-k| (AR(1))."""

    rho: float = 0.0
    clip: float | None = None

    kind = "gaussian"

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ConfigError("gaussian covariates need rho in (-1, 1)")
        if self.clip is not None and not (math.isfinite(self.clip) and self.clip > 0):
            raise ConfigError(f"clip must be finite and positive when set, got {self.clip}")

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with the noise rows are made from: standard normals."""
        rng.standard_normal(out=out)

    def rows(self, noise: np.ndarray) -> np.ndarray:
        """The rows (..., m) made from the noise of their m leading columns:
        the AR(1) product with the factor for m, clipped."""
        factor = self._factor(noise.shape[-1])
        x = noise.copy() if factor is None else noise @ factor
        if self.clip is not None:  # np.clip, without its per-call overhead
            np.minimum(x, self.clip, out=x)
            np.maximum(x, -self.clip, out=x)
        return x

    def _factor(self, d: int) -> np.ndarray | None:
        """Transposed Cholesky factor of the AR(1) correlation, or None at rho = 0."""
        if self.rho == 0.0:
            return None
        key = (d, self.rho)
        if key not in _chol_cache:
            lag = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
            # C-ordered, which keeps stacked products on the fast BLAS path
            _chol_cache[key] = np.ascontiguousarray(np.linalg.cholesky(self.rho**lag).T)
        return _chol_cache[key]

    def leading_columns(self, m: int, d: int) -> int:
        """Columns to draw so that the first m have the joint law they have
        in a draw of all d: m. The AR(1) factor is triangular, so column j
        reads only the normals of columns 0..j, and the leading m x m block
        of the factor for d is the factor for m."""
        return m


@dataclass(frozen=True)
class RademacherCovariates:
    """Independent +-1 entries."""

    kind = "rademacher"

    def leading_columns(self, m: int, d: int) -> int:
        """m: the columns are independent, so the first m alone have their
        joint law."""
        return m

    def noise(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with uniforms on [0, 1), one per entry."""
        rng.random(out=out)

    def rows(self, noise: np.ndarray) -> np.ndarray:
        """-1 where the noise is below 1/2, else +1, C-ordered."""
        return np.ascontiguousarray(np.where(noise < 0.5, -1.0, 1.0))


@dataclass(frozen=True)
class UniformCensoring:
    c_max: float

    kind = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.c_max) and self.c_max > 0):
            raise ConfigError(f"uniform censoring needs a finite c_max > 0, got {self.c_max}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # 1 - U lies in (0, 1], so Z stays strictly positive with one call
        return self.c_max * (1.0 - rng.random(size))


@dataclass(frozen=True)
class ExponentialCensoring:
    rate: float

    kind = "exponential"

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ConfigError(f"exponential censoring needs a finite rate > 0, got {self.rate}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.maximum(rng.exponential(1.0 / self.rate, size=size), 1e-300)


@dataclass(frozen=True)
class AdministrativeCensoring:
    """No random censoring; follow-up simply ends at 1."""

    kind = "administrative"

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, np.inf)


@dataclass
class SimulationConfig:
    n: int
    d: int
    beta0: np.ndarray
    baseline: StepFunction
    covariates: GaussianCovariates | RademacherCovariates
    censoring: UniformCensoring | ExponentialCensoring | AdministrativeCensoring
    seed: int
    max_negative_prob: float = 0.2
    _probe: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.beta0 = np.asarray(self.beta0, dtype=float)
        if self.n < 1 or self.d < 1:
            raise ConfigError("need n >= 1 and d >= 1")
        if self.beta0.shape != (self.d,) or not np.all(np.isfinite(self.beta0)):
            raise ConfigError("beta0 must be a finite vector of length d")
        if np.any(self.baseline.values < 0):
            raise ConfigError("baseline hazard must be nonnegative")
        if not 0 < self.max_negative_prob <= 1:
            raise ConfigError("max_negative_prob must be in (0, 1]")
        self.seed = int(self.seed)


def default_config(seed: int = 20260814) -> SimulationConfig:
    """The standing benchmark configuration (about 30% censoring)."""
    beta0 = np.zeros(50)
    beta0[[0, 1, 2]] = [1.0, 1.0, -0.5]
    return SimulationConfig(
        n=200,
        d=50,
        beta0=beta0,
        baseline=StepFunction.constant(2.0),
        covariates=GaussianCovariates(rho=0.3, clip=3.0),
        censoring=UniformCensoring(c_max=2.5),
        seed=seed,
    )


@dataclass
class SimulatedTruth:
    """Dataset plus everything the generating model knows about it.

    From ``simulate_batch`` the dataset and ``h0`` carry a leading
    replication axis, ``seed`` is a list of keys, and ``redraws`` and the
    ``event_counts`` entries are arrays with one entry per replication;
    ``truth[r]`` is replication r as ``simulate`` returns it.
    """

    dataset: SurvivalDataset
    beta0: np.ndarray
    baseline: StepFunction
    h0: np.ndarray
    seed: tuple[int, ...]
    event_counts: dict
    redraws: int
    negative_prob: float

    def __getitem__(self, r: int) -> "SimulatedTruth":
        return SimulatedTruth(
            dataset=self.dataset[r],
            beta0=self.beta0,
            baseline=self.baseline,
            h0=self.h0[r],
            seed=self.seed[r],
            event_counts={key: int(count[r]) for key, count in self.event_counts.items()},
            redraws=int(self.redraws[r]),
            negative_prob=self.negative_prob,
        )


def _seed_key(config: SimulationConfig, seed) -> tuple[int, ...]:
    if seed is None:
        return (config.seed,)
    if np.isscalar(seed):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _support_rows(config: SimulationConfig, noise: np.ndarray):
    """The rows made from first-block noise (..., rows, w), their h0, and
    which of them keep the hazard nonnegative."""
    x = config.covariates.rows(noise)
    h0 = x @ config.beta0[: x.shape[-1]]
    return x, h0, h0 >= -float(config.baseline.values.min())


def _negative_probability(config: SimulationConfig) -> float:
    """Per-draw chance that a fresh covariate row makes the hazard negative.

    Estimated once per config on a probe substream keyed by the config seed
    only, so no replication changes it. It draws only the columns that
    decide h0, so a config narrowed to its leading columns probes alike.
    """
    if config._probe is None:
        noise = np.zeros((_PROBE_DRAWS, drawn_columns(config, 0)))
        if np.any(config.beta0):  # else h0 = 0 on every row
            config.covariates.noise(np.random.default_rng([config.seed, _PROBE_TAG]), noise)
        config._probe = float(np.mean(~_support_rows(config, noise)[2]))
    return config._probe


def simulate(config: SimulationConfig, seed=None) -> SimulatedTruth:
    """Draw one dataset; reproducible from (config, seed).

    ``seed`` overrides the config seed and may be a sequence (used by Monte
    Carlo drivers as (base_seed, replication_index)). The dataset is a
    batch of one from ``simulate_batch``.
    """
    return simulate_batch(config, [_seed_key(config, seed)])[0]


def drawn_columns(config: SimulationConfig, columns: int) -> int:
    """Leading covariate columns ``simulate_batch`` draws when its caller
    reads the first ``columns``: enough to reach the last nonzero entry of
    beta0 as well, which h0 and the acceptance rule read, and as many as
    the covariate kind needs for their exact joint law."""
    support = np.flatnonzero(config.beta0)
    m = max(columns, int(support[-1]) + 1 if support.size else 0)
    return config.covariates.leading_columns(m, config.d)


def simulate_batch(config: SimulationConfig, keys, columns: int | None = None) -> SimulatedTruth:
    """Draw one dataset per seed key, stacked on a leading replication axis.

    Each key (a sequence of ints) seeds one generator, which draws a first
    block of rows of the w = ``drawn_columns(config, 0)`` leading columns'
    noise (they decide h0), n event exponentials, n censoring times, then
    the other drawn columns' noise, column by column; the rest is array
    arithmetic over the batch. A row is kept when lambda_min + h0 >= 0: the
    dataset holds the first n kept rows, ``redraws`` counts the rows
    rejected before the n-th, and in the rare replication whose first
    block falls short the rows come on from the substream key + [_TOPUP_TAG].

    With ``columns`` set, only the ``drawn_columns(config, columns)``
    leading columns are drawn, and the returned beta0 is cut to them. That
    reads a prefix of the full draw's stream: h0, the times, the status and
    the w leading columns are bitwise the full draw's, the other columns
    equal up to the roundoff of the AR(1) product.
    """
    neg_prob = _negative_probability(config)
    if neg_prob > config.max_negative_prob:
        raise ConfigError(
            f"hazard is negative for {neg_prob:.1%} of covariate draws "
            f"(limit {config.max_negative_prob:.1%}); lower |beta0|, raise the "
            "baseline, or raise max_negative_prob"
        )

    keys = [[int(k) for k in key] for key in keys]
    n, covariates = config.n, config.covariates
    w = drawn_columns(config, 0)
    d = config.d if columns is None else drawn_columns(config, columns)
    # first-block rows, so that keeping fewer than n is a five-sigma shortfall
    q = max(1.0 - neg_prob, 1.0 / _PROBE_DRAWS)
    pq = neg_prob * q
    extra = (12.5 * pq + 5.0 * math.sqrt(pq * (6.25 * pq + q * n))) / q**2  # 0 when pq = 0
    noise = np.empty((len(keys), math.ceil(n / q + extra), w))
    events, censor = np.empty((len(keys), n)), np.empty((len(keys), n))
    spread = np.empty((len(keys), d, n))  # all d columns' noise, a row per column
    for r, key in enumerate(keys):
        rng = np.random.default_rng(key)
        covariates.noise(rng, noise[r])
        rng.standard_exponential(out=events[r])
        censor[r] = config.censoring.draw(rng, n)
        covariates.noise(rng, spread[r, w:])

    x, h0, keep = _support_rows(config, noise)
    redraws = np.zeros(len(keys), dtype=int)
    for r in np.flatnonzero(keep.sum(axis=-1) < n):  # rare: draw on from key + [_TOPUP_TAG]
        rng = np.random.default_rng(keys[r] + [_TOPUP_TAG])
        parts = [(noise[r], x[r], h0[r], keep[r])]
        while sum(part[3].sum() for part in parts) < n:
            more = np.empty_like(noise[r])
            covariates.noise(rng, more)
            parts.append((more, *_support_rows(config, more)))
        rows = np.flatnonzero(np.concatenate([part[3] for part in parts]))[:n]
        for out, blocks in zip((noise[r], x[r], h0[r]), zip(*parts)):
            out[:n] = np.concatenate(blocks)[rows]  # the first n rows become the kept ones
        keep[r], redraws[r] = np.arange(keep.shape[-1]) < n, rows[-1] + 1 - n
    keep &= np.cumsum(keep, axis=-1) <= n
    kept = np.flatnonzero(keep)  # n flat row indices per replication
    redraws += kept[n - 1 :: n] % keep.shape[-1] + 1 - n
    x = np.take(x.reshape(keep.size, w), kept, axis=0).reshape(len(keys), n, w)
    h0 = np.take(h0, kept).reshape(len(keys), n)
    if d > w:  # all d columns from their noise, then the w leading ones as kept
        support = np.take(noise.reshape(keep.size, w), kept, axis=0).reshape(x.shape)
        spread[:, :w] = support.transpose(0, 2, 1)
        x, leading = covariates.rows(spread.transpose(0, 2, 1)), x
        x[..., :w] = leading

    # the piecewise-linear cumulative hazard, inverted in closed form on the
    # last piece whose start the draw reaches (ties resolve forward)
    bp, lam = config.baseline.breakpoints, config.baseline.values
    cum0 = np.concatenate([[0.0], np.cumsum(lam * np.diff(bp))])
    np.maximum(events, 1e-300, out=events)
    piece = 0
    for k in range(1, len(lam)):
        piece = piece + (cum0[k] + h0 * bp[k] <= events)
    left, rate = bp[piece], np.maximum(lam[piece] + h0, 1e-300)
    inside = events <= cum0[-1] + h0  # bp[-1] = 1
    failure = np.where(inside, left + (events - cum0[piece] - h0 * left) / rate, np.inf)
    z = np.minimum(np.minimum(failure, censor), 1.0)
    delta = failure <= np.minimum(censor, 1.0)

    events = delta.sum(axis=-1)
    return SimulatedTruth(
        dataset=SurvivalDataset(times=z, status=delta, covariates=x),
        beta0=config.beta0[:d].copy(),
        baseline=config.baseline,
        h0=h0,
        seed=[tuple(key) for key in keys],
        event_counts={
            "events": events,
            "censored": n - events,
            "administrative": np.sum(~delta & (z == 1.0), axis=-1),
        },
        redraws=redraws,
        negative_prob=neg_prob,
    )


def _integer(raw: dict, key: str) -> int:
    """The JSON integer under ``key``: a float, a bool or a string is refused,
    not rounded."""
    if key not in raw:
        raise ConfigError(f"missing config key {key!r}")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool or a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(values, key: str) -> np.ndarray:
    """The list of JSON numbers ``values`` as floats; a bool or a string in
    it is refused, not coerced."""
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return np.asarray(values, dtype=float)


def _known(section: dict, keys: tuple, name: str) -> None:
    """Refuse the first key of ``section`` outside ``keys``, by name."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown {name} key {key!r}")


def _beta0(spec, d: int) -> np.ndarray:
    """beta0 from a list of d values, or from {"indices": [...], "values":
    [...]} with distinct integer indices in [0, d) and one value each."""
    beta0 = np.zeros(max(d, 0))  # SimulationConfig refuses d < 1 by name
    try:
        if not isinstance(spec, dict):
            return beta0 if spec is None else _numbers(spec, "beta0")
        _known(spec, ("indices", "values"), "beta0")
        indices = spec["indices"]
        for j in indices:
            if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < d:
                raise ConfigError(f"beta0 indices must be integers in [0, {d}), got {j!r}")
        if len(set(indices)) < len(indices):
            raise ConfigError(f"beta0 indices must not repeat, got {indices}")
        values = spec["values"]
        if not isinstance(values, list) or len(values) != len(indices):
            raise ConfigError(
                f"beta0 values must be a list of one value per index ({len(indices)}), "
                f"got {values!r}"
            )
        beta0[indices] = _numbers(values, "beta0 values")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad beta0: {exc}") from None
    return beta0


def _model(raw: dict, key: str, kinds: dict, default: str):
    """The ``key`` section built as the class its ``kind`` names."""
    try:
        options = dict(raw.get(key, {}))
        kind = options.pop("kind", default)
        if kind not in kinds:
            raise ConfigError(f"unknown {key}.kind {kind!r}")
        # every option is a number; null leaves one whose default is None unset
        unset = {f.name for f in dataclasses.fields(kinds[kind]) if f.default is None}
        for name, value in options.items():
            if not (_is_number(value) or (value is None and name in unset)):
                raise ConfigError(f"{key}.{name} must be a number, got {value!r}")
        return kinds[kind](**options)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from None


def config_from_dict(raw: dict) -> SimulationConfig:
    """Build a config from parsed JSON; every complaint names its key."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = ("n", "d", "beta0", "baseline", "covariates", "censoring", "seed", "max_negative_prob")
    _known(raw, known, "config")
    n, d = _integer(raw, "n"), _integer(raw, "d")
    seed = _integer(raw, "seed") if "seed" in raw else 0
    if seed < 0:  # numpy seeds only from nonnegative integers
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    beta0 = _beta0(raw.get("beta0"), d)
    max_negative_prob = raw.get("max_negative_prob", 0.2)
    if not _is_number(max_negative_prob):
        raise ConfigError(f"max_negative_prob must be a number, got {max_negative_prob!r}")

    base_raw = raw.get("baseline", {"breakpoints": [0.0, 1.0], "values": [2.0]})
    try:
        _known(base_raw, ("breakpoints", "values"), "baseline")
        baseline = StepFunction(
            _numbers(base_raw["breakpoints"], "baseline breakpoints"),
            _numbers(base_raw["values"], "baseline values"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad baseline: {exc}") from None

    covariate_kinds = {"gaussian": GaussianCovariates, "rademacher": RademacherCovariates}
    censoring_kinds = {
        "uniform": UniformCensoring,
        "exponential": ExponentialCensoring,
        "administrative": AdministrativeCensoring,
    }
    return SimulationConfig(
        n=n,
        d=d,
        beta0=beta0,
        baseline=baseline,
        covariates=_model(raw, "covariates", covariate_kinds, "gaussian"),
        censoring=_model(raw, "censoring", censoring_kinds, "administrative"),
        seed=seed,
        max_negative_prob=float(max_negative_prob),
    )


def load_config(path: str) -> SimulationConfig:
    """Read a config file; the literal name ``default`` means the benchmark."""
    if path == "default":
        return default_config()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _vecmat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (..., K) vector and a (..., K, M) matrix, per replication."""
    return (a[..., None, :] @ b)[..., 0, :]


def noise_terms(
    truth: SimulatedTruth, column_values: np.ndarray, timeline: RiskSetTimeline
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal noise Z, optional variation Vhat and predictable variation V.

    Exact under the simulated truth, for one column (shape (n,)) or for
    each column of an (n, M) matrix; with a batched truth and timeline the
    values carry the same leading replication axis, and so do the results.
    With c_i - m(t) the risk-set-centered column and
    alpha_i(t) = lambda0(t) + h0(X_i) the true hazard:

        Z    = (1/n) sum_events (c_i - m(Z_i)) - (1/n) sum_i int (c_i - m) alpha_i Y_i dt
        Vhat = (1/n) sum_events (c_i - m(Z_i))^2
        V    = (1/n) sum_i int (c_i - m)^2 alpha_i Y_i dt

    One pass: the timeline's ``centered`` primitive centers the column
    once, its risk-set means m_k are read from that pass's running sums,
    and the baseline interval integrals are computed once. Record i's
    cumulative hazard A_i = int_0^{Z_i} alpha_i dt turns the at-risk
    integrals of c_i and c_i^2 into dot products; rho_k, the hazard of
    the whole risk set on interval k, carries the mean terms. The
    baseline part of the compensator vanishes analytically and is still
    evaluated honestly, so Z carries the true floating-point residual.
    """
    tl = timeline
    centered = tl.centered(column_values)
    c, mean = centered[0], tl.centered_means(centered)
    resid = tl.event_deviations(centered)
    lam = tl.interval_integrals(truth.baseline)
    h0 = truth.h0
    cum_lam = take_rows(np.cumsum(lam, axis=-1), tl.end_interval)
    cum_hazard = cum_lam + tl.follow_up * h0
    base_count = lam * tl.at_risk
    rho = base_count + tl.lengths * tl.prefix_sums(h0)
    # sum_k m_k mu_k, with mu_k = sum_{i at risk} c_i int_k alpha_i dt
    s_ch = tl.prefix_sums(c * h0[..., None])
    m_mu = _vecmat(base_count, mean * mean) + _vecmat(tl.lengths, mean * s_ch)
    compensator = _vecmat(cum_hazard, c) - _vecmat(rho, mean)
    variation = _vecmat(cum_hazard, c * c) - 2.0 * m_mu + _vecmat(rho, mean * mean)
    terms = (resid.sum(axis=-2) - compensator, (resid * resid).sum(axis=-2), variation)
    # the input's shape without its record axis; [()] turns the 0-d result
    # of a single column back into a scalar
    axis = tl.end_interval.ndim - 1
    shape = np.shape(column_values)[:axis] + np.shape(column_values)[axis + 1:]
    return tuple((t / tl.n).reshape(shape)[()] for t in terms)
