"""Ground-truth generator for the additive hazard model with censoring.

Subjects carry hazard alpha0(t, X_i) = lambda0(t) + X_i' beta0 with a
nonnegative step-function baseline, so the cumulative hazard is piecewise
linear and failure times come from exact inverse-transform sampling (no
quadrature, no discretization). Censoring is independent: uniform,
exponential, or administrative-at-1 only. Everything downstream that the
theory calls unobservable (h0, compensators, predictable variation) is
computable exactly from the returned truth object.

Covariate rows violating lambda0(t) + x' beta0 >= 0 are redrawn and
counted; a configuration whose per-draw violation probability (estimated
on a dedicated probe substream) exceeds ``max_negative_prob`` is rejected
with a diagnostic.

``simulate_batch`` draws R datasets at once: the dataset, ``h0`` and the
noise terms of ``noise_terms`` carry a leading replication axis of length
R, which the Monte Carlo harnesses push through the rest of the pipeline
as one array computation. ``simulate`` is a batch of one without that
axis. Each replication keeps its own random substreams, so its numbers do
not depend on the batch it is drawn in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .survival import RiskSetTimeline, StepFunction, SurvivalDataset, take_rows

_PROBE_TAG = 9901
_PROBE_DRAWS = 1000
_COVARIATE_TAG, _EVENT_TAG, _CENSOR_TAG = 1, 2, 3

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

    def draw(self, rng, size: int, d: int) -> np.ndarray:
        """A (size, d) block of rows; a list of generators draws one block
        each, stacked on a leading axis.

        Each block is multiplied by the AR(1) factor and clipped while it is
        still in cache, straight into the stacked output.
        """
        batch = isinstance(rng, list)
        generators = rng if batch else [rng]
        x = np.empty((len(generators), size, d))
        normal = np.empty((size, d))
        factor = self._factor(d)
        for g, block in zip(generators, x):
            g.standard_normal(out=normal if factor is not None else block)
            if factor is not None:
                np.matmul(normal, factor, out=block)
            if self.clip is not None:  # np.clip, without its per-call overhead
                np.minimum(block, self.clip, out=block)
                np.maximum(block, -self.clip, out=block)
        return x if batch else x[0]

    def _factor(self, d: int) -> np.ndarray | None:
        """Transposed Cholesky factor of the AR(1) correlation, or None at rho = 0."""
        if self.rho == 0.0:
            return None
        key = (d, self.rho)
        if key not in _chol_cache:
            idx = np.arange(d)
            _chol_cache[key] = np.linalg.cholesky(self.rho ** np.abs(idx[:, None] - idx[None, :]))
        return _chol_cache[key].T


@dataclass(frozen=True)
class RademacherCovariates:
    """Independent +-1 entries."""

    kind = "rademacher"

    def draw(self, rng, size: int, d: int) -> np.ndarray:
        """A (size, d) block; a list of generators stacks one block each."""
        batch = isinstance(rng, list)
        bits = np.stack([g.integers(0, 2, size=(size, d)) for g in (rng if batch else [rng])])
        x = bits.astype(float) * 2.0 - 1.0
        return x if batch else x[0]


@dataclass(frozen=True)
class UniformCensoring:
    c_max: float

    kind = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.c_max) and self.c_max > 0):
            raise ConfigError(f"uniform censoring needs a finite c_max > 0, got {self.c_max}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        c = rng.uniform(0.0, self.c_max, size=size)
        while np.any(c == 0.0):  # keep Z strictly positive
            c[c == 0.0] = rng.uniform(0.0, self.c_max, size=int((c == 0.0).sum()))
        return c


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


def _negative_probability(config: SimulationConfig) -> float:
    """Per-draw chance that a fresh covariate row makes the hazard negative.

    Estimated once per config on a probe substream keyed by the config seed
    only, so the answer does not depend on which replication asks.
    """
    if config._probe is None:
        floor = float(config.baseline.values.min())
        if np.all(config.beta0 == 0.0):
            prob = 0.0
        else:
            rng = np.random.default_rng([config.seed, _PROBE_TAG])
            x = config.covariates.draw(rng, _PROBE_DRAWS, config.d)
            prob = float(np.mean(x @ config.beta0 < -floor))
        config._probe = prob
    return config._probe


def simulate(config: SimulationConfig, seed=None) -> SimulatedTruth:
    """Draw one dataset; reproducible from (config, seed) via substreams.

    ``seed`` overrides the config seed and may be a sequence (used by Monte
    Carlo drivers as (base_seed, replication_index)). The dataset is a
    batch of one from ``simulate_batch``.
    """
    return simulate_batch(config, [_seed_key(config, seed)])[0]


def simulate_batch(config: SimulationConfig, keys) -> SimulatedTruth:
    """Draw one dataset per seed key, stacked on a leading replication axis.

    Each key (a sequence of ints) owns three substreams, key + [tag] for
    the covariates, the event times and the censoring times, so a
    replication's numbers do not depend on the batch it is drawn in. The
    draws and the redraws of covariate rows that make the hazard negative
    run per replication; everything else is array arithmetic over the
    batch.
    """
    neg_prob = _negative_probability(config)
    if neg_prob > config.max_negative_prob:
        raise ConfigError(
            f"hazard is negative for {neg_prob:.1%} of covariate draws "
            f"(limit {config.max_negative_prob:.1%}); lower |beta0|, raise the "
            "baseline, or raise max_negative_prob"
        )

    keys = [[int(k) for k in key] for key in keys]
    n, d = config.n, config.d
    floor = float(config.baseline.values.min())

    rngs_x = [np.random.default_rng(key + [_COVARIATE_TAG]) for key in keys]
    x = config.covariates.draw(rngs_x, n, d)
    h0 = x @ config.beta0
    bad = h0 < -floor
    redraws = bad.sum(axis=-1)
    for r in np.flatnonzero(redraws):
        rows, count = bad[r], int(redraws[r])
        while count:  # redraw the offending rows until none is left
            x[r, rows] = config.covariates.draw(rngs_x[r], count, d)
            h0[r] = x[r] @ config.beta0
            rows = h0[r] < -floor
            count = int(rows.sum())
            redraws[r] += count

    # piecewise-linear cumulative hazard, inverted in closed form
    bp = config.baseline.breakpoints
    lam = config.baseline.values
    cum0 = np.concatenate([[0.0], np.cumsum(lam * np.diff(bp))])
    cum = cum0 + h0[..., None] * bp
    exp_draw = np.stack(
        [np.random.default_rng(key + [_EVENT_TAG]).exponential(size=n) for key in keys]
    )
    np.maximum(exp_draw, 1e-300, out=exp_draw)
    inside = exp_draw <= cum[..., -1]
    # ties on flat pieces resolve forward to the next increasing piece
    piece = np.clip((cum <= exp_draw[..., None]).sum(axis=-1) - 1, 0, len(lam) - 1)
    rate = lam[piece] + h0
    left = bp[piece]
    start = cum0[piece] + h0 * left  # cum at the start of the piece, as above
    failure = np.where(inside, left + (exp_draw - start) / np.maximum(rate, 1e-300), np.inf)

    censor = np.stack(
        [config.censoring.draw(np.random.default_rng(key + [_CENSOR_TAG]), n) for key in keys]
    )
    z = np.minimum(np.minimum(failure, censor), 1.0)
    delta = failure <= np.minimum(censor, 1.0)

    dataset = SurvivalDataset(times=z, status=delta, covariates=x)
    events = delta.sum(axis=-1)
    return SimulatedTruth(
        dataset=dataset,
        beta0=config.beta0.copy(),
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


def config_from_dict(raw: dict) -> SimulationConfig:
    """Build a config from parsed JSON; every complaint names its key."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {
        "n", "d", "beta0", "baseline", "covariates", "censoring", "seed",
        "max_negative_prob",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        n = int(raw["n"])
        d = int(raw["d"])
        seed = int(raw.get("seed", 0))
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integer field: {exc}") from None

    spec = raw.get("beta0")
    beta0 = np.zeros(d)
    try:
        if isinstance(spec, dict):
            beta0[np.asarray(spec["indices"], dtype=int)] = np.asarray(
                spec["values"], dtype=float
            )
        elif spec is not None:
            beta0 = np.asarray(spec, dtype=float)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad beta0: {exc}") from None

    base_raw = raw.get("baseline", {"breakpoints": [0.0, 1.0], "values": [2.0]})
    try:
        baseline = StepFunction(
            np.asarray(base_raw["breakpoints"], dtype=float),
            np.asarray(base_raw["values"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad baseline: {exc}") from None

    cov_raw = dict(raw.get("covariates", {"kind": "gaussian"}))
    cen_raw = dict(raw.get("censoring", {"kind": "administrative"}))
    cov_kind = cov_raw.pop("kind", "gaussian")
    cen_kind = cen_raw.pop("kind", "administrative")
    covariate_kinds = {"gaussian": GaussianCovariates, "rademacher": RademacherCovariates}
    censoring_kinds = {
        "uniform": UniformCensoring,
        "exponential": ExponentialCensoring,
        "administrative": AdministrativeCensoring,
    }
    if cov_kind not in covariate_kinds:
        raise ConfigError(f"unknown covariates.kind {cov_kind!r}")
    if cen_kind not in censoring_kinds:
        raise ConfigError(f"unknown censoring.kind {cen_kind!r}")
    try:
        covariates = covariate_kinds[cov_kind](**cov_raw)
        censoring = censoring_kinds[cen_kind](**cen_raw)
    except TypeError as exc:
        raise ConfigError(f"bad model options: {exc}") from None

    return SimulationConfig(
        n=n,
        d=d,
        beta0=beta0,
        baseline=baseline,
        covariates=covariates,
        censoring=censoring,
        seed=seed,
        max_negative_prob=float(raw.get("max_negative_prob", 0.2)),
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
