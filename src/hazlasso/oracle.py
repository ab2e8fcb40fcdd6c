"""Empirical audit of the oracle inequalities on simulated data.

Both guarantees bound the squared empirical distance between the fitted
hazard part and the true h0. The slow form (kappa=1 fit) pays twice the
penalty at a reference coefficient vector; the fast form (kappa=2 fit)
pays (9/4) mu3^2 |w_J|_2^2, where mu3 measures how well the weighted
Gram respects vectors in the cone around the reference support. The
infimum over references is witnessed at beta0 only, which can only make
the checked inequality harder.

mu3 is a supremum over the cone |b_Jc|_{1,w} <= 3 |b_J|_{1,w}. Dropping
the cone gives a certified upper bound in closed form, mu3^2 <=
lambda_max([H^-1]_JJ), attained at b* = H^-1 E_J v for the top
eigenvector v, so ``mu3_bracket`` is exact whenever b* lies in the cone.
When b* leaves the cone, mu3 is bracketed: the lower end comes from
feasible cone points (b* projected onto the cone, and the plain random
stream of ``mu3_search``), and every report states which case it is.
For an exact fast check on any design, whiten the dictionary: the Gram
becomes the identity up to roundoff, the reference support is full, the
cone is the whole space, and mu3 collapses to 1/sqrt(lambda_min).

The checks and the whitened construction take a batched truth, dictionary,
system and weights (a leading replication axis, as from
``simulate_batch``) with one fit per replication, and return one entry per
replication; a single dataset is a batch of one without that axis. The
harness runs fixed-size chunks of replications through that pipeline,
so only the random draws, the solver fits and the mu3 brackets run one
replication at a time.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import chunks, parallel_map
from .bernstein import wilson_interval
from .dictionary import DictionaryMatrix, linear_dictionary
from .errors import ConfigError, DataValidationError
from .gram import GramSystem, build_gram, empirical_norm_sq_fn
from .simulate import SimulatedTruth, SimulationConfig, simulate_batch
from .solver import LassoFit, fit
from .survival import build_timeline
from .weights import WeightVector, compute_weights

GUARANTEE_CONSTANT = 29.0  # both inequalities hold with probability >= 1 - 29 e^{-x}
DEFAULT_ORACLE_X = 5.0
SLACK = 1e-12


def guarantee_level(x: float) -> float:
    """Probability floor 1 - 29 e^{-x} (clipped at 0; vacuous for small x)."""
    return max(0.0, 1.0 - GUARANTEE_CONSTANT * math.exp(-x))


def _python(values):
    """Python scalars for one replication, lists of them for a batch."""
    return np.asarray(values).tolist()


def _fitted_beta(fit_result, kappa: float) -> np.ndarray:
    """Coefficients of one fit, or stacked (R, M) from one fit per replication."""
    batch = isinstance(fit_result, list)
    fits = fit_result if batch else [fit_result]
    if any(f.kappa != kappa for f in fits):
        name = "slow" if kappa == 1.0 else "fast"
        raise ValueError(f"{name} oracle check expects a kappa={kappa:g} fit")
    return np.array([f.beta for f in fits]) if batch else fit_result.beta


def _fitted(values: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Dictionary values (..., n, M) times coefficients (..., M), per replication."""
    return (values @ beta[..., None])[..., 0]


def _distances(truth, dictionary, system, beta, beta_ref):
    """(|h_fit - h0|_n^2, |h_ref - h0|_n^2, ref) with ref = beta0 unless
    ``beta_ref`` is given; one entry per replication of a batch."""
    if not isinstance(truth, SimulatedTruth):
        raise DataValidationError(
            "oracle checks need simulated truth; h0 is unobservable on real data"
        )
    ref = truth.beta0 if beta_ref is None else np.asarray(beta_ref, dtype=float)
    tl = system.timeline
    phi = dictionary.values
    lhs = np.maximum(0.0, empirical_norm_sq_fn(tl, _fitted(phi, beta) - truth.h0))
    approx = np.maximum(0.0, empirical_norm_sq_fn(tl, _fitted(phi, ref) - truth.h0))
    return lhs, approx, ref


def slow_oracle_check(
    truth: SimulatedTruth,
    dictionary: DictionaryMatrix,
    fit_result: LassoFit | list[LassoFit],
    system: GramSystem,
    weights: WeightVector,
    beta_ref: np.ndarray | None = None,
) -> tuple[float, float, bool]:
    """Both sides of the slow inequality at the reference coefficients.

    lhs = |h_fit - h0|_n^2, rhs = |h_ref - h0|_n^2 + 2 pen(ref). When h0
    is exactly linear in the dictionary the approximation term vanishes
    and rhs is purely the penalty. ``system`` and ``weights`` are those
    the fit was made with. For a batch, ``fit_result`` is a list with one
    fit per replication and each returned item is a list.
    """
    beta = _fitted_beta(fit_result, 1.0)
    lhs, approx, ref = _distances(truth, dictionary, system, beta, beta_ref)
    rhs = approx + 2.0 * (np.abs(ref) * weights.w).sum(axis=-1)
    return _python(lhs), _python(rhs), _python(lhs <= rhs + SLACK)


def fast_oracle_check(
    truth: SimulatedTruth,
    dictionary: DictionaryMatrix,
    fit_result: LassoFit | list[LassoFit],
    mu3,
    system: GramSystem,
    weights: WeightVector,
    beta_ref: np.ndarray | None = None,
) -> tuple[float, float, bool]:
    """Both sides of the fast inequality at the reference coefficients.

    rhs = |h_ref - h0|_n^2 + (9/4) mu3^2 |w_J(ref)|_2^2. From a
    ``mu3_bracket`` pass its lower end: when the bracket is closed (b* in
    the cone, or a whitened design) the check is exact; otherwise rhs is an
    under-estimate and a True flag is the conservative reading. An empty
    reference support drops the mu3 term entirely. For a batch,
    ``fit_result`` holds one fit and ``mu3`` one value per replication, and
    each returned item is a list.
    """
    beta = _fitted_beta(fit_result, 2.0)
    mu = np.asarray(mu3, dtype=float)
    if np.any(np.isnan(mu) | (mu <= 0)):
        raise ValueError("mu3 must be positive")
    lhs, approx, ref = _distances(truth, dictionary, system, beta, beta_ref)
    w_j = np.where(ref != 0.0, weights.w, 0.0)
    mu = np.where(np.any(ref != 0.0, axis=-1), mu, 0.0)
    rhs = approx + 2.25 * mu * mu * (w_j * w_j).sum(axis=-1)
    return _python(lhs), _python(rhs), _python(lhs <= rhs + SLACK)


@dataclass
class ConeSearchResult:
    """A certified bracket mu3_lower <= mu3(beta_ref) <= mu3_upper.

    ``mu3_bracket`` closes the bracket (lower == upper, method
    ``"closed-form"``) when the unconstrained maximiser b* lies in the
    cone; otherwise its upper end is the closed form and its lower end a
    feasible cone point. ``mu3_search`` alone only evaluates feasible cone
    points, so its upper end is inf. ``method`` names the step that
    produced the lower end; ``candidates`` counts the points evaluated.
    """

    mu3_lower: float
    candidates: int
    method: str
    mu3_upper: float = math.inf

    @property
    def label(self) -> str:
        """Report label: "exact" for a closed bracket, else "indicative"."""
        return "exact" if self.mu3_lower == self.mu3_upper else "indicative"


def _diag_scale(H: np.ndarray) -> float:
    """b'Hb <= 1e-14 |b|^2 times this scale declares b a null direction."""
    return max(1.0, float(np.max(np.diag(H), initial=0.0)))


def _cone_ratio(H: np.ndarray, support: np.ndarray, b: np.ndarray, scale: float) -> float:
    """|b_J|_2 / sqrt(b'Hb): 0 when b_J = 0, inf on a null direction."""
    num2 = float(b[support] @ b[support])
    if num2 == 0.0:
        return 0.0
    den2 = float(b @ (H @ b))
    if den2 > 1e-14 * float(b @ b) * scale:
        return math.sqrt(num2 / den2)
    return math.inf


def _in_cone(b, w, support, heavy) -> bool:
    """|b_Jc|_{1,w} <= 3 |b_J|_{1,w}; ``heavy`` marks off-support w > 0."""
    return float(w[heavy] @ np.abs(b[heavy])) <= 3.0 * float(w[support] @ np.abs(b[support]))


def _cone_project(b, w, support, heavy, theta):
    """Shrink the weighted off-support mass of b (in place) onto the cone
    |b_Jc|_{1,w} <= 3 theta |b_J|_{1,w}; coordinates with w = 0 are free."""
    cap = 3.0 * theta * float(w[support] @ np.abs(b[support]))
    load = float(w[heavy] @ np.abs(b[heavy]))
    if load > cap:
        b[heavy] *= 0.0 if cap == 0.0 else cap / load
    return b


def mu3_search(
    system: GramSystem,
    weights: WeightVector,
    beta_ref: np.ndarray,
    budget: int = 512,
    seed=0,
) -> ConeSearchResult:
    """Lower-bound mu3(beta_ref) = sup |b_J|_2 / sqrt(b' H b) over the cone
    |b_Jc|_{1,w} <= 3 |b_J|_{1,w}.

    The candidate stream is deterministic given (seed, support, weights):
    the support basis vectors first, then ``budget`` random cone points,
    each a standard normal draw whose weighted off-support mass is shrunk
    onto the cone scaled by a uniform theta in [0, 1). Every candidate is
    feasible and the stream for a larger budget extends the one for a
    smaller, so the result is nondecreasing in budget. A rank-deficient
    direction met with |b_J|_2 > 0 stops the stream at +inf: the
    restricted eigenvalue fails outright.
    """
    beta_ref = np.asarray(beta_ref, dtype=float)
    support = np.flatnonzero(beta_ref != 0.0)
    if support.size == 0:
        raise ValueError("beta_ref needs a nonempty support")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    H = system.matrix
    M = system.M
    w = weights.w
    heavy = w > 0
    heavy[support] = False
    scale = _diag_scale(H)
    rng = np.random.default_rng(seed if np.ndim(seed) else [int(seed)])
    # arguments evaluate left to right: the normal vector, then theta
    draws = (
        _cone_project(rng.standard_normal(M), w, support, heavy, rng.uniform())
        for _ in range(budget)
    )
    best, count = 0.0, 0
    for b in itertools.chain(np.eye(M)[support], draws):
        count += 1
        best = max(best, _cone_ratio(H, support, b, scale))
        if best == math.inf:
            break
    return ConeSearchResult(mu3_lower=best, candidates=count, method="random-cone-sampling")


def mu3_bracket(
    system: GramSystem,
    weights: WeightVector,
    beta_ref: np.ndarray,
    budget: int = 256,
    seed=0,
) -> ConeSearchResult:
    """Bracket mu3(beta_ref) on one replication, exactly whenever the
    maximiser lies in the cone.

    Without the cone, sup |b_J|_2^2 / b'Hb = lambda_max([H^-1]_JJ),
    attained at b* = H^-1 E_J v for the top eigenvector v of that block;
    one Cholesky solve of H against E_J and an eigh of the |J| x |J| block
    give both, and sqrt(lambda_max) is always an upper bound. If b* lies in
    the cone (which is sign-symmetric, so v's sign is immaterial) the bound
    is attained: lower = upper, method ``"closed-form"``. Otherwise the
    lower end is the larger of the ratio at b* projected onto the cone and
    ``mu3_search`` with the same arguments; ``budget`` and ``seed`` only
    shape that fallback stream.

    H is singular when some b'Hb <= 1e-14 |b|^2 max(1, max_j H_jj), the
    test ``mu3_search`` applies to every candidate. Then upper = inf, and
    lower = inf as well if a null direction u with u_J != 0 lies in the
    cone; otherwise the lower end comes from the search. A Monte Carlo
    batch is bracketed one replication at a time (``system[r]``,
    ``weights[r]``), each with its own fallback seed.
    """
    beta_ref = np.asarray(beta_ref, dtype=float)
    support = np.flatnonzero(beta_ref != 0.0)
    if support.size == 0:
        raise ValueError("beta_ref needs a nonempty support")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    H = system.matrix
    M = system.M
    scale = _diag_scale(H)
    w = weights.w
    heavy = w > 0
    heavy[support] = False
    try:
        # H - floor*I factors only if every eigenvalue of H clears the null
        # floor (up to rounding of the factorization)
        np.linalg.cholesky(H - 1e-14 * scale * np.eye(M))
    except np.linalg.LinAlgError:
        lam, vecs = np.linalg.eigh(H)
        null = vecs[:, lam <= 1e-14 * scale]
        # the null basis, and each support axis projected onto the null space
        candidates = np.hstack([null, null @ null[support].T]).T
        for u in candidates:
            if _in_cone(u, w, support, heavy) and _cone_ratio(H, support, u, scale) == math.inf:
                return ConeSearchResult(math.inf, 1, "null-direction", math.inf)
        found = mu3_search(system, weights, beta_ref, budget, seed)
        return dataclasses.replace(found, candidates=found.candidates + len(candidates))

    chol = np.linalg.cholesky(H)
    half = np.linalg.solve(chol, np.eye(M)[:, support])  # L^-1 E_J, so [H^-1]_JJ = half' half
    lam, vecs = np.linalg.eigh(half.T @ half)
    upper = math.sqrt(lam[-1])
    b_star = np.linalg.solve(chol.T, half @ vecs[:, -1])  # H^-1 E_J v
    if _in_cone(b_star, w, support, heavy):
        return ConeSearchResult(upper, 1, "closed-form", upper)
    projected = _cone_ratio(H, support, _cone_project(b_star, w, support, heavy, 1.0), scale)
    found = mu3_search(system, weights, beta_ref, budget, seed)
    found = dataclasses.replace(found, candidates=found.candidates + 1, mu3_upper=upper)
    if projected > found.mu3_lower:
        found = dataclasses.replace(found, mu3_lower=projected, method="projected-closed-form")
    return found


def _fit_each(system: GramSystem, weights: WeightVector, **options):
    """One solver fit for a single system, a list of them for a batch."""
    if system.matrix.ndim == 2:
        return fit(system, weights, **options)
    return [fit(system[r], weights[r], **options) for r in range(len(system.matrix))]


def _converged(fits) -> bool | list[bool]:
    return [f.converged for f in fits] if isinstance(fits, list) else fits.converged


def identity_gram_check(
    truth: SimulatedTruth,
    x: float,
    *,
    system: GramSystem,
) -> dict:
    """Fast-oracle check on a whitened copy of the linear dictionary.

    Rotating the columns by H^{-1/2} leaves the spanned class (hence h0)
    unchanged, makes the rebuilt Gram the identity up to roundoff, and
    turns the reference into H^{1/2} beta0, which is dense almost surely:
    the cone is all of R^M and mu3 = 1/sqrt(lambda_min) exactly, no search.
    ``system`` is the Gram of the linear dictionary of ``truth.dataset``.
    The keys are the oracle report's column names; for a batch every value
    is a list with one entry per replication.
    """
    dataset = truth.dataset
    timeline = system.timeline
    lam, vecs = np.linalg.eigh(system.matrix)
    if np.any(lam[..., 0] <= 1e-10 * np.maximum(lam[..., -1], 1.0)):
        raise ConfigError("gram matrix is numerically singular; cannot whiten")
    root = (vecs * np.sqrt(lam)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    inv_root = (vecs / np.sqrt(lam)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    # the linear dictionary's values are the covariates
    whitened = DictionaryMatrix(
        dataset.covariates @ inv_root, labels=[f"w{j + 1}" for j in range(system.M)]
    )
    system_w = build_gram(dataset, whitened, timeline)
    weights_w = compute_weights(dataset, whitened, system_w, x)
    beta_ref = _fitted(root, truth.beta0)
    fit_w = _fit_each(system_w, weights_w, kappa=2.0)
    mu3 = 1.0 / np.sqrt(np.linalg.eigvalsh(system_w.matrix)[..., 0])
    lhs, rhs, holds = fast_oracle_check(
        truth, whitened, fit_w, mu3, system_w, weights_w, beta_ref=beta_ref
    )
    exact = np.all(beta_ref != 0.0, axis=-1) | (not np.any(truth.beta0))
    offset = np.abs(system_w.matrix - np.eye(system_w.M)).max(axis=(-2, -1))
    return {
        "fast_lhs": lhs,
        "fast_rhs": rhs,
        "fast_holds": holds,
        "fast_converged": _converged(fit_w),
        "mu3": _python(mu3),
        "mu3_label": _python(np.where(exact, "exact", "indicative")),
        "gram_offset": _python(offset),
    }


@dataclass
class OracleReport:
    x: float
    replications: int
    identity_gram: bool
    mu3_label: str
    guarantee: float
    rows: list[dict]
    slow_holds: int
    fast_holds: int
    slow_wilson: tuple[float, float]
    fast_wilson: tuple[float, float]

    @property
    def slow_frequency(self) -> float:
        return self.slow_holds / self.replications

    @property
    def fast_frequency(self) -> float:
        return self.fast_holds / self.replications

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "replications": self.replications,
            "identity_gram": self.identity_gram,
            "mu3_label": self.mu3_label,
            "guarantee": self.guarantee,
            "slow": {
                "holds": self.slow_holds,
                "frequency": self.slow_frequency,
                "wilson_low": self.slow_wilson[0],
                "wilson_high": self.slow_wilson[1],
            },
            "fast": {
                "holds": self.fast_holds,
                "frequency": self.fast_frequency,
                "wilson_low": self.fast_wilson[0],
                "wilson_high": self.fast_wilson[1],
            },
            "rows": self.rows,
        }


def _oracle_chunk(args):
    """Report rows of one chunk of replications, in replication order."""
    config, x, seed, reps, identity_gram, budget = args
    truth = simulate_batch(config, [[seed, rep] for rep in reps])
    dataset = truth.dataset
    dictionary = linear_dictionary(dataset)
    timeline = build_timeline(dataset)
    system = build_gram(dataset, dictionary, timeline)
    weights = compute_weights(dataset, dictionary, system, x)

    fit_slow = _fit_each(system, weights, kappa=1.0)
    s_lhs, s_rhs, s_holds = slow_oracle_check(truth, dictionary, fit_slow, system, weights)
    columns = {
        "slow_lhs": s_lhs,
        "slow_rhs": s_rhs,
        "slow_holds": s_holds,
        "slow_converged": _converged(fit_slow),
        "events": _python(truth.event_counts["events"]),
    }

    if identity_gram:
        columns.update(identity_gram_check(truth, x, system=system))
    else:
        fit_fast = _fit_each(system, weights, kappa=2.0)
        if np.any(truth.beta0):
            mu3 = [
                mu3_bracket(system[r], weights[r], truth.beta0, budget, [seed, rep, 55])
                for r, rep in enumerate(reps)
            ]
            mu_value = [m.mu3_lower for m in mu3]
            mu_upper = [m.mu3_upper for m in mu3]
            label = [m.label for m in mu3]
        else:
            # unused: an empty support drops the mu3 term
            mu_value = mu_upper = [math.inf] * len(reps)
            label = ["exact"] * len(reps)
        f_lhs, f_rhs, f_holds = fast_oracle_check(
            truth, dictionary, fit_fast, mu_value, system, weights
        )
        columns.update(
            fast_lhs=f_lhs,
            fast_rhs=f_rhs,
            fast_holds=f_holds,
            fast_converged=_converged(fit_fast),
            mu3=mu_value,
            mu3_upper=mu_upper,
            mu3_label=label,
        )
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def run_oracle_mc(
    config: SimulationConfig,
    x: float = DEFAULT_ORACLE_X,
    replications: int = 500,
    seed: int | None = None,
    threads: int = 1,
    identity_gram: bool = False,
    mu3_budget: int = 256,
) -> OracleReport:
    """Holding frequencies of both oracle inequalities over fresh datasets.

    The slow check always runs on the raw linear dictionary; the fast
    check runs either on the same fit (mu3 from ``mu3_bracket``, labeled
    "exact" when the bracket is closed and otherwise "indicative") or,
    with identity_gram, on the whitened construction where mu3 is a
    closed form and the check is exact. Replications run in chunks through
    the batched pipeline, each on its own substreams, so the report does
    not depend on the chunking or on ``threads``.
    """
    if replications < 1:
        raise ConfigError("need at least one replication")
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"confidence level x must be positive and finite, got {x}")
    base_seed = config.seed if seed is None else int(seed)
    tasks = [
        (config, x, base_seed, reps, identity_gram, mu3_budget) for reps in chunks(replications)
    ]
    rows = [row for part in parallel_map(_oracle_chunk, tasks, threads) for row in part]
    slow_holds = sum(1 for r in rows if r["slow_holds"])
    fast_holds = sum(1 for r in rows if r["fast_holds"])
    label = "exact" if all(r["mu3_label"] == "exact" for r in rows) else "indicative"
    return OracleReport(
        x=float(x),
        replications=replications,
        identity_gram=identity_gram,
        mu3_label=label,
        guarantee=guarantee_level(x),
        rows=rows,
        slow_holds=slow_holds,
        fast_holds=fast_holds,
        slow_wilson=wilson_interval(slow_holds, replications),
        fast_wilson=wilson_interval(fast_holds, replications),
    )
