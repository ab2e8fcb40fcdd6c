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
For an exact fast check on any design, whiten the dictionary: with R =
H^{-1/2} the rotated columns X R have Gram R H R = I, the reference R^{-1}
beta0 has full support almost surely, the cone is the whole space, and
mu3 = 1. On the identity the kappa=2 fit is soft-thresholding of the
event vector at the weights, so ``identity_gram_check`` needs no second
Gram matrix and no solver: one eigh of H, the event deviations of X R and
the weights they give.

The checks and the whitened construction take a batched truth, dictionary,
system and weights (a leading replication axis, as from
``simulate_batch``) with one fit per replication, and return one entry per
replication; a single dataset is a batch of one without that axis. The
harness runs fixed-size chunks of replications through that pipeline,
so only the random draws, the solver fits and the mu3 brackets run one
replication at a time. ``run_oracle_mc`` returns the report dict that
``hazlasso oracle-check`` writes, key for key: one row per replication,
and the holding count, frequency and Wilson interval of each check under
``slow`` and ``fast``, with the count of its fits that did not converge.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._chunks import CHUNK, _keep_chunk_memory, chunks
from .bernstein import half_range, wilson_interval
from .dictionary import DictionaryMatrix, linear_dictionary
from .errors import ConfigError, DataValidationError
from .gram import GramSystem, build_gram, empirical_norm_sq_fn
from .simulate import SimulatedTruth, SimulationConfig, simulate_batch
from .solver import LassoFit, fit
from .survival import build_timeline
from .weights import WeightVector, bernstein_weights, compute_weights

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


def _distances(truth, phi, tl, beta, beta_ref):
    """(|h_fit - h0|_n^2, |h_ref - h0|_n^2, ref) for dictionary values
    ``phi`` on timeline ``tl``, with ref = beta0 unless ``beta_ref`` is
    given; one entry per replication of a batch."""
    if not isinstance(truth, SimulatedTruth):
        raise DataValidationError(
            "oracle checks need simulated truth; h0 is unobservable on real data"
        )
    ref = truth.beta0 if beta_ref is None else np.asarray(beta_ref, dtype=float)
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
    lhs, approx, ref = _distances(truth, dictionary.values, system.timeline, beta, beta_ref)
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
    return _fast_sides(truth, dictionary.values, system.timeline, beta, mu3, weights.w, beta_ref)


def _fast_sides(truth, phi, tl, beta, mu3, w, beta_ref):
    """The fast check of coefficients ``beta`` of dictionary values ``phi``
    penalised by weights ``w``, as ``fast_oracle_check`` returns it."""
    mu = np.asarray(mu3, dtype=float)
    if np.any(np.isnan(mu) | (mu <= 0)):
        raise ValueError("mu3 must be positive")
    lhs, approx, ref = _distances(truth, phi, tl, beta, beta_ref)
    w_j = np.where(ref != 0.0, w, 0.0)
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


def _cone_ratio(H: np.ndarray, support: np.ndarray, b: np.ndarray, scale: float):
    """|b_J|_2 / sqrt(b'Hb) of each row of b (..., M): 0 where b_J = 0, inf
    on a null direction."""
    num2 = np.einsum("...j,...j", b[..., support], b[..., support])
    den2 = np.asarray(np.einsum("...j,...j", b @ H, b))
    live = den2 > 1e-14 * np.einsum("...j,...j", b, b) * scale
    ratio = np.sqrt(np.divide(num2, den2, out=np.full_like(den2, math.inf), where=live))
    return np.where(num2 == 0.0, 0.0, ratio)[()]


def _in_cone(b, w, support, heavy) -> bool:
    """|b_Jc|_{1,w} <= 3 |b_J|_{1,w}; ``heavy`` marks off-support w > 0."""
    return float(w[heavy] @ np.abs(b[heavy])) <= 3.0 * float(w[support] @ np.abs(b[support]))


def _cone_project(b, w, support, heavy, theta):
    """Shrink the weighted off-support mass of each row of b (..., M), in
    place, onto the cone |b_Jc|_{1,w} <= 3 theta |b_J|_{1,w}; coordinates
    with w = 0 are free."""
    cap = 3.0 * theta * (np.abs(b[..., support]) @ w[support])
    load = np.asarray(np.abs(b[..., heavy]) @ w[heavy])
    b[..., heavy] *= np.divide(cap, load, out=np.ones_like(load), where=load > cap)[..., None]
    return b


def _cone(system: GramSystem, weights: WeightVector, beta_ref, budget: int):
    """(J, w, heavy, scale) for the cone around the support J of beta_ref:
    the weights, the mask of off-support coordinates with w > 0, and the
    null-direction scale of the Gram. Refuses an empty support and a
    budget below 1."""
    support = np.flatnonzero(np.asarray(beta_ref, dtype=float) != 0.0)
    if support.size == 0:
        raise ValueError("beta_ref needs a nonempty support")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    heavy = weights.w > 0
    heavy[support] = False
    return support, weights.w, heavy, _diag_scale(system.matrix)


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
    support, w, heavy, scale = _cone(system, weights, beta_ref, budget)
    H, M = system.matrix, system.M
    rng = np.random.default_rng(seed if np.ndim(seed) else [int(seed)])
    draws, theta = np.empty((budget, M)), np.empty(budget)
    for k in range(budget):  # one candidate at a time: the normal vector, then theta
        rng.standard_normal(out=draws[k])
        theta[k] = rng.uniform()
    _cone_project(draws, w, support, heavy, theta)
    ratio = _cone_ratio(H, support, np.vstack([np.eye(M)[support], draws]), scale)
    # the stream stops at its first infinite ratio
    count = int(np.argmax(ratio == math.inf)) + 1 if np.isinf(ratio).any() else len(ratio)
    return ConeSearchResult(
        mu3_lower=float(ratio[:count].max()), candidates=count, method="random-cone-sampling"
    )


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
    support, w, heavy, scale = _cone(system, weights, beta_ref, budget)
    H, M = system.matrix, system.M
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
    _cone_project(b_star, w, support, heavy, 1.0)
    projected = float(_cone_ratio(H, support, b_star, scale))
    found = mu3_search(system, weights, beta_ref, budget, seed)
    found = dataclasses.replace(found, candidates=found.candidates + 1, mu3_upper=upper)
    if projected > found.mu3_lower:
        found = dataclasses.replace(found, mu3_lower=projected, method="projected-closed-form")
    return found


def _fit_each(system: GramSystem, weights: WeightVector, **options) -> list[LassoFit]:
    """One solver fit per replication of a batch."""
    return [fit(system[r], weights[r], **options) for r in range(len(system.matrix))]


def identity_gram_check(
    truth: SimulatedTruth,
    x: float,
    *,
    system: GramSystem,
) -> dict:
    """Fast-oracle check on a whitened copy of the linear dictionary, in
    closed form.

    Rotating the columns X by R = H^{-1/2} leaves the spanned class (hence
    h0) unchanged, makes the Gram of X R exactly R H R = I, and turns the
    reference into H^{1/2} beta0, which is dense almost surely: the cone is
    all of R^M and mu3 = 1, no search. The event vector hn_w and the
    variances vhat_w are read from the event deviations of X R, hn_w = R hn
    up to roundoff; the weights w_w are those of X R at level x, and on the
    identity the kappa=2 fit is beta_w = sign(hn_w) max(|hn_w| - w_w, 0),
    so no Gram matrix is rebuilt and no fit is run. ``fast_converged`` is
    therefore always true, and ``gram_offset`` = max |R H R - I| is the
    roundoff of the whitening. ``system`` is the Gram of the linear
    dictionary of ``truth.dataset``. The keys are the oracle report's
    column names; for a batch every value is a list with one entry per
    replication.
    """
    tl = system.timeline
    lam, vecs = np.linalg.eigh(system.matrix)
    if np.any(lam[..., 0] <= 1e-10 * np.maximum(lam[..., -1], 1.0)):
        raise ConfigError("gram matrix is numerically singular; cannot whiten")
    root = (vecs * np.sqrt(lam)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    inv_root = (vecs / np.sqrt(lam)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    # the linear dictionary's values are the covariates
    whitened = truth.dataset.covariates @ inv_root
    vector, vhat = (s / tl.n for s in tl.event_moments(tl.centered(whitened)))
    w = bernstein_weights(vhat, half_range(whitened), x, tl.n)
    beta = np.sign(vector) * np.maximum(np.abs(vector) - w, 0.0)
    beta_ref = _fitted(root, truth.beta0)
    lhs, rhs, holds = _fast_sides(truth, whitened, tl, beta, 1.0, w, beta_ref)
    exact = np.all(beta_ref != 0.0, axis=-1) | (not np.any(truth.beta0))
    offset = np.abs(inv_root @ system.matrix @ inv_root - np.eye(system.M)).max(axis=(-2, -1))
    rows = lam.shape[:-1]
    return {
        "fast_lhs": lhs,
        "fast_rhs": rhs,
        "fast_holds": holds,
        "fast_converged": _python(np.ones(rows, dtype=bool)),
        "mu3": _python(np.ones(rows)),
        "mu3_label": _python(np.where(exact, "exact", "indicative")),
        "gram_offset": _python(offset),
    }


def _holding(rows: list[dict], check: str) -> dict:
    """How many rows hold under the ``check`` ("slow" or "fast"), as a
    frequency with its Wilson interval, and how many of its fits did not
    converge."""
    holds = sum(1 for row in rows if row[f"{check}_holds"])
    low, high = wilson_interval(holds, len(rows))
    return {
        "holds": holds,
        "frequency": holds / len(rows),
        "wilson_low": low,
        "wilson_high": high,
        "nonconverged": sum(1 for row in rows if not row[f"{check}_converged"]),
    }


def _oracle_chunk(
    config: SimulationConfig, x: float, seed: int, reps: range, identity_gram: bool, budget: int
) -> list[dict]:
    """Report rows of one chunk of replications, in replication order."""
    truth = simulate_batch(config, [[seed, rep] for rep in reps])
    dataset = truth.dataset
    dictionary = linear_dictionary(dataset)
    timeline = build_timeline(dataset)
    system = build_gram(dataset, dictionary, timeline)
    weights = compute_weights(system, x)

    fit_slow = _fit_each(system, weights, kappa=1.0)
    s_lhs, s_rhs, s_holds = slow_oracle_check(truth, dictionary, fit_slow, system, weights)
    columns = {
        "slow_lhs": s_lhs,
        "slow_rhs": s_rhs,
        "slow_holds": s_holds,
        "slow_converged": [f.converged for f in fit_slow],
        "events": _python(truth.event_counts["events"]),
    }

    if identity_gram:
        columns.update(identity_gram_check(truth, x, system=system))
    else:
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
        fit_fast = _fit_each(system, weights, kappa=2.0)
        f_lhs, f_rhs, f_holds = fast_oracle_check(
            truth, dictionary, fit_fast, mu_value, system, weights
        )
        columns.update(
            fast_lhs=f_lhs,
            fast_rhs=f_rhs,
            fast_holds=f_holds,
            fast_converged=[f.converged for f in fit_fast],
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
    identity_gram: bool = False,
    mu3_budget: int = 256,
) -> dict:
    """Holding frequencies of both oracle inequalities over fresh datasets,
    as the report dict that ``hazlasso oracle-check`` writes.

    The slow check always runs on the raw linear dictionary; the fast
    check runs either on the same fit (mu3 from ``mu3_bracket``, labeled
    "exact" when the bracket is closed and otherwise "indicative") or,
    with identity_gram, on the whitened construction where mu3 is a
    closed form and the check is exact. Replications run in chunks through
    the batched pipeline, each from its own generator, so the report does
    not depend on the chunking.
    """
    if replications < 1:
        raise ConfigError("need at least one replication")
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"confidence level x must be positive and finite, got {x}")
    if mu3_budget < 1:
        raise ConfigError(f"mu3 budget must be at least 1, got {mu3_budget}")
    base_seed = config.seed if seed is None else int(seed)
    _keep_chunk_memory()
    rows = [
        row
        for reps in chunks(replications, CHUNK)
        for row in _oracle_chunk(config, x, base_seed, reps, identity_gram, mu3_budget)
    ]
    label = "exact" if all(r["mu3_label"] == "exact" for r in rows) else "indicative"
    return {
        "x": float(x),
        "replications": replications,
        "identity_gram": identity_gram,
        "mu3_label": label,
        "guarantee": guarantee_level(x),
        "slow": _holding(rows, "slow"),
        "fast": _holding(rows, "fast"),
        "rows": rows,
    }
