"""Weighted-Lasso solver for the risk-set-centered least-squares contrast.

Minimizes b' H b - 2 b' hn + kappa * sum_j w_j |b_j| over R^M or the
nonnegative orthant by an exact active-set method, the feature-sign
search of Lee, Battle, Raina & Ng (NIPS 2007). Each step

1. brings in every zero coordinate whose KKT violation exceeds tol, once
   the active block is solved (stationary, or at its optimum up to
   roundoff). They enter one after another, the largest violation first;
   each is scored again at the current point, since earlier entries move
   its gradient, skipped if it no longer violates, and otherwise moved to
   its exact 1-d minimizer (a soft threshold scaled by H_jj), so the
   objective strictly falls at every entry;
2. solves the sign-fixed system H_AA b_A = hn_A - (kappa/2) w_A s_A on the
   active block A with signs s_A;
3. minimizes the objective exactly along the segment towards that
   solution, stopping at the first sign change and dropping the
   coordinate that reached zero. Up to that point the objective equals
   the sign-fixed quadratic, so it never rises.

Without an entry the step re-solves the block, as after a sign change.
The inverse of the block's unit-diagonal form is updated in O(k^2) as
each coordinate enters or leaves, and refactored when a block optimum turns
out not to be stationary. Along a path it carries across the scales:
each fit hands its final active order and block inverse to the next, so
a scale starts from the block where the last one ended instead of
factoring it afresh. A singular active block (duplicated or
collinear columns) is moved along its null space instead, until a
coordinate reaches zero and leaves. Convergence is certified by the KKT
residual, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gram import GramSystem
from .weights import WeightVector

# A column of an active block counts as lying in the span of the others
# when its Schur complement in the block's unit-diagonal form U (its
# squared distance from their span, 1 / [U^-1]_jj) is at most this; such a
# block is singular. `_singular_direction` applies the same number to the
# eigenvalues of U, relative to the largest.
_RCOND = 1e-10


def active_kernel() -> str:
    """Name of the solver behind `fit` ("active-set")."""
    return "active-set"


CONSTRAINTS = ("unconstrained", "nonnegative")


@dataclass
class _ActiveBlock:
    """A fit's final active coordinates, in the order of ``inv``, the
    inverse of their unit-diagonal Gram block (None when it must be
    refactored); ``fit_path`` hands it from one scale to the next."""

    order: np.ndarray
    inv: np.ndarray | None


@dataclass
class LassoFit:
    """Solution plus certificates: trace, KKT residual, pinned coordinates.

    ``sweeps`` counts solver steps; ``objective_trace`` holds the objective
    at the start and after each step, so it has ``sweeps + 1`` entries.
    """

    beta: np.ndarray
    converged: bool
    sweeps: int
    kkt_max_violation: float
    objective_trace: np.ndarray
    kappa: float
    constraint: str
    weight_scale: float = 1.0
    pinned: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    pinned_violation: float = 0.0

    @property
    def active_set(self) -> np.ndarray:
        return np.flatnonzero(self.beta)


def _dead_mask(system: GramSystem, weights: WeightVector) -> np.ndarray:
    # H_jj = 0 makes the coordinate unidentifiable. A constant column has
    # half-range r = 0; for the others allow for roundoff at the scale r^2
    # when deciding (a column constant up to roundoff lands at
    # |H_jj| <= 1e-13 r^2, a live column is far above).
    r = weights.half_range
    return (r == 0.0) | (np.diag(system.matrix) <= 1e-13 * r**2)


def kkt_violations(
    system: GramSystem,
    weights: WeightVector,
    beta: np.ndarray,
    kappa: float = 1.0,
    constraint: str = "unconstrained",
    weight_scale: float = 1.0,
) -> np.ndarray:
    """Per-coordinate first-order-condition residuals at beta.

    Zero coordinates must have the (signed or absolute) gradient inside the
    subdifferential slab; active coordinates must have an exactly balancing
    subgradient. Nonnegative fits only require one-sided stationarity at 0.
    """
    b = np.asarray(beta, dtype=float)
    grad = 2.0 * (system.matrix @ b - system.vector)
    wk = kappa * weight_scale * weights.w
    out = np.empty(len(b))
    on = b != 0
    if constraint == "nonnegative":
        out[on] = np.abs(grad[on] + wk[on])
        out[~on] = np.maximum(0.0, -(grad[~on] + wk[~on]))
    else:
        out[on] = np.abs(grad[on] + wk[on] * np.sign(b[on]))
        out[~on] = np.maximum(0.0, np.abs(grad[~on]) - wk[~on])
    return out


def _unit_inverse(unit: np.ndarray) -> np.ndarray | None:
    """Inverse of a unit-diagonal block, or None when it is singular."""
    try:
        inv = np.linalg.inv(unit)
    except np.linalg.LinAlgError:
        return None
    # every Schur complement 1 / [U^-1]_jj must be above _RCOND
    diag = np.diag(inv)
    if not (diag.min(initial=1.0) > 0.0 and diag.max(initial=1.0) < 1.0 / _RCOND):
        return None
    return inv


def _bordered(inv: np.ndarray, col: np.ndarray) -> np.ndarray | None:
    """Inverse of [[U, col], [col', 1]] from inv = U^-1 in O(k^2), or None
    when the Schur complement of the new column is at most _RCOND."""
    u = inv @ col
    schur = 1.0 - col @ u
    if schur <= _RCOND:
        return None
    k = len(u)
    v = u / schur
    out = np.empty((k + 1, k + 1))
    np.multiply.outer(u, v, out=out[:k, :k])  # no (k, k) temporaries
    out[:k, :k] += inv
    out[:k, k] = out[k, :k] = -v
    out[k, k] = 1.0 / schur
    return out


def _without(inv: np.ndarray, gone: np.ndarray) -> np.ndarray:
    """Inverse of U with the rows and columns in `gone` removed, in O(k^2)."""
    keep = ~gone
    cross = inv[np.ix_(keep, gone)]
    return inv[np.ix_(keep, keep)] - cross @ np.linalg.solve(inv[np.ix_(gone, gone)], cross.T)


def _singular_direction(unit: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, bool]:
    """Descent direction for e' U e - 2 e' r on a singular unit-diagonal block.

    Returns (e, solved): the pseudo-inverse solution (solved=True) when r
    lies (mostly) in the range of U; otherwise the part of r in the null
    space of U, along which the quadratic falls without bound until a
    coordinate changes sign.
    """
    lam, vec = np.linalg.eigh(unit)
    null = lam <= _RCOND * lam[-1]
    coef = vec.T @ r
    ranged = coef[~null] / lam[~null]
    if coef[null] @ coef[null] > coef[~null] @ ranged:
        return vec[:, null] @ coef[null], False
    return vec[:, ~null] @ ranged, True


def fit(
    system: GramSystem,
    weights: WeightVector,
    kappa: float = 1.0,
    constraint: str = "unconstrained",
    tol: float = 1e-8,
    max_sweeps: int = 10000,
    start: np.ndarray | None = None,
    weight_scale: float = 1.0,
    *,
    _block: _ActiveBlock | None = None,
) -> LassoFit:
    """Active-set steps until the KKT residual on live columns is <= tol.

    ``max_sweeps`` bounds the number of solver steps (see the module
    docstring). Running out of steps, a freshly factored block solve that
    leaves the block above tol with nothing left to bring in (the
    roundoff floor), or a step that can change nothing ends the fit with
    ``converged=False``, never silently.
    Coordinates with H_jj = 0 are pinned at 0 and never enter; their
    (unfixable) KKT residual is reported separately as pinned_violation.
    ``_block`` is ``fit_path``'s carrier: when its coordinates are those
    of ``start``, the fit starts from its inverse, and the fit leaves its
    own final block there.
    """
    for name, value in (("kappa", kappa), ("tol", tol), ("weight_scale", weight_scale)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}")
    if not np.all(np.isfinite(weights.w)):
        raise ValueError("weights must be finite")

    H = np.asarray(system.matrix, dtype=float)
    hn = np.asarray(system.vector, dtype=float)
    wk = kappa * weight_scale * np.asarray(weights.w, dtype=float)
    dead = _dead_mask(system, weights)
    live = ~dead
    nonneg = constraint == "nonnegative"
    unit_scale = 1.0 / np.sqrt(np.where(live, np.diag(H), 1.0))

    beta = np.zeros(len(hn)) if start is None else np.array(start, dtype=float)
    beta[dead] = 0.0
    if nonneg:
        np.maximum(beta, 0.0, out=beta)
    hb = H @ beta

    def penalized() -> float:
        return float(beta @ hb - 2.0 * (beta @ hn) + wk @ np.abs(beta))

    trace = [penalized()]
    # active coordinates, in the order of `inv`, the inverse of their
    # unit-diagonal Gram block (None when it must be refactored)
    idx = np.flatnonzero(beta)
    inv = None
    if _block is not None and np.array_equal(np.sort(_block.order), idx):
        idx, inv = _block.order, _block.inv
    free = live & (beta == 0.0)  # the coordinates that may enter
    direction = np.zeros(len(hn))  # a step's direction, zero off the block
    full = False  # the last step ended at the block optimum
    refining = False  # the last step re-solved a block optimum from a fresh factorization
    converged = False
    steps = 0
    while True:
        g = hn - hb  # minus half the gradient of the smooth part
        sign = np.sign(beta[idx])
        # the active KKT residuals are 2|rho|, and rho is the block's right-hand side
        rho = g[idx] - 0.5 * wk[idx] * sign
        active_max = 2.0 * np.abs(rho).max(initial=0.0)
        # a zero coordinate's KKT residual is max(0, score)
        score = 2.0 * (g if nonneg else np.abs(g)) - wk
        score[~free] = -np.inf
        entering_max = score.max(initial=-np.inf)
        if active_max <= tol and entering_max <= tol:  # False on a NaN residual
            converged = True
            break
        if steps == max_sweeps:
            break
        # enter once the block is stationary, or once a fresh solve of it has
        # stayed above tol (roundoff floor); otherwise solve the block again
        entered = entering_max > tol and (active_max <= tol or (full and refining))
        if not entered and full:
            if refining:
                break  # a fresh solve left the block above tol: roundoff floor
            inv = None  # refactor before solving the block again
        refining = not entered and full
        steps += 1
        if entered:
            # every violator, the largest first; each entry moves the
            # gradient of the others, so a candidate is scored again before
            # it enters and skipped once it no longer violates
            candidates = np.flatnonzero(score > tol)
            for j in candidates[np.argsort(-score[candidates], kind="stable")]:
                c = hn[j] - hb[j]
                if 2.0 * (c if nonneg else abs(c)) - wk[j] <= tol:
                    continue
                beta[j] = (c - math.copysign(0.5 * wk[j], c)) / H[j, j]
                hb += beta[j] * H[j]
                if inv is not None:
                    inv = _bordered(inv, H[idx, j] * unit_scale[idx] * unit_scale[j])
                idx = np.append(idx, j)
                free[j] = False
            sign = np.sign(beta[idx])
            rho = hn[idx] - hb[idx] - 0.5 * wk[idx] * sign

        b = beta[idx]
        su = unit_scale[idx]
        r = rho * su
        if inv is None:
            block = H[idx][:, idx] * su[:, None] * su[None, :]
            inv = _unit_inverse(block)
        if inv is not None:
            d, solved = (inv @ r) * su, True
        else:
            e, solved = _singular_direction(block, r)
            d = e * su
        direction[idx] = d
        hd = H @ direction
        direction[idx] = 0.0
        # exact minimum of the sign-fixed quadratic along d, cut at the
        # first coordinate that reaches zero
        slope, curve = d @ (r / su), d @ hd[idx]
        t = slope / curve if curve > 0.0 else np.inf
        shrinking = np.flatnonzero(b * d < 0.0)
        crossed = None
        if len(shrinking):
            reach = -b[shrinking] / d[shrinking]
            k = int(np.argmin(reach))
            if reach[k] <= t:
                t, crossed = reach[k], shrinking[k]
        moved = slope > 0.0 and np.isfinite(t)
        if moved:
            new = b + t * d
            gone = new * sign <= 0.0
            if crossed is not None:
                gone[crossed] = True
            new[gone] = 0.0
            beta[idx] = new
            if gone.any():
                if inv is not None:
                    inv = _without(inv, gone)
                free[idx[gone]] = True
                idx = idx[~gone]
            hb = H @ beta
        trace.append(penalized())
        full = solved and moved and crossed is None
        if not (entered or moved):
            break  # nothing can change any more

    if _block is not None:
        _block.order, _block.inv = idx, inv
    viol = kkt_violations(system, weights, beta, kappa, constraint, weight_scale)
    return LassoFit(
        beta=beta,
        converged=converged,
        sweeps=steps,
        kkt_max_violation=float(viol[live].max(initial=0.0)),
        objective_trace=np.asarray(trace),
        kappa=float(kappa),
        constraint=constraint,
        weight_scale=float(weight_scale),
        pinned=np.flatnonzero(dead),
        pinned_violation=float(viol[dead].max(initial=0.0)),
    )


def fit_path(
    system: GramSystem,
    weights: WeightVector,
    scale_grid,
    kappa: float = 1.0,
    constraint: str = "unconstrained",
    tol: float = 1e-8,
    max_sweeps: int = 10000,
) -> list[LassoFit]:
    """Warm-started fits over a descending grid of global weight scales.

    Each scale starts from the previous scale's coefficients and active
    block inverse.
    """
    grid = [float(s) for s in scale_grid]
    if not grid or not all(math.isfinite(s) and s > 0 for s in grid):
        raise ValueError(f"scale grid must be positive and finite, got {grid}")
    if any(later >= earlier for later, earlier in zip(grid[1:], grid)):
        raise ValueError("scale grid must be sorted descending")
    fits: list[LassoFit] = []
    start = None
    block = _ActiveBlock(np.array([], dtype=np.int64), None)
    for scale in grid:
        f = fit(
            system,
            weights,
            kappa=kappa,
            constraint=constraint,
            tol=tol,
            max_sweeps=max_sweeps,
            start=start,
            weight_scale=scale,
            _block=block,
        )
        fits.append(f)
        start = f.beta
    return fits
