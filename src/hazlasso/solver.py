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
The active block carries its rows of H and a square factor W of the
inverse of its unit-diagonal form U, U^-1 = W W' (Golub & Van Loan,
Matrix Computations, 6.5), both in the block's order and in buffers that
double as k grows, up to M. An entry copies its row of H and appends one
column and one zero row to W after two matrix-vector products; an exit
costs one Householder reflection and moves the last coordinate into its
place; a block solve is W (W' r). A step's products with H read only the k carried
rows, so it costs O(k M) and a fixed set of numpy calls. W is factored
afresh from U when a block optimum turns out not to be stationary. Along
a path the block carries across the scales, so each scale starts where
the last one ended. A singular block (duplicated or collinear columns)
is moved along its null space until a coordinate reaches zero and leaves.
Convergence is certified by the KKT residual, recomputed from H, never
assumed.
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
# the most solver steps one fit takes before it ends with converged=False
MAX_STEPS = 10000


class _Factor:
    """A square W with W W' = U^-1 for a unit-diagonal block U.

    Row j of W belongs to the block's j-th coordinate, so [U^-1]_jj is the
    squared norm of row j. W is the leading k x k corner of a column-major
    buffer that is zero outside it and doubles, up to ``limit``, as k grows.
    """

    def __init__(self, w: np.ndarray, limit: int):
        self.k, self.limit = len(w), limit
        self._buf = np.zeros((max(self.k, 1),) * 2, order="F")
        self._buf[: self.k, : self.k] = w
        self._scratch = np.empty_like(self._buf)  # the rank-one update of an exit

    @property
    def capacity(self) -> int:
        return len(self._buf)

    @property
    def w(self) -> np.ndarray:
        return self._buf[: self.k, : self.k]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """U^-1 r = W (W' r)."""
        w = self.w
        return w @ (r @ w)

    def append(self, col: np.ndarray) -> bool:
        """Border U with the column col and a unit corner: with q = W' col
        and the Schur complement s = 1 - q'q, W gains the column
        [-W q; 1] / sqrt(s) and a zero row. Returns False, and leaves W as
        it was, when s is at most _RCOND."""
        w = self.w
        q = col @ w
        schur = 1.0 - q @ q
        if schur <= _RCOND:
            return False
        k = self.k
        if k == self.capacity:
            grown = np.zeros((min(2 * k, self.limit),) * 2, order="F")
            grown[:k, :k] = w
            self._buf, w = grown, grown[:k, :k]
            self._scratch = np.empty_like(grown)
        root = math.sqrt(schur)
        self._buf[:k, k] = (w @ q) * (-1.0 / root)
        self._buf[k, k] = 1.0 / root
        self.k = k + 1
        return True

    def remove(self, p: int) -> None:
        """Drop the coordinate at position p. One Householder reflection
        from the right, written through the scratch block, sends row p of
        W onto the last axis; then the last column goes and the last row
        moves into p, a factor of the remaining block's inverse."""
        k = self.k
        v = self._buf[p, :k].copy()
        v[-1] += math.copysign(math.sqrt(v @ v), v[-1])
        # whole columns are contiguous; below row k they stay zero
        u, z = self._buf[:, :k] @ v, v[:-1] * (2.0 / (v @ v))
        kept, outer = self._buf[:, : k - 1], self._scratch[:, : k - 1]
        np.einsum("i,j->ij", u, z, out=outer)
        np.subtract(kept, outer, out=kept)
        kept[p] = kept[k - 1]
        self._buf[k - 1, :k] = 0.0
        self._buf[:k, k - 1] = 0.0
        self.k = k - 1


def _fresh_factor(unit: np.ndarray, limit: int) -> _Factor | None:
    """W = (chol U)^-T for a unit-diagonal block U, in a buffer that grows
    up to ``limit``, or None when U is singular."""
    try:
        w = np.linalg.inv(np.linalg.cholesky(unit)).T
    except np.linalg.LinAlgError:
        return None
    # every Schur complement 1 / [U^-1]_jj must be above _RCOND
    diag = np.einsum("ij,ij->i", w, w)
    if not (diag.min(initial=1.0) > 0.0 and diag.max(initial=1.0) < 1.0 / _RCOND):
        return None
    return _Factor(w, limit)


class _ActiveBlock:
    """A fit's active coordinates, ``order``, with their ``rows`` of H and
    their square ``factor`` (None when it must be factored afresh), both in
    that order, in buffers that double, up to M, as k grows. An exit
    moves the last coordinate into its place. It is set up once per system;
    ``fit_path`` hands it from one scale to the next, with H beta at the
    beta where the last fit ended.
    """

    def __init__(self, system: GramSystem, weights: WeightVector):
        self._H = np.asarray(system.matrix, dtype=float)
        w = np.asarray(weights.w, dtype=float)
        if w.shape != (system.M,) or not np.all(np.isfinite(w)):
            raise ValueError(f"weights must be finite, {system.M} of them, got shape {w.shape}")
        # H_jj = 0 makes the coordinate unidentifiable: dead. A constant
        # column has half-range r = 0; for the others allow for roundoff at
        # the scale r^2 (a column constant up to roundoff lands at
        # |H_jj| <= 1e-13 r^2, a live column is far above)
        r, diag = weights.half_range, np.diag(self._H)
        self.dead = (r == 0.0) | (diag <= 1e-13 * r**2)
        self.unit_scale = 1.0 / np.sqrt(np.where(self.dead, 1.0, diag))
        self.k = 0
        self._order = np.empty(1, dtype=np.intp)
        self._rows = np.empty((1, system.M))
        self.factor: _Factor | None = None
        self.beta = self.hb = None  # where the last fit ended, and H beta there

    @property
    def order(self) -> np.ndarray:
        return self._order[: self.k]

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self.k]

    def start(self, beta: np.ndarray) -> np.ndarray:
        """H beta. Unless beta is where the last fit ended, the block is
        set to the support of beta, in index order, without a factor."""
        if self.beta is not None and np.array_equal(beta, self.beta):
            return self.hb
        self.k, self.factor = 0, None
        for j in np.flatnonzero(beta):
            self.enter(j)
        return beta[self.order] @ self.rows

    def enter(self, j: int) -> np.ndarray:
        """Append coordinate j and return its row of H, whose entries at
        the order, in unit scale, are its factor column."""
        k = self.k
        if k == len(self._order):
            cap = min(2 * k, len(self._H))
            order, rows = np.empty(cap, dtype=np.intp), np.empty((cap, len(self._H)))
            order[:k], rows[:k] = self.order, self.rows
            self._order, self._rows = order, rows
        row = self._rows[k]
        row[:] = self._H[j]
        if self.factor is not None:
            order, su = self.order, self.unit_scale
            if not self.factor.append(row[order] * su[order] * su[j]):
                self.factor = None
        self._order[k] = j
        self.k = k + 1
        return row

    def leave(self, gone: np.ndarray) -> None:
        """Drop the coordinates at the positions in the mask ``gone``, the
        last first, so each position still indexes the block."""
        for p in np.flatnonzero(gone)[::-1]:
            last = self.k - 1
            if self.factor is not None:
                self.factor.remove(p)
            self._order[p] = self._order[last]
            self._rows[p] = self._rows[last]
            self.k = last


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


def _zero_residuals(g: np.ndarray, wk: np.ndarray, nonneg: bool) -> np.ndarray:
    """KKT residuals at zero from g = hn - H beta (minus half the gradient of
    the smooth part) and the penalty weights wk: max(0, 2|g| - wk), or
    max(0, 2g - wk) on a nonnegative fit."""
    return np.maximum(0.0, 2.0 * (g if nonneg else np.abs(g)) - wk)


def _residuals(g: np.ndarray, beta: np.ndarray, wk: np.ndarray, nonneg: bool) -> np.ndarray:
    """Per-coordinate KKT residuals at beta: `_zero_residuals` off the
    support; 2|g - (wk/2) s| on it, with s = sign(beta), or s = 1 on a
    nonnegative fit: twice the active block's right-hand side."""
    out = _zero_residuals(g, wk, nonneg)
    on = beta != 0
    out[on] = 2.0 * np.abs(g[on] - 0.5 * wk[on] * (1.0 if nonneg else np.sign(beta[on])))
    return out


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
    g = system.vector - _gram_product(system.matrix, b)
    return _residuals(g, b, kappa * weight_scale * weights.w, constraint == "nonnegative")


def _gram_product(H: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """H beta from the rows of H where beta is nonzero, in index order."""
    idx = np.flatnonzero(beta)
    return beta[idx] @ H[idx]


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
    start: np.ndarray | None = None,
    weight_scale: float = 1.0,
    *,
    _block: _ActiveBlock | None = None,
) -> LassoFit:
    """Active-set steps until the KKT residual on live columns is <= tol.

    ``MAX_STEPS`` bounds the number of solver steps (see the module
    docstring). Running out of steps, a freshly factored block solve that
    leaves the block above tol with nothing left to bring in (the
    roundoff floor), or a step that can change nothing ends the fit with
    ``converged=False``, never silently.
    Coordinates with H_jj = 0 are pinned at 0 and never enter; their
    (unfixable) KKT residual is reported separately as pinned_violation.
    ``_block`` is ``fit_path``'s carrier: when ``start`` is where its last
    fit ended, the fit starts from its rows, factor and H beta, and it
    leaves its own final block there.
    """
    for name, value in (("kappa", kappa), ("tol", tol), ("weight_scale", weight_scale)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}")
    block = _ActiveBlock(system, weights) if _block is None else _block
    beta = np.zeros(system.M) if start is None else np.array(start, dtype=float)
    if beta.shape != (system.M,) or not np.all(np.isfinite(beta)):
        raise ValueError(f"start must be {system.M} finite values, got shape {beta.shape}")

    H = np.asarray(system.matrix, dtype=float)
    hn = np.asarray(system.vector, dtype=float)
    wk = kappa * weight_scale * np.asarray(weights.w, dtype=float)
    live = ~block.dead
    nonneg = constraint == "nonnegative"
    beta[block.dead] = 0.0
    if nonneg:
        np.maximum(beta, 0.0, out=beta)
    hb = block.start(beta)

    def penalized() -> float:
        return float(beta @ hb - 2.0 * (beta @ hn) + wk @ np.abs(beta))

    trace = [penalized()]
    free = live & (beta == 0.0)  # the coordinates that may enter
    full = False  # the last step ended at the block optimum
    refining = False  # the last step re-solved a block optimum from a fresh factorization
    converged = False
    steps = 0
    while True:
        idx = block.order
        g = hn - hb
        sign = np.sign(beta[idx])
        # the block's right-hand side; the active KKT residuals are 2|rho|
        rho = g[idx] - 0.5 * wk[idx] * sign
        viol = _zero_residuals(g, wk, nonneg)
        active_max = 2.0 * np.abs(rho).max(initial=0.0)
        entering_max = viol[free].max(initial=0.0)
        if active_max <= tol and entering_max <= tol:  # False on a NaN residual
            converged = True
            break
        if steps == MAX_STEPS:
            break
        # enter once the block is stationary, or once a fresh solve of it has
        # stayed above tol (roundoff floor); otherwise solve the block again
        entered = entering_max > tol and (active_max <= tol or (full and refining))
        if not entered and full:
            if refining:
                break  # a fresh solve left the block above tol: roundoff floor
            block.factor = None  # factor afresh before solving the block again
        refining = not entered and full
        steps += 1
        if entered:
            # every violator, the largest first; each entry moves the
            # gradient of the others, so a candidate is scored again before
            # it enters and skipped once it no longer violates
            candidates = np.flatnonzero(free & (viol > tol))
            for j in candidates[np.argsort(-viol[candidates], kind="stable")]:
                c = hn[j] - hb[j]
                if 2.0 * (c if nonneg else abs(c)) - wk[j] <= tol:
                    continue
                beta[j] = (c - math.copysign(0.5 * wk[j], c)) / H[j, j]
                hb += beta[j] * block.enter(j)
                free[j] = False
            idx = block.order
            sign = np.sign(beta[idx])
            rho = hn[idx] - hb[idx] - 0.5 * wk[idx] * sign

        b = beta[idx]
        su = block.unit_scale[idx]
        r = rho * su
        if block.factor is None:
            unit = block.rows[:, idx] * su[:, None] * su[None, :]
            block.factor = _fresh_factor(unit, system.M)
        if block.factor is not None:
            d, solved = block.factor.solve(r) * su, True
        else:
            e, solved = _singular_direction(unit, r)
            d = e * su
        hd = d @ block.rows
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
                free[idx[gone]] = True
                block.leave(gone)
            hb = beta[block.order] @ block.rows
        trace.append(penalized())
        full = solved and moved and crossed is None
        if not (entered or moved):
            break  # nothing can change any more

    # the certificate is recomputed from H, never carried; its H beta is
    # where the next scale of a path starts
    block.beta, block.hb = beta.copy(), _gram_product(H, beta)
    viol = _residuals(hn - block.hb, beta, wk, nonneg)
    return LassoFit(
        beta=beta,
        converged=converged,
        sweeps=steps,
        kkt_max_violation=float(viol[live].max(initial=0.0)),
        objective_trace=np.asarray(trace),
        kappa=float(kappa),
        constraint=constraint,
        weight_scale=float(weight_scale),
        pinned=np.flatnonzero(block.dead),
        pinned_violation=float(viol[block.dead].max(initial=0.0)),
    )


def fit_path(
    system: GramSystem,
    weights: WeightVector,
    scale_grid,
    kappa: float = 1.0,
    constraint: str = "unconstrained",
    tol: float = 1e-8,
) -> list[LassoFit]:
    """Warm-started fits over a descending grid of global weight scales.

    Each scale starts from the previous scale's coefficients and the
    factor of its active block.
    """
    grid = [float(s) for s in scale_grid]
    if not grid or not all(math.isfinite(s) and s > 0 for s in grid):
        raise ValueError(f"scale grid must be positive and finite, got {grid}")
    if any(later >= earlier for later, earlier in zip(grid[1:], grid)):
        raise ValueError("scale grid must be sorted descending")
    fits: list[LassoFit] = []
    start = None
    block = _ActiveBlock(system, weights)
    for scale in grid:
        f = fit(
            system,
            weights,
            kappa=kappa,
            constraint=constraint,
            tol=tol,
            start=start,
            weight_scale=scale,
            _block=block,
        )
        fits.append(f)
        start = f.beta
    return fits
