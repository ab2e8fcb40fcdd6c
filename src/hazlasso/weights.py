"""Data-driven penalty weights for the weighted Lasso.

The weight of dictionary column j is the data-driven Bernstein deviation
bound of its noise term (``bernstein.bound_empirical`` under the paper's
numeric constants) at the union level x + log M:

    w_j = bound_empirical(vhat_j, r_j, x + log M, n, PAPER_NUMERIC)

built from two observable quantities, the empirical variance vhat_j
(average squared centered column value at the event times) and the
column half-range r_j = (max_i h_j - min_i h_j) / 2. Both live on the
Gram system, their one home: vhat_j from ``build_gram``'s centered pass
that gives H and hn, r_j from the dictionary when it checks its values.
So does n, and the weights need nothing but the system and x.
``compute_weights`` returns the weights as a plain array, and
``weight_loglog`` the log-log term inside each, both at the level that
``_union_level`` owns. The bound fails for one column with probability
at most c3 e^{-x - log M}, so it holds for all M columns at once with
probability at least 1 - c3 e^{-x}. A shift of a column changes neither
vhat_j nor r_j, and a constant column gets weight 0. The confidence
level x > 0 is the caller's choice; log(1/0.05) is the conventional
default of the command-line tools. A batched Gram system (a leading
replication axis) gives one weight vector per replication, shape (R, M),
and ``weights[r]`` is replication r.
"""

from __future__ import annotations

import math

import numpy as np

from .bernstein import PAPER_NUMERIC, bound_empirical, loglog_correction
from .gram import GramSystem

DEFAULT_X = math.log(1.0 / 0.05)


def _union_level(x: float, M: int) -> float:
    """Level at which each of M weights is the deviation bound, so that all
    M bounds hold at once with probability at least 1 - c3 e^{-x}."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"confidence level x must be positive and finite, got {x}")
    return x + math.log(M)


def compute_weights(system: GramSystem, x: float = DEFAULT_X) -> np.ndarray:
    """Weights for every column of ``system`` at confidence level x, shape
    (M,), or (R, M) for a batch.

    vhat, the half-ranges and n are all read from ``system``. Constant
    columns get weight exactly 0 (and are pinned to 0 by the solver); for
    any other column the weight is strictly positive.
    """
    return bernstein_weights(system.vhat, system.half_range, x, system.n)


def weight_loglog(system: GramSystem, x: float = DEFAULT_X) -> np.ndarray:
    """The log-log term inside each weight of ``compute_weights(system, x)``."""
    level = _union_level(x, system.M)
    return loglog_correction(system.vhat, system.half_range, level, system.n, PAPER_NUMERIC)


def bernstein_weights(vhat: np.ndarray, r: np.ndarray, x: float, n: int) -> np.ndarray:
    """The weights w_j of columns with empirical variances ``vhat`` and
    half-ranges ``r``, shape (..., M), on n records at confidence level x."""
    return bound_empirical(vhat, r, _union_level(x, vhat.shape[-1]), n, PAPER_NUMERIC)
