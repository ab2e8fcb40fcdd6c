"""Data-driven penalty weights for the weighted Lasso.

The weight of dictionary column j is the data-driven Bernstein deviation
bound of its noise term (``bernstein.bound_empirical`` under the paper's
numeric constants) at the union level x + log M:

    w_j = bound_empirical(vhat_j, r_j, x + log M, n, PAPER_NUMERIC)

built from two observable quantities, the empirical variance vhat_j
(average squared centered column value at the event times) and the
column half-range r_j = (max_i h_j - min_i h_j) / 2. The bound fails for
one column with probability at most c3 e^{-x - log M}, so it holds for all
M columns at once with probability at least 1 - c3 e^{-x}. A shift of a
column changes neither vhat_j nor r_j, and a constant column gets weight
0. The confidence level x > 0 is the caller's choice; log(1/0.05) is the
conventional default of the command-line tools. A batched Gram system and
dictionary (a leading replication axis) give one weight vector per
replication, shape (R, M); ``weights[r]`` is replication r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import PAPER_NUMERIC, bound_empirical, half_range, loglog_correction
from .dictionary import DictionaryMatrix
from .gram import GramSystem
from .survival import SurvivalDataset

DEFAULT_X = math.log(1.0 / 0.05)


def _union_level(x: float, M: int) -> float:
    """Level at which each of M weights is the deviation bound, so that all
    M bounds hold at once with probability at least 1 - c3 e^{-x}."""
    return x + math.log(M)


@dataclass(frozen=True)
class WeightVector:
    """Weights plus every ingredient that produced them, for reporting."""

    x: float
    n: int
    vhat: np.ndarray
    half_range: np.ndarray
    w: np.ndarray
    labels: list[str]

    @property
    def M(self) -> int:
        return self.w.shape[-1]

    @property
    def loglog(self) -> np.ndarray:
        """The log-log term inside each weight."""
        level = _union_level(self.x, self.M)
        return loglog_correction(self.vhat, self.half_range, level, self.n, PAPER_NUMERIC)

    def __getitem__(self, r: int) -> "WeightVector":
        """Replication r of a batch."""
        return WeightVector(
            self.x, self.n, self.vhat[r], self.half_range[r], self.w[r], self.labels
        )


def compute_weights(
    dataset: SurvivalDataset,
    dictionary: DictionaryMatrix,
    system: GramSystem,
    x: float = DEFAULT_X,
) -> WeightVector:
    """Weights for every dictionary column at confidence level x.

    vhat is read from ``system``, which must have been built from
    ``dictionary``. Constant columns get weight exactly 0 (and are pinned
    to 0 by the solver); for any other column the weight is strictly
    positive.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"confidence level x must be positive and finite, got {x}")
    if dictionary.M != system.M:
        raise ValueError("dictionary columns do not match the gram system")
    vhat = system.vhat.copy()
    r = half_range(dictionary.values)
    level = _union_level(x, dictionary.M)
    return WeightVector(
        x=float(x),
        n=dataset.n,
        vhat=vhat,
        half_range=r,
        w=bound_empirical(vhat, r, level, dataset.n, PAPER_NUMERIC),
        labels=list(dictionary.labels),
    )
