"""Data-driven penalty weights for the weighted Lasso.

Each dictionary column gets a weight built from two observable quantities:
the empirical variance vhat_j (average squared centered column value at
the event times) and the column sup norm. The weight is

    w_j = c1 * sqrt((x + log M + lhat_j) / n * vhat_j)
        + c2 * (x + 1 + log M + lhat_j) / n * sup_j

with c1 = 2 sqrt(2), c2 = 4 sqrt(14/3) + 2/3 and the iterated-logarithm
correction

    lhat_j = 2 * loglog((6 e n vhat_j + 56 x sup_j^2) / (24 x sup_j^2) or e)

clamped so the argument never drops below e. The confidence level x > 0
is the caller's choice; log(1/0.05) is the conventional default of the
command-line tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import DictionaryMatrix, sup_norms
from .gram import GramSystem
from .survival import SurvivalDataset

C1 = 2.0 * math.sqrt(2.0)
C2 = 4.0 * math.sqrt(14.0 / 3.0) + 2.0 / 3.0
DEFAULT_X = math.log(1.0 / 0.05)


@dataclass(frozen=True)
class WeightVector:
    """Weights plus every ingredient that produced them, for reporting."""

    x: float
    n: int
    vhat: np.ndarray
    sup: np.ndarray
    loglog: np.ndarray
    w: np.ndarray
    labels: list[str]
    c1: float = C1
    c2: float = C2

    @property
    def M(self) -> int:
        return len(self.w)


def loglog_term(vhat, sup, x: float, n: int):
    """Iterated-logarithm correction, elementwise; 0 for all-zero columns."""
    if x <= 0:
        raise ValueError("confidence level x must be positive")
    scalar = np.isscalar(vhat) and np.isscalar(sup)
    vh, sp = np.broadcast_arrays(
        np.atleast_1d(np.asarray(vhat, dtype=float)),
        np.atleast_1d(np.asarray(sup, dtype=float)),
    )
    out = np.zeros(vh.shape)
    live = sp > 0
    arg = np.maximum(
        (6.0 * math.e * n * vh[live] + 56.0 * x * sp[live] ** 2) / (24.0 * x * sp[live] ** 2),
        math.e,
    )
    out[live] = 2.0 * np.log(np.log(arg))
    return float(out[0]) if scalar else out


def compute_weights(
    dataset: SurvivalDataset,
    dictionary: DictionaryMatrix,
    system: GramSystem,
    x: float = DEFAULT_X,
) -> WeightVector:
    """Weights for every dictionary column at confidence level x.

    vhat is read from ``system``, which must have been built from
    ``dictionary``. All-zero columns get weight exactly 0 (and are pinned
    to 0 by the solver); for any live column the weight is strictly
    positive.
    """
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"confidence level x must be positive and finite, got {x}")
    if dictionary.M != system.M:
        raise ValueError("dictionary columns do not match the gram system")
    n, M = dataset.n, dictionary.M
    vhat = system.vhat.copy()
    sup = sup_norms(dictionary)
    ll = np.atleast_1d(loglog_term(vhat, sup, x, n))
    logM = math.log(M)
    w = C1 * np.sqrt((x + logM + ll) / n * vhat) + C2 * (x + 1.0 + logM + ll) / n * sup
    return WeightVector(
        x=float(x), n=n, vhat=vhat, sup=sup, loglog=ll, w=w, labels=list(dictionary.labels)
    )
