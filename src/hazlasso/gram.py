"""Risk-set-centered least-squares system for additive hazard fits.

The partial least-squares contrast for a coefficient vector b is

    R_n(b) = b' H b - 2 b' hn,

where H is the Gram matrix of the dictionary columns under the empirical
inner product <f, g>_n = (1/n) sum_i int (f_i - fbar_Y)(g_i - gbar_Y) Y_i dt
and hn collects the centered dictionary values read at the observed event
times (Lin & Ying 1994). Every integrand is a step function on the
risk-set timeline, so H and hn are exact finite sums; the timeline's
``cross_moment`` and ``event_moments`` evaluate them from one
``centered`` pass, and this module only assembles and reports the system.
H is one symmetric product a'a of the dictionary's weighted Welford
increments, so it is exactly symmetric. The system also carries the two
column statistics the penalty weights read, vhat from the same pass and
the half-range the dictionary took when it was checked, so the weights
need nothing else.

A batch of datasets (a leading replication axis on the dataset, the
dictionary values and the timeline) gives a batch of systems: H of shape
(R, M, M), hn, vhat and half_range of shape (R, M), and ``system[r]`` is
replication r. A single dataset is a batch of one without that axis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dictionary import DictionaryMatrix
from .survival import RiskSetTimeline, SurvivalDataset, build_timeline


@dataclass(frozen=True)
class GramSystem:
    """Gram matrix H, event vector hn and vhat on the dataset's timeline.

    ``vhat[j]`` is the empirical variance of column j, (1/n) times the sum
    of its squared event deviations, and ``half_range[j]`` is the
    dictionary's half-range of column j: the two column statistics the
    penalty weights read. The risk-set means are the timeline's
    (``timeline.means``).
    """

    matrix: np.ndarray
    vector: np.ndarray
    timeline: RiskSetTimeline
    labels: list[str]
    vhat: np.ndarray
    half_range: np.ndarray

    @property
    def M(self) -> int:
        return self.matrix.shape[-1]

    @property
    def n(self) -> int:
        return self.timeline.n

    def __getitem__(self, r: int) -> "GramSystem":
        """Replication r of a batch."""
        return GramSystem(
            self.matrix[r], self.vector[r], self.timeline[r], self.labels, self.vhat[r],
            self.half_range[r],
        )


def build_gram(
    dataset: SurvivalDataset,
    dictionary: DictionaryMatrix,
    timeline: RiskSetTimeline | None = None,
) -> GramSystem:
    """Assemble H and hn exactly from the timeline's centered moments.

    H is the centered at-risk moment of the dictionary with itself: after
    the global column means are subtracted, one symmetric product a'a of
    the (n, M) Welford increments (BLAS ``syrk``, half the work of a
    general n x M x M product), so the cost is O(n M^2) with no loop over
    the timeline, and H is exactly symmetric. hn averages the centered
    dictionary rows at the event times (left-continuous risk-set means),
    and vhat averages their squares. H, hn and vhat all come from one
    centered prefix pass over the dictionary, whose running sums are the
    one (n, M) array alive besides the dictionary: the centered rows and
    the event deviations are made a block of rows at a time, and the
    increments of H are written over the running sums once hn and vhat
    have read them. The half-range is the dictionary's own, not taken
    again.
    """
    tl = timeline if timeline is not None else build_timeline(dataset)
    phi = dictionary.values
    if phi.shape[:-1] != tl.end_interval.shape:
        raise ValueError("dictionary rows do not match the dataset")
    centered = tl.centered(phi)  # one prefix pass serves H, hn and vhat
    # hn and vhat first: the increments of H take the running sums' place
    vector, vhat = tl.event_moments(centered)
    return GramSystem(
        matrix=tl.cross_moment(centered, centered),
        vector=vector / tl.n,
        timeline=tl,
        labels=list(dictionary.labels),
        vhat=vhat / tl.n,
        half_range=dictionary.half_range,
    )


def empirical_norm_sq(system: GramSystem, beta: np.ndarray) -> float:
    """Squared empirical norm of the dictionary combination, b' H b."""
    b = np.asarray(beta, dtype=float)
    return float(b @ system.matrix @ b)


def empirical_norm_sq_fn(timeline: RiskSetTimeline, values: np.ndarray) -> float:
    """Direct-integration squared norm of arbitrary per-record values.

    Cross-checks the quadratic path: for values = dictionary @ beta the two
    agree up to roundoff. A batched timeline and values give one norm per
    replication.
    """
    c = timeline.centered(values)
    return timeline.cross_moment(c, c)[..., 0, 0][()]


def objective(
    system: GramSystem,
    beta: np.ndarray,
    weights: np.ndarray | None = None,
    kappa: float = 1.0,
) -> float:
    """Penalized contrast R_n(b) + kappa * sum_j w_j |b_j| (penalty optional)."""
    b = np.asarray(beta, dtype=float)
    value = float(b @ system.matrix @ b - 2.0 * b @ system.vector)
    if weights is not None:
        value += kappa * float(np.abs(b) @ np.asarray(weights, dtype=float))
    return value


def dump_gram(system: GramSystem, path) -> None:
    """Write H and hn as one CSV (row j: label, H[j, :], hn[j])."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + list(system.labels) + ["hn"])
        for j, label in enumerate(system.labels):
            row = [repr(float(v)) for v in system.matrix[j]]
            writer.writerow([label] + row + [repr(float(system.vector[j]))])
