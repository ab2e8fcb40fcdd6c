"""Fixed reference kernels, timed between operations to gauge machine speed.

On a shared machine the same code runs up to ~1.8x slower or faster for
seconds at a time, and the mix of fast and slow spells drifts over
minutes, so two runs of the same code can differ by 15-20% in mean
operation time. The kernels here are code of the benchmark, never of the
program. Timed in short units interleaved with the operations, they
sample the same spells, and dividing by their mean unit time removes the
drift shared by both.

Kinds of code slow by different factors: over one 90 s trace, with the
interpreter-bound ``sweep`` as base, CSV parsing slowed 0.83 times as
much (in log time) and the cache-bound ``accumulate`` 0.63 times. So
each workload's reference is made of the kernels that resemble its own
hot code (see ``workloads.REFERENCE``).
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20110622)
_A = _RNG.standard_normal((200, 200))
_H = _A @ _A.T / 200 + np.eye(200)
_CHUNK = _RNG.standard_normal((4, 250))
_SUMS = _RNG.standard_normal((40, 250))
_TEXT = "\n".join(",".join(repr(float(v)) for v in row) for row in _RNG.standard_normal((120, 250)))


def sweep() -> None:
    """Interpreter-bound: a cyclic coordinate sweep with numpy scalar
    indexing and a vector update per changed coordinate."""
    beta, g = np.zeros(200), np.zeros(200)
    for _ in range(40):
        for j in range(200):
            c = _H[j, j] - (g[j] - _H[j, j] * beta[j])
            new = 0.5 * c / _H[j, j] if c > 0.3 else 0.0
            delta = new - beta[j]
            if delta != 0.0:
                beta[j] = new
                g += delta * _H[j]


def parse() -> None:
    """CSV text to floats with the csv module, as a dataset loader does."""
    for row in csv.reader(io.StringIO(_TEXT)):
        [float(c) for c in row]


def accumulate() -> None:
    """Cache-bound: rank updates and outer products into 250x250 matrices."""
    acc, second = np.zeros((250, 250)), np.zeros((250, 250))
    for k in range(len(_SUMS)):
        second += _CHUNK.T @ _CHUNK
        acc += 0.3 * (second - np.outer(_SUMS[k], _SUMS[k]) / 7.0)


KERNELS = {"sweep": sweep, "parse": parse, "accumulate": accumulate}
# Nominal seconds of each kernel, about its time on the machine the
# benchmark was built on (a 2-vCPU KVM guest on a Xeon host). Scaled times
# read as seconds on a machine where the kernels take this long.
NOMINAL_S = {"sweep": 0.018, "parse": 0.02, "accumulate": 0.013}


class Reference:
    """Runs reference units after each operation, for a share of its time.

    One unit runs each of the named kernels once.
    """

    def __init__(self, kernels, share: float):
        self.kernels = [KERNELS[name] for name in kernels]
        self.nominal = sum(NOMINAL_S[name] for name in kernels)
        self.share = share
        self.times: list[float] = []
        self.unit()  # warm-up, untimed
        self.times.clear()

    def unit(self) -> None:
        start = perf_counter()
        for kernel in self.kernels:
            kernel()
        self.times.append(perf_counter() - start)

    def after(self, op_seconds: float) -> None:
        """At least one unit, and units for ``share`` of the operation's time."""
        spent, goal = 0.0, self.share * op_seconds
        while True:
            self.unit()
            spent += self.times[-1]
            if spent >= goal:
                return

    def scale(self) -> float:
        """Factor taking this run's wall times to nominal seconds."""
        return self.nominal * len(self.times) / sum(self.times)
