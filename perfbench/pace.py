"""Host-speed probe: scales each CLI call's time to a fixed host speed.

The 2-vCPU hosts this benchmark runs on drift in speed by 15-30% over
seconds to minutes, on their own, and interpreter-bound code drifts most:
the same ``search`` pass took 5 s and 9 s a minute apart in one process.
Medians over a run cannot remove drift on that scale.  So after every
call, :class:`Pace` times a fixed mix of kernels that do not touch the
package (interpreter arithmetic, dict and str work, small and medium
numpy ``eigh``).  A short call's slowdown is the geometric mean, over the
kernels, of their mean time in the probes just before and just after it,
divided by :data:`NOMINAL_S`.  Its scaled time is its time divided by
that slowdown: the seconds it would take at the host speed at which the
kernels take ``NOMINAL_S``.

A call longer than :data:`SCALE_MAX_S` keeps its raw time.  It averages
the drift over its own length, and probes at its two ends do not stand
for the host speed in between: on ``rovib``, whose calls last 6-13 s,
and on a ``scan`` made of one 1 s and one 4 s call, scaling widened the
run-to-run spread of the pass time.  Over ten seeds, on ``search``,
whose calls last 2-200 ms, it cut that spread from 0.08-0.21 to
0.03-0.06 of the median, and on ``scan`` split into calls of 0.1-0.3 s,
from 0.17-0.35 to 0.03-0.11.  A fresh interpreter's set-up (0.6-1.0 s)
is scaled too.

The probe runs outside the timed calls, so raw times are unaffected.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

SHARE = 0.05          # probe time per second of timed call
SCALE_MAX_S = 1.5     # longest call whose time is scaled
WARMUP_UNITS = 10     # probes run and discarded before the first call

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64))
_SMALL = _SMALL + _SMALL.T
_SMALL_V = _rng.standard_normal((64, 64))
_MEDIUM = _rng.standard_normal((150, 150))
_MEDIUM = _MEDIUM + _MEDIUM.T


def _arith() -> int:
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


def _objects() -> list[float]:
    d: dict[str, tuple[int, float]] = {}
    acc = []
    for i in range(1000):
        d[str(i)] = (i, i * 0.5)
        acc.append(sum(d[str(i)]))
    return sorted(acc)[:3]


def _small_eigh() -> None:
    for _ in range(2):
        _, v = np.linalg.eigh(_SMALL)
        x = v.T @ _SMALL_V @ v
        np.einsum("ij,ij->i", x, x)


def _medium_eigh() -> None:
    np.linalg.eigh(_MEDIUM)


KERNELS = (_arith, _objects, _small_eigh, _medium_eigh)
# median time of each kernel on the reference host (2 vCPUs, Intel Xeon,
# Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31, default threads)
NOMINAL_S = (1.17e-3, 1.12e-3, 1.78e-3, 3.79e-3)
UNIT_S = sum(NOMINAL_S)


def slowdown(before: list[list[float]], after: list[list[float]],
             nominal=NOMINAL_S) -> float:
    """Geometric mean over kernels of mean(before + after) / nominal."""
    logs = [math.log(statistics.fmean(b + a) / n) for b, a, n in zip(before, after, nominal)]
    return math.exp(statistics.fmean(logs))


class Pace:
    """Times the kernels between calls; :meth:`scale` turns a call's time into scaled time."""

    def __init__(self, kernels=KERNELS, nominal=NOMINAL_S, unit_s: float = UNIT_S):
        self.kernels = kernels
        self.nominal = nominal
        self.unit_s = unit_s
        self.factors: list[float] = []
        self.probe(WARMUP_UNITS)
        self.last = self.probe(WARMUP_UNITS)

    def probe(self, units: int) -> list[list[float]]:
        """Time every kernel ``units`` times, interleaved; one list of times per kernel."""
        times: list[list[float]] = [[] for _ in self.kernels]
        for _ in range(units):
            for kernel, out in zip(self.kernels, times):
                t = time.perf_counter()
                kernel()
                out.append(time.perf_counter() - t)
        return times

    def scale(self, seconds: float) -> float:
        """Probe after a call of ``seconds`` and return its scaled time."""
        now = self.probe(max(1, round(SHARE * min(seconds, SCALE_MAX_S) / self.unit_s)))
        factor = slowdown(self.last, now, self.nominal)
        self.last = now
        self.factors.append(factor)
        return seconds / factor if seconds <= SCALE_MAX_S else seconds
