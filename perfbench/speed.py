"""Machine-speed correction for wall times measured on a shared machine.

On the shared 2-core machine this benchmark was written on, the speed of a
core swings between two levels about 1.9x apart, in spells of seconds to
tens of seconds, because of load from outside the machine.  The same swing
slows `perf_counter` and `process_time` alike, so neither repeats from run
to run (single base_m50 runs read 0.66 s to 1.43 s within two minutes).

The benchmark therefore samples the machine's speed every few milliseconds
with a fixed calibration kernel and rescales each stretch of wall time by
REFERENCE_KERNEL_S / (kernel time measured next to it).  The result is the
wall time the work would take on a core that runs the kernel in
REFERENCE_KERNEL_S, which is what the kernel takes on an unloaded core of
that machine.  The kernel mixes the operations the solver is made of (a
small LAPACK band solve, element-wise NumPy and interpreter work), so both
slow down by about the same factor.  The kernel is part of the benchmark,
not of the program: a change to the program moves the corrected times and
leaves the kernel alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

REFERENCE_KERNEL_S = 300e-6   # kernel time on an unloaded core (Xeon, 2 vCPU sandbox)
CALIBRATE_EVERY_S = 0.005     # wall time between speed samples
SMOOTH = 2                    # speed of a stretch = median of its sample and SMOOTH either side

_N = 256
_BAND = np.vstack([np.full(_N, -1.0), np.full(_N, 0.5), np.full(_N, 6.0),
                   np.full(_N, 0.5), np.full(_N, -1.0)])
_RHS = np.linspace(0.0, 1.0, _N)


def kernel() -> float:
    """Fixed work whose duration tracks the machine's current speed."""
    s = 0.0
    for _ in range(6):
        y = scipy.linalg.solve_banded((2, 2), _BAND, _RHS)
        z = np.exp(-y / (y + 3.67))
        s += float(z[1:] @ z[:-1])
    return s


def kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Correction factor for work done among these kernel times."""
    return REFERENCE_KERNEL_S / statistics.median(samples)


class CalibratedSteps:
    """Times every timestepper.step call and samples speed between them.

    Wall time of a run is cut into blocks of about CALIBRATE_EVERY_S, each
    ending with one kernel sample taken outside the step; the kernel's own
    time is excluded from every figure.
    """

    def __init__(self):
        self.step_s = []      # raw wall time of each completed step
        self.blocks = []      # (steps completed at block end, raw work seconds, kernel seconds)
        self._block_start = 0.0

    def start(self):
        self._block_start = time.perf_counter()

    def close_block(self, now=None):
        now = time.perf_counter() if now is None else now
        k = kernel_time()
        self.blocks.append((len(self.step_s), now - self._block_start, k))
        self._block_start = time.perf_counter()

    def wrap(self, step):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = step(*args, **kwargs)
            t1 = clock()
            self.step_s.append(t1 - t0)
            if t1 - self._block_start >= CALIBRATE_EVERY_S:
                self.close_block(t1)
            return out

        return timed

    def _block_factors(self):
        ks = [k for _, _, k in self.blocks]
        return [factor(ks[max(0, i - SMOOTH): i + SMOOTH + 1]) for i in range(len(ks))]

    def raw_run_s(self) -> float:
        return sum(work for _, work, _ in self.blocks)

    def run_s(self) -> float:
        """Corrected wall time of the run, kernel samples excluded."""
        return sum(work * f for (_, work, _), f in zip(self.blocks, self._block_factors()))

    def corrected_step_s(self) -> list:
        out = []
        start = 0
        for (end, _, _), f in zip(self.blocks, self._block_factors()):
            out += [s * f for s in self.step_s[start:end]]
            start = end
        return out
