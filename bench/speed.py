"""Machine-speed sampler: reports timings at a nominal machine speed.

The CPUs of a shared machine slow down and recover over seconds to minutes,
as other tenants come and go; one 40-epoch `fit` pipeline took 1.4 s or
2.5 s a minute apart. Every SAMPLE_EVERY_S seconds a SIGALRM handler runs a
fixed calibration kernel, shaped like the workloads' inner loops (small
matrix products and ufuncs, no tdcae code), and records how long it took.
An interval's wall time times KERNEL_NOMINAL_S over the mean kernel time
sampled inside it is the interval's time on a machine where the kernel
takes KERNEL_NOMINAL_S. In a 70-second trial on a shared 2-vCPU Xeon VM,
that cut the pipeline-to-pipeline variation of `fit` from 16% to 4%, with
no visible bias between quiet and busy periods; the median kernel time did
not (10%): a pipeline's time integrates the slowdown, so the mean tracks it.
"""

from __future__ import annotations

import gc
import signal
from array import array
from time import perf_counter

import numpy as np

SAMPLE_EVERY_S = 0.05
KERNEL_NOMINAL_S = 150e-6  # about the kernel's time on a quiet 2-vCPU Xeon VM

_A = np.linspace(-1.0, 1.0, 256).reshape(32, 8)
_W = np.linspace(-0.5, 0.5, 64).reshape(8, 8)


def kernel() -> None:
    for _ in range(20):
        h = np.tanh(_A @ _W.T + 0.1)
        (h * (1.0 - h * h)).T @ _A


class SpeedSampler:
    """Context manager: samples the kernel's time while it is active."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _tick(self, signum, frame) -> None:
        # A collection the program's garbage is due would land on the kernel.
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        kernel()
        self.at.append(started)
        self.took.append(perf_counter() - started)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """KERNEL_NOMINAL_S over the mean kernel time sampled in [start, end].

        An interval too short to hold a sample uses the three samples
        nearest to its middle.
        """
        at, took = self._samples()
        inside = (at >= start) & (at <= end)
        if not inside.any():
            inside = np.argsort(np.abs(at - (start + end) / 2))[:3]
        return KERNEL_NOMINAL_S / float(took[inside].mean())

    def mean_kernel_s(self) -> float:
        return float(self._samples()[1].mean())

    def _samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the sample times and kernel times.

        SIGALRM is blocked while copying: a tick that appended to an array
        whose buffer is exported would raise BufferError in the caller.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return (np.array(self.at, dtype=np.float64),
                    np.array(self.took, dtype=np.float64))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
