"""The machine's current speed, sampled while a timed pass runs.

On a shared VM the speed of a core drifts by tens of percent over seconds to
minutes, whatever the program does.  A fixed reference pass, which no code of
casimir_lab touches, is timed every INTERVAL_S seconds from a SIGALRM handler
while the workload runs.  Its parts mirror the workloads' mix: 3-D real FFTs
of a 32^3 array, elementwise numpy arithmetic on a 3 x 32^3 array, an
interpreted float loop and an interpreted ODE-style loop that calls numpy on
scalars and stores into a small array.

A stretch of the workload between two samples is rescaled by REF_NOMINAL_S
over the (rolling-median) reference time next to it, so a normalized time
reads as the seconds the stretch would take on a machine where one reference
pass takes REF_NOMINAL_S.  Time spent in the handler is left out of both the
raw and the normalized times.  On a 2-vCPU Xeon VM, over 60 s of repeated
rattleback suite runs (the same work each time), the spread of the unit
times (quartile distance over median) was 0.36 raw and 0.05-0.06
normalized; for 1-form transport, euler right-hand sides and foliation
solves, the range of 10 block medians fell from 0.3-0.5 raw to 0.03-0.09.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# About one reference pass on a 2-vCPU Xeon VM in a fast spell, in seconds.
REF_NOMINAL_S = 1.3e-3
INTERVAL_S = 0.1
SMOOTH = 3  # samples in the rolling median

# Inputs and preallocated outputs: a pass allocates no arrays, so page
# faults of fresh memory do not enter the reference time.
_FFT_IN = np.random.default_rng(0).standard_normal((32, 32, 32))
_FFT_HAT = np.empty((32, 32, 17), complex)
_FFT_OUT = np.empty((32, 32, 32))
_EW_IN = np.random.default_rng(1).standard_normal((3, 32, 32, 32))
_EW_OUT = np.empty_like(_EW_IN)
_ROWS = np.zeros((16, 2))


def reference_pass():
    np.fft.rfftn(_FFT_IN, out=_FFT_HAT)
    np.fft.irfftn(_FFT_HAT, _FFT_IN.shape, axes=(0, 1, 2), out=_FFT_OUT)
    for _ in range(2):
        np.multiply(_EW_IN, 1.5, out=_EW_OUT)
        np.multiply(_EW_OUT, 1.1, out=_EW_OUT)
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    x, y = 0.3, 0.1
    for i in range(150):
        x, y = 3.7 * x * (1.0 - x), 0.5 * (y + x * x)
        if not (np.isfinite(x) and np.isfinite(y)):
            break
        if i % 5 == 0:
            _ROWS[i % 16, 0] = x
            _ROWS[i % 16, 1] = y
    return s + x + y


def timed_reference(repeats):
    """Median time of ``repeats`` reference passes, run now."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        t0 = clock()
        reference_pass()
        times.append(clock() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Within the ``with`` block, SIGALRM runs a reference pass every
    INTERVAL_S seconds and records its start and end."""

    def __init__(self):
        self.starts, self.ends = [], []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_pass()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        timed_reference(5)  # warm the reference's caches and code paths
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _smoothed(self):
        d = [e - s for s, e in zip(self.starts, self.ends)]
        h = SMOOTH // 2
        return [statistics.median(d[max(0, k - h):k + h + 1]) for k in range(len(d))]

    def times(self, spans):
        """(raw, normalized) seconds of each ``(t0, t1)`` span, handler time
        excluded.  A stretch of the span is scaled by the reference time of
        the first sample after it (the last sample for the tail)."""
        if not self.starts:
            raise RuntimeError("no reference samples were taken")
        ref = self._smoothed()
        last = len(ref) - 1
        out = []
        for t0, t1 in spans:
            raw = norm = 0.0
            k = bisect.bisect_left(self.starts, t0)
            at = t0
            while k <= last and self.starts[k] < t1:
                raw += self.starts[k] - at
                norm += (self.starts[k] - at) * REF_NOMINAL_S / ref[k]
                at = self.ends[k]
                k += 1
            raw += t1 - at
            norm += (t1 - at) * REF_NOMINAL_S / ref[min(k, last)]
            out.append((raw, norm))
        return out
