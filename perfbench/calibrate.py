"""Reference kernel that rescales wall times to a nominal machine speed.

On a shared host the same call can take up to twice as long from one
half-minute to the next, with the process's CPU time moving just as much
as its wall time.  The benchmark therefore times a fixed kernel, which is
independent of the program and mixes the kinds of work the workloads do,
every PERIOD_S seconds while it measures, and rescales each call's wall
time by REFERENCE_S / (mean kernel time around the call).  A rescaled time
is in "reference seconds": the wall time the call would take on this host
while the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the kernel's time on the baseline host when that host is least
# loaded (it ranges from 6 to 11 ms on 2 vCPUs of an Intel Xeon at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6).  Changing it rescales every time metric, so
# it is a fixed unit, not a setting.
REFERENCE_S = 0.006

_SMALL = np.linspace(0.0, 1.0, 2048)
_LARGE = np.linspace(0.0, 1.0, 1 << 17)  # 1 MB
_PAIRS = np.exp(1j * np.linspace(0.0, 1.0, 1 << 16)).reshape(-1, 2, 2)  # 1 MB


def _kernel() -> int:
    acc = 0.0
    for i in range(8):  # small arrays: interpreter and call overhead
        acc += float((np.cos(_SMALL * (i + 1)) * np.sin(_SMALL)).sum())
    for _ in range(3):  # batched 2x2 complex products, as in the propagators
        acc += float(np.einsum("nij,njk->nik", _PAIRS[1::2], _PAIRS[0::2])[0, 0, 0].real)
    acc += float((np.cos(_LARGE) * _LARGE).sum())  # one pass over 1 MB
    size = 0
    for i in range(1000):  # float formatting, as in table output
        size += len("%.12g" % (i * 0.37 + acc))
    return size


def reference_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the kernel from a timer signal, inside calls and between them.

    The handler runs in the main thread between bytecodes, so a sample can
    interrupt a measured call; the time it held the interpreter is then
    subtracted from that call.
    """

    PERIOD_S = 0.2

    def __init__(self) -> None:
        self.samples: list = []  # (start, end, kernel seconds)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel = reference_seconds()
        self.samples.append((start, time.perf_counter(), kernel))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """(wall time of [start, end] less the samples inside it, factor).

        The factor is REFERENCE_S over the mean kernel time of the samples
        within one period of the interval.
        """
        busy = sum(b - a for a, b, _ in self.samples if start <= a and b <= end)
        near = [
            k for a, b, k in self.samples
            if b >= start - self.PERIOD_S and a <= end + self.PERIOD_S
        ]
        if not near:  # a long native call held the handler back
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[2]]
        return end - start - busy, REFERENCE_S / statistics.fmean(near)
