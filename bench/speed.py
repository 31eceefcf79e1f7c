"""Machine-speed reference: a fixed kernel timed between the benchmark's calls.

On a shared 2-core host the speed of the same code drifts by up to 1.7x
over seconds to minutes (measured: one evaluate() call took 18 ms in some
seconds and 37 ms in others, with no other process running). A raw median
over a run of 20-40 s inherits that drift and differs from run to run by
15-25%.

The kernel below does the same kind of work as the analytical pipeline
(many numpy calls on tiny arrays from Python) and does not touch the
package. The ratio of a call's time to the kernel's time measured near it
is steady where both raw times move together. `normalize` turns a raw
duration into milliseconds at the kernel's nominal speed:
raw * NOMINAL_S / (median kernel time near the call).

`ir_num` calls get a second kernel, `sort_kernel`. They spend about three
quarters of their time in one generic comparison sort (``np.unique`` over the
rows of a boolean array, in ``nnls_batch``), large-array work that the
first kernel tracks poorly. `sort_kernel` does the same numpy operation on
fixed data and is timed in bursts right before and right after each call.
Measured on the 2-core host, with 1-s ``ir_num`` calls repeated for 100 s,
this cut the per-call spread (IQR/median) from 0.10 raw to 0.04.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# A round figure near the kernel's median on the machine the baseline was
# recorded on; it only fixes the scale of normalized times.
NOMINAL_S = 0.002
# Take a sample at least this often, and BURST samples after every call at
# least this long: one sample alone is too noisy to stand for seconds of work.
INTERVAL_S = 0.25
BURST = 3
# Samples within this distance of a call describe its speed; a long call
# reaches as far as its own duration, since none are taken during it.
WINDOW_S = 0.5

_A = np.array([[4.0, 1.0, 0.0, 1.0], [1.0, 5.0, 1.0, 0.0],
               [0.0, 1.0, 6.0, 1.0], [1.0, 0.0, 1.0, 7.0]])
_B = np.arange(1.0, 5.0)


# sort_kernel: fixed random boolean rows, about 0.1 s per call on that host
SORT_NOMINAL_S = 0.1
SORT_ROWS = np.random.default_rng(20030158).random((1 << 16, 3)) < 0.5
# samples this close to an ir_num call are its own before/after bursts
SORT_WINDOW_S = 1.0


def reference_kernel() -> float:
    acc = 0.0
    for _ in range(120):
        x = np.linalg.solve(_A, _B)
        acc += float(x @ x) + float(np.abs(_A - x[:, None]).max())
        acc += sum(j * j % 7 for j in range(40))
    return acc


def sort_kernel() -> int:
    return np.unique(SORT_ROWS, axis=0, return_inverse=True)[0].shape[0]


class Speedometer:
    """Timed samples of one kernel, read back as the speed near a call.

    With `stretch`, a call reaches as far as its own duration for samples
    (none are taken during it); without, only `window` seconds either side.
    """

    def __init__(self, kernel=reference_kernel, nominal: float = NOMINAL_S,
                 window: float = WINDOW_S, stretch: bool = True):
        self.kernel = kernel
        self.nominal = nominal
        self.window = window
        self.stretch = stretch
        self.stamps: list[float] = []  # sample midpoints, increasing
        self.times: list[float] = []   # kernel seconds
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            self.kernel()
            self._last = perf_counter()
            self.stamps.append(0.5 * (t0 + self._last))
            self.times.append(self._last - t0)

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def around(self, t0: float, t1: float) -> float:
        """Median kernel time of the samples near [t0, t1] (the nearest if none)."""
        reach = max(self.window, t1 - t0) if self.stretch else self.window
        lo = bisect.bisect_left(self.stamps, t0 - reach)
        hi = bisect.bisect_right(self.stamps, t1 + reach)
        if hi > lo:
            return statistics.median(self.times[lo:hi])
        i = min(range(len(self.stamps)), key=lambda k: min(abs(self.stamps[k] - t0),
                                                           abs(self.stamps[k] - t1)))
        return self.times[i]

    def normalize(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.nominal / self.around(t0, t1)
