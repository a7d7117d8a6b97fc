"""Host speed probes, timed inside each child next to its work.

The benchmark runs on two cores of a shared host whose speed switches
between about 1x and 2x slower, in stretches of a fraction of a second to
minutes.  Each child therefore measures how slow the host is while it works,
with the benchmark's own code on fixed inputs, which no change to solitonlab
can move, and reports it as a ``slowdown`` (1.0 on a quiet host).  The
benchmark divides the child's times by it: seconds at the host's quiet speed.

* ``Probe`` times an 8 ms numpy and Python kernel on the work's own thread,
  for work that runs on one thread: before solitonlab is imported, at the
  end, and between the operations of the warm corpus.
* ``Sampler`` times a short Python loop every 0.1 s on a thread of its own
  while the work runs, for work spread over a thread pool (the fit), which a
  probe on the main thread does not follow.
"""

import statistics
import threading
import time

import numpy as np

# Median times on a quiet host (2-core Intel Xeon VM, Python 3.11,
# numpy 2.4.6).  They only set the scale: a ratio of two scaled times is the
# ratio of the measured times corrected for the host's speed.
NOMINAL_S = 0.0080
LOOP_NOMINAL_S = 0.00017
REPEATS = 3
# Bound at import, before a traced child wraps numpy.einsum, so that the
# probe's own contractions never show up in the per-layer counts.
_einsum = np.einsum


class Probe:
    """Collects kernel samples and the time spent taking them."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._arrays = None

    def sample(self, repeats=REPEATS):
        """Time the kernel `repeats` times; record and return the median."""
        start = time.perf_counter()
        if self._arrays is None:
            self._arrays = [np.sin(np.arange(np.prod(shape)) * 0.7).reshape(shape)
                            for shape in ((2048, 3, 3, 3), (2048, 3, 3),
                                          (4096, 3, 3))]
            _kernel(*self._arrays)
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            _kernel(*self._arrays)
            times.append(time.perf_counter() - t)
        self.samples.append(statistics.median(times))
        self.spent_s += time.perf_counter() - start
        return self.samples[-1]

    def slowdown(self):
        return statistics.median(self.samples) / NOMINAL_S


class Sampler:
    """Samples the loop in the background for the duration of a with block."""

    PERIOD_S = 0.1

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(self.PERIOD_S):
            t = time.perf_counter()
            _loop(3000)
            self.samples.append(time.perf_counter() - t)

    def slowdown(self):
        return statistics.median(self.samples) / LOOP_NOMINAL_S


def _kernel(a, b, c):
    """Small contractions and a pure-Python loop, the mix the program's
    time is made of; under 2 MB of memory."""
    for _ in range(4):
        _einsum("nijk,nkl->nijl", a, b)
        _einsum("nijk,njk->ni", a, b)
        _einsum("nij,njk->nik", c, c)
    _loop(6000)


def _loop(n):
    total = 0.0
    for i in range(n):
        total += i * 1.5
    return total
