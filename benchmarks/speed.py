"""Reference seconds: measured time corrected for the machine's current speed.

On a shared machine the CPU's throughput for pure-Python code drifts by tens
of percent within seconds (a fixed loop took 3.0 to 5.1 s in consecutive
processes on the 2-core machine the bounds were set on), which no amount of
work per run averages out.  So the benchmark keeps timing a small fixed
piece of reference work while it runs, and scales each measured step by the
reference work's nominal time over its mean time while the step ran.

A timer signal interrupts the run every ``SAMPLE_INTERVAL_S``.  The handler
runs the reference work twice with the garbage collector paused and times
only the second run, so the sample sees the machine's speed rather than the
state the workload left in the caches or the collector; the time spent in
the handler is subtracted from every measured step.  The reference work
never runs inside the library, so no change to ``brpic`` can change it.

Run as a script, this module times an import of ``brpic.cli`` into the fresh
interpreter it runs in and prints the measured and the reference seconds.
"""

import gc
import signal
import statistics
import sys
import time
from fractions import Fraction

# The reference work (exact rational arithmetic in pure Python, like the
# library's own) and its mean time on the machine the bounds were set on
# (2 cores, Python 3.11.7) in a quiet period.
_TERMS = tuple(Fraction(a, b) for a, b in zip(range(7, 7 + 48 * 11, 11),
                                             range(5, 5 + 48 * 13, 13)))
NOMINAL_S = 0.000150
SAMPLE_INTERVAL_S = 0.025
WINDOW = 20     # samples a step too short to hold that many is scaled by


def reference_work() -> None:
    acc = Fraction(0)
    for x in _TERMS:
        acc += x * x


def reference_sample() -> float:
    """Seconds of one warm run of the reference work, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Samples the reference work on a timer; converts measured seconds
    into reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.own = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_sample())
        self.own += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return time.perf_counter(), self.own, len(self.samples)

    def seconds(self, mark) -> float:
        """Measured seconds since ``mark``, without the sampling itself."""
        t0, own0, _ = mark
        return time.perf_counter() - t0 - (self.own - own0)

    def factor(self, mark) -> float:
        """Reference seconds per measured second for the step since mark:
        the nominal time over the mean sample during the step, or over the
        latest ``WINDOW`` samples for a short step."""
        window = self.samples[min(mark[2], len(self.samples) - WINDOW):]
        if not window:
            return 1.0
        return NOMINAL_S / statistics.mean(window)


def fresh_import(src) -> tuple[float, float]:
    """(measured, reference) seconds to import brpic.cli, numpy included,
    into a fresh interpreter: the import part of set-up, repeatable within
    one run.  The child scales by reference samples of its own."""
    import subprocess
    proc = subprocess.run([sys.executable, __file__, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    measured, reference = proc.stdout.split()
    return float(measured), float(reference)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import brpic.cli  # noqa: F401
    dt = time.perf_counter() - t0
    mean = statistics.mean(reference_sample() for _ in range(WINDOW))
    print(dt, dt * NOMINAL_S / mean)
