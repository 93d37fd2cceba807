"""Host-speed probe: a fixed pure-Python kernel timed while a workload runs.

On a shared host the speed at which Python code runs drifts by tens of
percent from one second to the next and from one minute to the next, so
a wall time alone cannot compare two commits run a few minutes apart.
The benchmark therefore times this kernel, which never changes with the
program, close in time to the work it measures, and scales each wall
time to the speed at which the kernel takes REFERENCE_S:

    normalized = wall * REFERENCE_S * mean(1 / kernel_s)

The mean of 1 / kernel_s over samples taken at equal wall-time intervals
is the host's average speed over the measured interval, so a program
change that does less work still lowers the normalized time in
proportion, while a slower host does not raise it.  The kernel mixes
the operations the package spends its time in: Fraction arithmetic,
small tuples as dict keys, and dict reads and writes.
"""

import signal
import time
from fractions import Fraction

# Kernel time, in seconds, on the host speed normalized times refer to:
# about its median on a 2-vCPU Intel Xeon VM (Python 3.11).
REFERENCE_S = 0.0007
# While a CLI invocation runs, the kernel is timed every SAMPLE_EVERY_S
# seconds of wall time from a SIGALRM handler.
SAMPLE_EVERY_S = 0.05
# Kernel timings taken just before each spawn and just after the import.
SETUP_PROBES = 10

_STEPS = [(Fraction(i + 2, i + 1), Fraction(1, i + 3), (i % 7, i % 5)) for i in range(40)]


def kernel():
    acc = {}
    x = Fraction(1, 3)
    for _ in range(2):
        for ratio, shift, key in _STEPS:
            x = x * ratio - shift
            acc[key] = acc.get(key, x) + x
    return acc


def sample(times):
    """Time the kernel `times` times; returns the list of durations."""
    out = []
    for _ in range(times):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def speed(samples):
    """Mean host speed over the samples, in units of the reference speed."""
    return REFERENCE_S * sum(1.0 / s for s in samples) / len(samples)


class Sampler:
    """Times the kernel on a timer signal while the main thread works.

    `samples` holds the kernel times; `spent_s` the wall time the
    handler took, to be taken out of the measured interval.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += time.perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
