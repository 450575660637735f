"""Machine-speed reference for normalising measured times.

The throughput of a shared virtual CPU drifts by up to 1.6x over tens of
seconds, which swamps differences between two commits. `reference()` is a
fixed mix of the kinds of work permdyn does (numpy convolution, a Python loop
over small numpy slices as in long division, small-array allocation, plain
integer arithmetic). It never changes, so its run time tracks only the
machine. A `Speedometer` samples it between operations; a latency measured
near samples that took r seconds is reported as latency * NOMINAL_S / r, the
time it would take on a machine where the reference takes NOMINAL_S.
"""

import statistics
import time

NOMINAL_S = 0.012
SAMPLE_EVERY_S = 0.5
WINDOW_S = 2.0
NEAREST = 7
SAMPLE_RUNS = 3


def reference():
    """The fixed reference work; returns its elapsed seconds."""
    # numpy is imported here, not at module level, so that importing this
    # module before the set-up timer does not take numpy's import out of it
    import numpy as np
    rng = np.random.default_rng(20180920)
    a = rng.integers(0, 2, 700).astype(np.int64)
    b = rng.integers(0, 2, 48).astype(np.int64)
    b[-1] = 1
    t0 = time.perf_counter()
    for _ in range(20):
        np.convolve(a, a) % 2
    r, m = a.copy(), len(b)
    for i in range(len(a) - m, -1, -1):
        if r[i + m - 1]:
            r[i:i + m] = (r[i:i + m] - b) % 2
    keep = []
    for i in range(3000):
        keep.append((np.array(a[:20], dtype=np.int64), [i] * 4, {"k": i}))
    s = 0
    for i in range(20000):
        s = (s * 31 + i) % 1000003
    return time.perf_counter() - t0


def speed_factor(samples=3):
    """NOMINAL_S over the median of a few reference runs made now."""
    return NOMINAL_S / statistics.median(reference() for _ in range(samples))


class Speedometer:
    """Reference samples taken between operations, and the factor near a time span."""

    def __init__(self):
        self.times = []
        self.took = []

    def sample(self):
        # the least of a few runs: the reference's own noise only adds time
        took = min(reference() for _ in range(SAMPLE_RUNS))
        self.times.append(time.perf_counter())
        self.took.append(took)

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start, end):
        """NOMINAL_S over the median of the reference samples nearest [start, end].

        Uses every sample within WINDOW_S of the span, and at least the NEAREST
        closest ones, so a long operation is judged by several samples.
        """
        def distance(t):
            return max(start - t, t - end, 0.0)
        ranked = sorted(range(len(self.times)), key=lambda i: distance(self.times[i]))
        near = [i for i in ranked if distance(self.times[i]) <= WINDOW_S]
        if len(near) < NEAREST:
            near = ranked[:NEAREST]
        return NOMINAL_S / statistics.median(self.took[i] for i in near)
