"""A fixed pure-Python reference loop that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x over seconds to minutes, with CPU time equal to wall time, so neither a
longer run nor CPU time removes the swing.  The timed phase therefore runs
``reference()`` between items and scales each item's latency by
``REFERENCE_S / (mean reference time around it)``: every time metric reads as it
would on a host where the reference loop takes ``REFERENCE_S``.

The loop is code of its own and imports nothing from the package, so no
change to the package can move it.
"""

import bisect
import statistics

# Scale of every timed metric: the reference loop's duration, in seconds, on
# the host speed the reported times are expressed in (about its fast phase
# on a 2-vCPU Xeon).
REFERENCE_S = 3.0e-4

# Reference samples within this many seconds of an item set its local speed.
WINDOW_S = 1.0
# Seconds between two samples taken by Speed.tick; one sample costs ~0.3 ms.
EVERY_S = 0.01

P = 101
N_ROWS, N_COLS = 20, 24


def reference():
    """Row-reduce a fixed dense 20 x 24 matrix mod 101; returns its rank so
    nothing is skipped.  Of the loops tried (small-object arithmetic through
    dunder methods, dict-of-coefficients products, dense and sparse row
    reduction, list allocation), this one's duration tracked the host speed
    seen by all four workloads best."""
    rows = [[(31 * i + 17 * j + 5) % P for j in range(N_COLS)] for i in range(N_ROWS)]
    rank = 0
    for col in range(N_COLS):
        piv = next((i for i in range(rank, N_ROWS) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], P - 2, P)
        rows[rank] = [x * inv % P for x in rows[rank]]
        for i in range(N_ROWS):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Speed:
    """Reference samples taken during a run, and the scale they give.

    The slow phases of the host come as time slices taken away, which a short
    sample either misses or catches whole, so the local speed is the mean of
    the samples near an item, not their median."""

    def __init__(self, clock):
        self.clock = clock
        self.times = []  # sample midpoints
        self.durations = []

    def sample(self):
        t0 = self.clock()
        reference()
        t1 = self.clock()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def tick(self):
        """Take a sample if EVERY_S has passed since the last one."""
        if not self.times or self.clock() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, t):
        """REFERENCE_S over the mean sample duration within WINDOW_S of t."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return REFERENCE_S / statistics.fmean(window)
