"""Machine-speed probe: every reported time is rescaled to a nominal speed.

The reference machine is a shared VM whose speed drifts by up to 2x within
minutes, and switches between a fast and a slow state every few seconds;
the program and a fixed reference kernel slow down nearly together (over a
1.0-1.9x slowdown of the kernel, the jobs' measured times grow as its
power 1.0-1.1).  So every
timed job runs with a probe armed: a SIGALRM handler times `kernel()` every
PROBE_INTERVAL_S of wall time (and once right before and after the job),
and its time is taken out of the job's clocks (`clock`, `cpu_clock`).  A
job's time in reference seconds is

    t_ref = t * mean(REF_NOMINAL_S / r_i)

over the kernel timings r_i around and inside the job: the time the job
would take where the kernel takes REF_NOMINAL_S, its time on the reference
machine in its fast state.  The kernel mixes what the program does:
Python-level calls on shape-(4,) arrays, vectorized math on a few thousand
points, and plain interpreter arithmetic.  It is independent of `earring`,
so a change to the program moves t_ref, and the machine's drift does not.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REF_NOMINAL_S = 2.0e-3
PROBE_INTERVAL_S = 0.1

_A = np.array([0.5, 0.1, 0.2, 0.3])
_B = np.array([0.3, -0.2, 0.4, 0.1])
_X = np.linspace(0.0, 3.0, 4096)


def kernel():
    """The fixed reference work, about 2-4 ms on the reference machine."""
    a = _A
    for _ in range(40):
        w = a[0] * _B[0] - a[1:] @ _B[1:]
        v = a[0] * _B[1:] + _B[0] * a[1:] + np.cross(a[1:], _B[1:])
        a = np.concatenate(([w], v))
        a = a / np.linalg.norm(a)
    x = _X
    for _ in range(6):
        x = x + 1e-9 * (np.sin(x) * np.cos(x + 0.3) + np.sqrt(x + 1.0))
    s = 0.0
    for i in range(3000):
        s += (i % 7) * 0.5
    return s


def factor(samples):
    """Speed factor mean(REF_NOMINAL_S / r) of kernel timings r."""
    return statistics.fmean(REF_NOMINAL_S / max(r, 1e-9) for r in samples)


class Probe:
    """Kernel timings, and clocks that leave the kernel's own time out."""

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval = interval
        self.wall = []
        self.cpu = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._armed = False

    def sample(self):
        if self._busy:
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        dw, dc = time.perf_counter() - w0, time.process_time() - c0
        self.wall.append(dw)
        self.cpu.append(dc)
        self.spent_wall += dw
        self.spent_cpu += dc
        self._busy = False

    def clock(self):
        return time.perf_counter() - self.spent_wall

    def cpu_clock(self):
        return time.process_time() - self.spent_cpu

    @contextlib.contextmanager
    def armed(self):
        """Sample every `interval` seconds of wall time inside the block.

        The handler stays installed afterwards and ignores a late signal, so
        a signal raised just before the timer stops is harmless.
        """
        if signal.getsignal(signal.SIGALRM) != self._on_alarm:
            signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._armed = False

    def _on_alarm(self, signum, frame):
        if self._armed:
            self.sample()

    def factors(self, start):
        """(wall, cpu) speed factors of the samples taken since index `start`."""
        return factor(self.wall[start:]), factor(self.cpu[start:])
