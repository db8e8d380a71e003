"""Host-speed reference: a fixed stdlib loop timed throughout each run.

On a shared virtual machine each virtual CPU changes speed on its own,
at times by a factor of two within a second, so raw wall time is not
steady.  The benchmark therefore times a fixed reference loop many
times during every timed interval and divides each stretch of wall time
by the speed the reference showed around it.  A reading then equals
plain wall seconds on a host that runs the reference in NOMINAL_S.

The reference mixes the operations albertlab spends its time on:
sorted-tuple monomial keys, dict accumulation and copies, big-int and
Fraction arithmetic, and Python-level calls.  It keeps no data between
samples, so it does not raise the peak resident memory of a run.

Samples are taken in the main thread only, so the reference never runs
beside the workload: either between units of work (`maybe_sample`), or
from a SIGALRM handler while one long single-threaded call runs
(`start_timer`).  The handler re-arms a one-shot timer after each
sample, so samples never nest.
"""

import os
import signal
import time
from fractions import Fraction

# seconds one reference sample takes on this project's reference host
# (2 vCPUs, Python 3.11.7); only the scale of the readings depends on it
NOMINAL_S = 0.0105

_LOOP = 1500


def _mono(i):
    return tuple(sorted((i % 11, i % 7, i % 5)))


def reference():
    d = {}
    acc = Fraction(0)
    big = 1
    for i in range(_LOOP):
        m = _mono(i)
        d[m] = d.get(m, 0) + i * 1000003
        acc += Fraction(i % 13 + 1, i % 9 + 1) * Fraction(i % 4 + 1, 3)
        big = (big * 1234567 + i) % (1 << 200)
    for _ in range(8):
        e = dict(d)
        for k in list(e)[:50]:
            e[k] = e[k] * 3
    return acc, big, len(e)


class HostClock:
    """Reference samples (start, end, reference seconds) on the
    perf_counter timeline.

    With `cpus` None a sample runs on whichever CPU the caller runs on,
    which is where single-threaded work runs.  Each virtual CPU of the
    host changes speed on its own, so for work spread over threads a
    sample pins the caller to each of `cpus` in turn.  Threads that take
    turns holding the interpreter lock each get an equal share of wall
    time, so the work goes at the mean of the CPUs' speeds: the sample is
    the harmonic mean of the per-CPU times.
    """

    def __init__(self, period=0.15, cpus=None):
        self.period = period
        self.cpus = sorted(cpus) if cpus else None
        self.samples = []
        self._timer = False

    def sample(self):
        t0 = time.perf_counter()
        if self.cpus is None:
            reference()
            ref = time.perf_counter() - t0
        else:
            mask = os.sched_getaffinity(0)
            times = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    t = time.perf_counter()
                    reference()
                    times.append(time.perf_counter() - t)
            finally:
                os.sched_setaffinity(0, mask)
            ref = len(times) / sum(1 / t for t in times)
        self.samples.append((t0, time.perf_counter(), ref))

    def maybe_sample(self):
        """Sample if `period` seconds of work passed since the last one."""
        if time.perf_counter() - self.samples[-1][1] >= self.period:
            self.sample()

    def _on_alarm(self, signum, frame):
        self.sample()
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def start_timer(self):
        self._timer = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop_timer(self):
        self._timer = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def interval(self, t0, t1):
        """(work_s, normalised_s, samples) for the work done in [t0, t1].

        The caller samples just before t0 and just after t1.  Wall time
        spent in samples inside the interval is not work.  Each stretch
        of work between two samples is divided by the mean of their
        speed factors.
        """
        before = [s for s in self.samples if s[1] <= t0][-1]
        inner = [s for s in self.samples if t0 <= s[0] and s[1] <= t1]
        after = [s for s in self.samples if s[0] >= t1][0]
        marks = [before] + inner + [after]
        work = norm = 0.0
        edge = t0
        for prev, mark in zip(marks, marks[1:]):
            stop = min(mark[0], t1)
            work += stop - edge
            norm += (stop - edge) / ((prev[2] + mark[2]) / 2 / NOMINAL_S)
            edge = mark[1]
        return work, norm, len(marks)
