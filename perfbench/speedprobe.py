"""Host-speed probe that scales a pass's times to one reference speed.

The benchmark's boxes are vCPUs of a shared host. The speed of a vCPU
swings by up to 2x in phases that last from seconds to minutes, as
other tenants come and go, and it swings independently on each vCPU.
A pass of 30 to 40 s sits inside one or two such phases, so its raw
wall time says as much about the host as about the program.

The probe measures the host where the pass runs, while it runs. Every
``PERIOD_S`` a ``SIGALRM`` handler runs a fixed kernel in the pass's
main thread, on the vCPU that thread is on at that moment, and records
the kernel's CPU time. The kernel is the same kind of work as the
program's step loop: small numpy arrays and Python calls. The handler's
own time is cut out of the pass. Each stretch between two probes is then
scaled by ``NOMINAL_S`` over the mean of the probes on either side, so a
stretch run at half speed counts half. Program changes move the stretches
and leave the kernel alone, so a saving shows in full.

Three probes before the pass starts give the speed at its start, so
even a set-up of a few milliseconds is scaled.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

PERIOD_S = 0.5
# the kernel's median CPU time on the 2-vCPU box the bounds were set on
NOMINAL_S = 0.0125
KERNEL_STEPS = 1500
BASELINE_PROBES = 3

_A = 0.1 * np.random.default_rng(0).standard_normal((6, 6))
_B = np.ones(6)


def kernel():
    """A saturated Euler loop on a 6-entry state; about 12 ms."""
    y = _B
    for _ in range(KERNEL_STEPS):
        y = y + 1e-3 * np.clip(_A @ y + _B, -5.0, 5.0)
    return y


class SpeedProbe:
    """Context manager: probes the host while a pass runs.

    ``probes`` holds ``(start, end, cpu_s)`` per probe, in time order.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.probes = []
        self._previous = None

    def _probe(self):
        t_in = perf_counter()
        c0 = thread_time()
        kernel()
        cpu = thread_time() - c0
        self.probes.append((t_in, perf_counter(), cpu))

    def _tick(self, signum, frame):
        self._probe()

    def __enter__(self):
        t_in = perf_counter()
        cpus = []
        for _ in range(BASELINE_PROBES):
            c0 = thread_time()
            kernel()
            cpus.append(thread_time() - c0)
        self.probes.append((t_in, perf_counter(), statistics.median(cpus)))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start, end):
        """``(scaled, raw)`` seconds of ``[start, end]`` outside the probes.

        ``raw`` is the plain time. ``scaled`` weights each stretch
        between probes by ``NOMINAL_S`` over the mean CPU time of the
        probes just before and just after it (the one before alone at
        the end of the list).
        """
        scaled = raw = 0.0
        before = None
        cursor = start
        for t_in, t_out, cpu in self.probes:
            if t_out <= start:
                before = cpu
                continue
            if t_in >= end:
                after = cpu
                break
            raw_part = max(0.0, t_in - cursor)
            raw += raw_part
            scaled += raw_part * NOMINAL_S / _mean(before, cpu)
            before, cursor = cpu, max(cursor, t_out)
        else:
            after = None
        tail = max(0.0, end - cursor)
        raw += tail
        scaled += tail * NOMINAL_S / _mean(before, after)
        return scaled, raw


def _mean(a, b):
    known = [x for x in (a, b) if x is not None]
    return sum(known) / len(known)
