"""How fast the host runs right now, from calibration work of fixed size.

On a shared host the same call runs up to twice as slow for seconds at a
time while other tenants load the core, and the regimes shift within a
run and between runs.  So every measured call is bracketed by a probe
that times a fixed piece of calibration work of the same kind, on the
same CPU, and the call's latency is reported at reference speed:

    reported = measured / slowness,
    slowness = probe time / the probe's time on a host of reference speed

A call that needs twice the work still reads twice as long, while a host
that runs everything twice as slow for a while does not.  Two probes:

- ``kernel_slowness`` for calls in this interpreter: a ~1 ms kernel of
  integer and ``Fraction`` arithmetic, the kind of work the package does
  (0.6 to 1.2 ms on a 2-vCPU Xeon host, depending on its neighbours);
- ``start_slowness`` for calls that start an interpreter: a bare
  ``python -S -c pass`` (11 to 18 ms there; without ``-S`` the site
  packages of a large environment can take several times that).  Process
  starts slow down less than interpreter work when the host is busy, so
  the kernel would over-correct them.

The probes are the benchmark's own code and never call the package, so
no change to the package moves them.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from fractions import Fraction

#: Seconds the kernel takes on a host of reference speed.
REFERENCE_S = 1e-3
#: Seconds a bare interpreter start takes on a host of reference speed.
START_REFERENCE_S = 0.012


def kernel() -> int:
    """A fixed amount of interpreter, integer and Fraction work."""
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction((-1) ** k, k * (k + 3))
    acc = 0
    for k in range(1, 500):
        acc = (acc * 31 + k * k) % 1000003
    return acc + total.denominator % 7


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def kernel_slowness() -> float:
    """Kernel time now ÷ REFERENCE_S."""
    return measure() / REFERENCE_S


def start_slowness() -> float:
    """Bare interpreter start time now ÷ START_REFERENCE_S."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return (time.perf_counter() - start) / START_REFERENCE_S


class Sampler:
    """Probe runs before, during and after one call.

    A long in-process call outlasts the host's speed changes, so besides
    the runs before and after it, a timer signal can run the probe every
    ``interval`` seconds while the call is in progress.  The handler's own
    time is then taken off the call's latency::

        sampler.start()
        t0 = time.perf_counter()
        call()
        sampler.stop()
        latency, slowness = sampler.result(t0, time.perf_counter())

    The handler runs in the calling thread between bytecodes, so a call
    that spends long in one C function gets its samples late, not wrongly.
    It keeps only running sums: a list of samples would leave one live
    object per sample among the call's allocations and keep their memory
    arenas from being freed.
    """

    def __init__(self, interval=None, probe=kernel_slowness):
        """``interval=None`` runs the probe only before and after."""
        self.interval = interval
        self.probe = probe
        self.active = False
        self.slowness_sum = self.handler_s = 0.0
        self.runs = 0
        if interval is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if not self.active:  # delivered after stop()
            return
        start = time.perf_counter()
        self.slowness_sum += self.probe()
        self.runs += 1
        self.handler_s += time.perf_counter() - start

    def start(self) -> None:
        self.slowness_sum, self.runs, self.handler_s = self.probe(), 1, 0.0
        if self.interval is not None:
            self.active = True
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.active = False

    def result(self, t0: float, t1: float) -> tuple:
        """(latency without the handler's time, mean slowness)."""
        slowness_sum = self.slowness_sum + self.probe()
        return t1 - t0 - self.handler_s, slowness_sum / (self.runs + 1)
