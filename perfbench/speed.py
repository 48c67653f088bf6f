"""Machine-speed reference for the end-to-end times.

The machine this benchmark was written on runs a fixed pure-Python loop at
speeds that differ by up to a factor of two over seconds to minutes, as
other tenants come and go. A wall-clock time taken across such a change
moves by as much as a code change would. The benchmark therefore times a
short fixed loop, :func:`probe`, right next to the work it measures and
reports every end-to-end time as it would read at one fixed reference
speed: the measured time times ``REF_PROBE_NS / probe time``. A change to
the program moves the work and leaves the probe alone, so it still shows
in full; a slower machine slows both and cancels out. The raw wall-clock
figures are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of the probe loop; about 1.5 ms on a 2-vCPU Xeon VM.
PROBE_ITERS = 20_000

#: Probe time at the reference speed. Scaled times are what the measured
#: work would take on a machine where :func:`probe` takes exactly this long.
REF_PROBE_NS = 1_500_000


def probe() -> int:
    """Run the fixed loop once and return its wall time in nanoseconds."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    return time.perf_counter_ns() - t0


def factor(probes: list[int]) -> float:
    """Multiplier from wall time to reference time for these probe samples."""
    return REF_PROBE_NS / statistics.median(probes)


class Sampled:
    """Time one span, probing the machine's speed before, during and after it.

    A ``SIGALRM`` interval timer runs :func:`probe` every ``interval_s``
    inside the span, on the main thread between two bytecodes of whatever
    runs there; the probes' own time is taken out of the span's wall time.
    After the ``with`` block, ``wall_s`` is the span's time without the
    probes and ``scaled_s`` the same at the reference speed.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.probes: list[int] = []
        self._inside_ns = 0
        self._t0 = 0
        self._previous = None
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        ns = probe()
        self.probes.append(ns)
        self._inside_ns += ns

    def __enter__(self) -> "Sampled":
        self.probes.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter_ns()
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.probes.append(probe())
        self.wall_s = (t1 - self._t0 - self._inside_ns) / 1e9
        self.scaled_s = self.wall_s * factor(self.probes)
