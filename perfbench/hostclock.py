"""Wall time of a benchmark pass, corrected for a shared host's load.

Other tenants of a shared host slow a pass down, by up to 1.8x and for
seconds to minutes at a time; CPU time slows with it, so it is no
steadier.  :class:`StepClock` therefore splits a pass into steps at the
returns of a few layer calls (a step lasts milliseconds) and, after a
step whenever ``PROBE_EVERY_S`` has passed, times :func:`speed_probe`, a
fixed snippet of the kind of Python the simulator spends its time in.
Each step is scaled by ``PROBE_IDLE_S`` over the median probe time
around it, which gives the time the step would take on an idle host.
Probe time is not counted in any step.

The probe shares no code with the program, so a change to the program
moves the scaled time as it moves the wall time.  Its idle time is a
constant, so that no run's figures hang on whether that run met an idle
moment; on another machine the scaled times differ from wall times on
an idle core by a constant factor.
"""

from __future__ import annotations

import bisect
import statistics
import time
from contextlib import contextmanager

#: a probe runs after the step that ends this long after the last probe
PROBE_EVERY_S = 0.01
#: the probe's time on an idle core of the machine the benchmark was
#: tuned on (a 2-core Xeon virtual machine)
PROBE_IDLE_S = 0.000215
#: probes on each side of a step whose median gives its slow-down
PROBE_WINDOW = 5

_TABLE = list(range(32768))


def _index(x: int, y: int) -> int:
    return (x * 3 + y) & 32767


def speed_probe() -> float:
    """Seconds taken by a fixed mix of calls, list reads, dict writes
    and integer arithmetic."""
    start = time.perf_counter()
    total, table, seen = 0, _TABLE, {}
    for i in range(1500):
        k = _index(i, total)
        total = (total + table[k]) & 0xFFFF
        if k & 3 == 0:
            seen[k] = total
    return time.perf_counter() - start


def idle_factor(probes: list[float]) -> float:
    """How much faster an idle host runs than the host during
    ``probes``."""
    return PROBE_IDLE_S / statistics.median(probes)


class StepClock:
    """Step times and speed probes of one pass."""

    def __init__(self) -> None:
        self.steps: list[float] = []
        #: (steps finished before the probe, probe seconds)
        self.probes: list[tuple[int, float]] = []
        self._last = self._last_probe = time.perf_counter()

    def start(self) -> None:
        self.probes.append((0, speed_probe()))
        self._last = self._last_probe = time.perf_counter()

    def boundary(self) -> None:
        now = time.perf_counter()
        self.steps.append(now - self._last)
        if now - self._last_probe >= PROBE_EVERY_S:
            self.probes.append((len(self.steps), speed_probe()))
            self._last_probe = now
        self._last = time.perf_counter()

    def finish(self) -> None:
        self.steps.append(time.perf_counter() - self._last)
        self.probes.append((len(self.steps), speed_probe()))

    @contextmanager
    def installed(self, boundaries):
        """Mark a boundary whenever a call in ``boundaries`` ((owner,
        attribute) pairs) returns; the originals are restored on exit."""
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr in boundaries]

        def marked(fn):
            def call(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.boundary()
            return call

        for owner, attr, fn in originals:
            setattr(owner, attr, marked(fn))
        try:
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def idle_seconds(self) -> float:
        """The steps' total, each scaled to an idle host."""
        at = [done for done, _ in self.probes]
        seconds = [probe for _, probe in self.probes]
        total = 0.0
        for index, step in enumerate(self.steps):
            # the first probe after the step ends, and its neighbours
            nearest = bisect.bisect_left(at, index + 1)
            window = seconds[max(0, nearest - PROBE_WINDOW):
                             nearest + PROBE_WINDOW]
            total += step * idle_factor(window)
        return total
