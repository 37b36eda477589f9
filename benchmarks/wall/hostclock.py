"""Host-speed-normalized time inside a measured process.

The shared 2-vCPU hosts this benchmark was calibrated on switch between
full speed and about half speed, in stretches from a fraction of a second
to tens of seconds, and drift by a further 10-20% over minutes.  CPU time
slows with wall time there, so neither clock separates what the code
costs from what the host lent it.

A :class:`HostClock` runs a fixed pure-Python probe every
``PROBE_PERIOD_S`` from a ``SIGALRM`` timer in the measured process
itself.  A probe's duration over ``PROBE_REFERENCE_S``, to the power
``PROBE_EXPONENT``, is the host's slowdown at that moment, and
:func:`timeline` turns wall-clock instants into seconds at the reference
speed: each stretch between two probes counts its length divided by
their mean slowdown, and the probes' own time counts zero.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time

#: One probe every 40 ms.  A probe takes 0.9 ms at full speed and a
#: median 1.3 ms, so the probes cost the measured process about 3% of
#: its wall time.
PROBE_PERIOD_S = 0.04
#: The fastest of 1,000 probes taken during cold compiles on the
#: calibration host (see README.md): normalized times are seconds of that
#: host at full speed.  On another host they differ by a constant factor.
PROBE_REFERENCE_S = 0.0009
#: The simulator slows more than the probe: across 72 recorded runs on
#: the calibration host, a run's time corrected by the probe's slowdown
#: alone still rose with that slowdown (correlation +0.33, +0.44 and
#: +0.88 for sweep-cold, tune and sweep-warm).  Taken to this power it
#: fell to -0.21, -0.03 and +0.72.
PROBE_EXPONENT = 1.3
#: Entries in the probe's pointer-chasing ring, about 5 MiB; it is part
#: of every measured process's peak RSS.
RING_SIZE = 131072


def _ring(size: int, seed: int = 1) -> list:
    """``ring[i]`` is the index after ``i`` on one cycle through every
    index in shuffled order.  A list of ints is a single object to the
    garbage collector, so the ring adds nothing to its scans."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    ring = [0] * size
    for here, there in zip(order, order[1:] + order[:1]):
        ring[here] = there
    return ring


def timeline(
    starts, ends, reference_s: float = PROBE_REFERENCE_S, exponent: float = PROBE_EXPONENT
):
    """``t -> seconds at the reference speed``, up to a constant.

    ``starts`` and ``ends`` are the probes' ``perf_counter`` intervals in
    order; a probe's slowdown is its duration over ``reference_s``, to the
    power ``exponent``.  Only differences of the returned function mean
    anything.  With no probes, time is not rescaled."""
    count = len(starts)
    if count == 0:
        return lambda t: t
    slowdown = [
        ((end - start) / reference_s) ** exponent for start, end in zip(starts, ends)
    ]
    # factor[j] scales the stretch that ends at probe j; the last one, the
    # stretch after the final probe.
    factor = (
        [slowdown[0]]
        + [(slowdown[j - 1] + slowdown[j]) / 2.0 for j in range(1, count)]
        + [slowdown[-1]]
    )
    at_start = [0.0] * count  # the timeline at each probe's start
    for j in range(1, count):
        at_start[j] = at_start[j - 1] + (starts[j] - ends[j - 1]) / factor[j]

    def at(t: float) -> float:
        j = bisect.bisect_right(ends, t)  # probes over by t
        if j < count and t > starts[j]:
            return at_start[j]  # inside probe j: its time counts zero
        if j == 0:
            return (t - starts[0]) / factor[0]
        return at_start[j - 1] + (t - ends[j - 1]) / factor[j]

    return at


class HostClock:
    """Probes the host's speed from a timer until :meth:`stop`.

    Only the main thread receives signals, so start and stop it there."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._ring = _ring(RING_SIZE)
        self._cursor = 0
        self._probing = False

    def probe(self) -> None:
        """Fixed work of the kinds the simulator does: dict updates and
        arithmetic, pointer chasing through memory, and allocating small
        containers.  Normalized by one kind alone, sweep work spread by up
        to 4.9-11.3% between the 25-second windows of an eight-minute run; by
        their sum, 1.6-3.3% (README.md).  Much shorter probes measure
        mostly the caches the interrupted work left cold."""
        table: dict = {}
        total = 0.0
        for i in range(2000):
            key = i & 255
            table[key] = table.get(key, 0) + 1
            total += i * 0.5
        ring = self._ring
        cursor = self._cursor
        for _ in range(2000):
            cursor = ring[cursor]
        self._cursor = cursor
        kept = []
        for i in range(500):
            kept.append({"a": i, "b": (i, i + 1), "c": [i]})

    def _tick(self, _signum, _frame) -> None:
        # A process stalled for longer than a period finds the next signal
        # pending inside the probe; a nested probe would overlap this one.
        if self._probing:
            return
        self._probing = True
        # The probe's containers are freed before it returns, so with the
        # collector off they leave its schedule as it was: collections
        # land where the measured program alone puts them.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.probe()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._probing = False
        self.starts.append(start)
        self.ends.append(end)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timeline(self):
        """:func:`timeline` of the probes so far."""
        return timeline(self.starts, self.ends)
