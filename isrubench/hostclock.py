"""Host seconds corrected for the speed of the host at the time.

The benchmark runs on a few cores of a shared host whose speed changes by a
factor of up to two, in stretches from a tenth of a second to minutes, and
the share of fast and slow stretches differs from one run of the benchmark
to the next.  Medians of raw host seconds then differ between runs of the
same code by more than any bound a change could be held to.

`HostClock` measures the host's speed as it goes: it times a fixed probe,
a pure-Python `difflib` comparison of two fixed sequences whose dict, list
and loop work slows and speeds up with the host much as the simulator does,
every ``PROBE_EVERY_S`` host seconds (from a SIGALRM timer, so whatever the
program is doing) and at the ends of each timed stretch.  Each piece of
host time between two probes is scaled by ``NOMINAL_PROBE_S`` over the mean
of the two probes around it, giving the seconds it would have taken on a
host where the probe takes exactly ``NOMINAL_PROBE_S``.  Time spent in
probes is never counted.  A program change does not move the probe, so the
corrected seconds move with the program and not with the host.
"""

from __future__ import annotations

import difflib
import gc
import signal
import statistics
from time import perf_counter

# The probe's median time on the host where the benchmark was defined (2
# vCPUs of an Intel Xeon, CPython 3.11).
NOMINAL_PROBE_S = 0.003
# About 7% of a run goes to probes at this spacing; the shortest stretches
# of one host speed seen last about 0.1 s.
PROBE_EVERY_S = 0.03

_A = [chr(97 + (i * 7919) % 11) * (1 + i % 3) for i in range(300)]
_B = ["zz" if i % 7 == 0 else a for i, a in enumerate(_A)]


def probe() -> float:
    """Host seconds of one fixed piece of pure-Python work.

    The collector is off meanwhile: a collection of the program's objects
    must not run inside the probe, where its time would read as a slow
    host and drop out of the program's time.  The probe frees what it
    allocates, so it leaves the program's collections where they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    difflib.SequenceMatcher(None, _A, _B, autojunk=False).get_opcodes()
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class HostClock:
    """Accumulates speed-corrected and raw host seconds between laps.

    While it runs it owns SIGALRM and the real-time interval timer; `stop`
    gives them back.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._probing = False
        self._last = probe()
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               lambda *_: self._segment())
        self.restart()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def restart(self) -> None:
        """Start a timed stretch now; the last probe is its left bracket."""
        self._start = perf_counter()
        self._corrected = 0.0
        self._raw = 0.0

    def _segment(self) -> None:
        if self._probing:  # the timer went off inside a lap's own probe
            return
        self._probing = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        sample = probe()
        self.probes.append(sample)
        scale = NOMINAL_PROBE_S / ((self._last + sample) / 2)
        self._corrected += (end - self._start) * scale
        self._raw += end - self._start
        self._last = sample
        self._start = perf_counter()
        self._probing = False
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def lap(self) -> tuple[float, float]:
        """End the timed stretch: (corrected, raw) seconds since `restart`."""
        self._segment()
        result = (self._corrected, self._raw)
        self.restart()
        return result

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def summary(self) -> dict:
        probes = self.probes or [self._last]
        return {"probes": len(self.probes),
                "probe_s.p50": statistics.median(probes),
                "probe_s.min": min(probes), "probe_s.max": max(probes),
                "nominal_probe_s": NOMINAL_PROBE_S,
                "probe_every_s": PROBE_EVERY_S}
