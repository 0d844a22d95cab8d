"""Timings in reference seconds: wall time corrected for the speed of the core.

On a shared host the speed of a core changes by up to a factor of two, in
spells of a fraction of a second to many seconds, as other tenants come and
go; the same loop timed in two 30 s windows differs by 15-20%. So while an
operation runs, a `Gauge` interrupts it every `PERIOD_S` (SIGALRM) and times
a small fixed piece of pure-Python work, the reference. The operation's wall
time, less the gauge's own time, is then scaled by how much slower than
`NOMINAL_S` the reference ran, averaged over the samples: the result is the
time the operation takes on a core that runs the reference in `NOMINAL_S`.
The reference is benchmark code, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.01
# typical time of one reference pass on the 2-vCPU Xeon (Sapphire Rapids) KVM
# guest the benchmark was tuned on, so reference seconds read close to wall
# seconds there
NOMINAL_S = 0.00025

_WORDS = tuple(f"Step {i} of the plan" for i in range(257))


def _work() -> int:
    # string building, case folding and dict updates: the kinds of work the
    # program's own stages are made of
    table: dict[str, int] = {}
    total = 0
    for i in range(500):
        key = _WORDS[i % 257].lower()
        table[key] = table.get(key, 0) + i
        total += key.count(" ")
    return total + len(table)


def sample() -> float:
    """Wall time of one reference pass, with the collector paused so that
    garbage the program left behind is not collected on the reference's clock."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    _work()
    took = time.perf_counter() - started
    if enabled:
        gc.enable()
    return took


class Gauge:
    """Samples the reference before, every `PERIOD_S` during, and after a block.

        with Gauge() as gauge:
            wall = run_operation()
        seconds = gauge.reference_seconds(wall)

    `wall` must be timed inside the block; the samples taken while the
    operation ran are subtracted from it.
    """

    def __enter__(self) -> Gauge:
        self.samples = [sample()]
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    def _tick(self, signum, frame) -> None:
        took = sample()
        self.samples.append(took)
        self.inside_s += took

    def reference_seconds(self, wall_s: float) -> float:
        """`wall_s` less the gauge's own time, in reference seconds."""
        speed = sum(NOMINAL_S / s for s in self.samples) / len(self.samples)
        return max(wall_s - self.inside_s, 0.0) * speed
