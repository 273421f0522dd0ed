"""Host-speed sampling: how fast the host runs this kind of code right now.

On a shared host the CPU time of one and the same call moves by up to 1.6x
within minutes, and a short loop's by up to 1.9x from one second to the
next, as the load beside it changes.  :class:`HostSampler` measures that
speed while a call runs: every ``INTERVAL_S`` of process CPU time a
``SIGPROF`` handler runs a short fixed loop with the workloads' mix (Python
loops over small numpy arrays, method and attribute traffic, dict updates,
batched numpy) and records its duration.  :meth:`HostSampler.normalise`
takes the handler's own time out of the call's CPU time and scales the rest
by ``NOMINAL_S`` over the typical sample: seconds on a host where one
sample takes ``NOMINAL_S``.  The typical sample is the mean of the fastest
nine tenths: a sample is timed by the wall clock, and the slowest ones are
those the host descheduled, which the call's CPU time does not count.

The loop imports nothing from the package, so a change to the package
moves the calls and not the samples.  The handler draws from its own
generator and touches no state of the program, so a sampled call computes
exactly what an unsampled one does.  Import this module only after
``bootstrap.prepare_process()``: it imports numpy.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: Process CPU time between two samples.
INTERVAL_S = 0.06

#: Share of the samples, the fastest, that make the typical sample.
KEPT = 0.9

#: One sample's duration on the reference host (a 2-vCPU Xeon VM) when
#: nothing else loads it: the scale of the normalised times.
NOMINAL_S = 0.002


class _Walker:
    __slots__ = ("x", "y", "steps")

    def __init__(self) -> None:
        self.x = 0
        self.y = 0
        self.steps = 0

    def step(self, action: int) -> tuple:
        if action == 0:
            self.x = (self.x + 1) % 7
        elif action == 1:
            self.y = (self.y + 1) % 7
        else:
            self.x = (self.x - 1) % 7
        self.steps += 1
        return (self.x, self.y), -1.0, self.x == 6 and self.y == 6


def _small_numpy(a: np.ndarray, b: np.ndarray, n: int) -> float:
    table = {}
    for i in range(n):
        x = a @ b
        key = i & 255
        table[key] = table.get(key, 0.0) + float(np.round(x * 256.0)[0, 0])
    return sum(table.values())


def _objects(n: int) -> int:
    walker = _Walker()
    seen = []
    for i in range(n):
        state, _, done = walker.step(i % 3)
        if done:
            seen.append(state)
    return walker.steps + len(seen)


def _integers(n: int) -> int:
    total = 0
    table = {}
    for i in range(n):
        total += i * 3 % 7
        table[i & 127] = total
    return total


def _batched(big: np.ndarray, n: int) -> float:
    acc = 0.0
    for _ in range(n):
        q = np.clip(np.round(big * 64.0), -128, 127).astype(np.int64)
        acc += float((q ^ (q >> 1)).sum())
    return acc


class HostSampler:
    """Context manager sampling the host's speed while its body runs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((8, 16))
        self._b = rng.standard_normal((16, 4))
        self._big = rng.standard_normal(4096)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Wall seconds of one pass over the fixed mix (about ``NOMINAL_S``).

        Wall, not CPU: inside a ``SIGPROF`` handler the process CPU clock
        does not advance until the next tick.
        """
        start = time.perf_counter()
        _small_numpy(self._a, self._b, 110)
        _objects(2000)
        _integers(4200)
        _batched(self._big, 18)
        return time.perf_counter() - start

    def _on_tick(self, signum, frame) -> None:
        self.samples.append(self.sample())

    def __enter__(self) -> "HostSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def normalise(self, cpu_s: float) -> float:
        """``cpu_s``, measured inside the body, in seconds on the nominal host."""
        if not self.samples:
            raise RuntimeError(f"no host sample in {cpu_s:.3g} CPU s; the body is too short")
        fastest = sorted(self.samples)[: max(1, int(len(self.samples) * KEPT))]
        return (cpu_s - sum(self.samples)) * NOMINAL_S / statistics.fmean(fastest)
