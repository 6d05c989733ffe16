"""Host speed gauge: a fixed piece of Python and NumPy work timed beside
the program, so that the program's timings can be scaled to one speed.

The CPU speed a shared host gives this process moves between regimes up
to 2x apart that last from seconds to minutes (other tenants on the same
cores), and CPU time moves with wall time, so no clock escapes it.  A
program op and this fixed work slow down by nearly the same factor, so
``seconds * REFERENCE_S / gauge seconds`` -- the op's time at the speed
where the gauge reads :data:`REFERENCE_S` -- holds steady where the raw
seconds do not (on a 2-vCPU host: raw window medians 1.6x apart, scaled
ones within 3%).

The gauge uses no ``repro`` code, so a change to the program cannot
change what it measures.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "Gauge"]

#: the gauge's unit of work takes this long at reference speed (its
#: median reading on the 2-vCPU host the benchmark was defined on)
REFERENCE_S = 0.0025


class Gauge:
    """Times a fixed unit of interpreter, dict/str and small-matrix work."""

    def __init__(self, repeats: int = 5) -> None:
        self.repeats = repeats
        self._matrix = np.random.default_rng(0).random((96, 96))
        self._words = [f"w{i % 97}_{i % 13}" for i in range(800)]

    def _unit(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i
        counts: dict[str, int] = {}
        for word in self._words:
            head = word.split("_")[0]
            counts[head] = counts.get(head, 0) + len(head)
        sorted(counts.items())
        product = self._matrix
        for _ in range(6):
            product = self._matrix @ product
            product /= product.max()
        return time.perf_counter() - start

    def read(self) -> float:
        """Median seconds of ``repeats`` units of work."""
        return statistics.median(self._unit() for _ in range(self.repeats))

    @staticmethod
    def scale(*readings: float) -> float:
        """Factor taking seconds measured between ``readings`` to seconds
        at reference speed."""
        return REFERENCE_S / statistics.fmean(readings)
