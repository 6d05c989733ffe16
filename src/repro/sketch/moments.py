"""Streaming moments (count / mean / M2 / extrema) with a parallel merge.

Per-chunk statistics are computed with vectorized numpy (one pass), then
folded via Chan's parallel update of Welford's recurrence:

    delta = mean_b - mean_a
    mean  = mean_a + delta * n_b / (n_a + n_b)
    M2    = M2_a + M2_b + delta^2 * n_a * n_b / (n_a + n_b)

The merge is associative up to floating-point rounding; the streaming
profiler folds chunks in canonical (start-row) order so the result is
*bit*-identical at any chunk arrival order.  Exactness
versus the batch path (which calls ``values.mean()`` on the full array)
holds whenever the stream fits the exact row buffer — the profiler then
recomputes numpy statistics from the buffer instead of this sketch, so
:class:`MomentsSketch` only answers once the data is genuinely
out-of-core.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MomentsSketch"]


class MomentsSketch:
    """Mergeable count/mean/variance/min/max over present numeric values."""

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- updates ---------------------------------------------------------------

    def update(self, values: np.ndarray) -> None:
        """Fold a chunk of present (non-nan) float64 values."""
        values = np.asarray(values, dtype=np.float64)
        n_b = int(values.size)
        if n_b == 0:
            return
        mean_b = float(values.mean())
        m2_b = float(np.sum((values - mean_b) ** 2))
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        self._combine(n_b, mean_b, m2_b)

    def _combine(self, n_b: int, mean_b: float, m2_b: float) -> None:
        n_a = self.n
        if n_a == 0:
            self.n, self.mean, self.m2 = n_b, mean_b, m2_b
            return
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * n_a * n_b / n
        self.n = n

    # -- merge -----------------------------------------------------------------

    def merge(self, other: "MomentsSketch") -> "MomentsSketch":
        if other.n:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            self._combine(other.n, other.mean, other.m2)
        return self

    def copy(self) -> "MomentsSketch":
        clone = MomentsSketch()
        clone.n, clone.mean, clone.m2 = self.n, self.mean, self.m2
        clone.min, clone.max = self.min, self.max
        return clone

    # -- queries ---------------------------------------------------------------

    def variance(self) -> float:
        """Population variance (matching ``ndarray.std()``'s ddof=0)."""
        return self.m2 / self.n if self.n else 0.0

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def statistics(self) -> dict[str, float]:
        """min/max/mean/std in the batch ``numeric_statistics`` shape
        (median is supplied separately by the quantile reservoir)."""
        if self.n == 0:
            return {}
        return {
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "std": self.std(),
        }

    def canonical_state(self) -> tuple:
        return (self.n, self.mean, self.m2, self.min, self.max)

    def __repr__(self) -> str:
        return f"MomentsSketch(n={self.n}, mean={self.mean}, std={self.std()})"
