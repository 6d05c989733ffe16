"""The benchmark's own arithmetic: interquartile mean, span self time,
failure share, scheduler busy share, and the reference comparison.

Everything here is pure (no clock, no I/O) so ``perfbench/tests`` can pin
it on synthetic inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "SpanRecord",
    "interquartile_mean",
    "self_times",
    "layer_self_times",
    "fail_share",
    "busy_share",
    "canonical",
    "digest",
    "compare_to_reference",
]


@dataclass
class SpanRecord:
    """One benchmark-side span: a timed call into one layer."""

    span_id: int
    parent_id: int | None
    layer: str
    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half: a quarter (rounded down) of the values is
    dropped from each end.  Unlike the median of a few values of very
    different sizes, it does not jump when two neighbours swap order."""
    if not values:
        raise ValueError("interquartile mean of an empty sample")
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Children on different threads may overlap each other, so the union,
    not the sum, is what a parent loses from its own time.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo: float | None = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[SpanRecord]) -> dict[int, float]:
    """``{span_id: duration minus the time its direct children cover}``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: Sequence[SpanRecord]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + own[span.span_id]
    return out


def fail_share(failed: int, attempted: int) -> float:
    """Failed ops over attempted ops; every attempted op is in the base,
    including ones that raised before producing a result."""
    if attempted <= 0:
        raise ValueError("no op was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def busy_share(cell_seconds: Sequence[float], workers: int, makespan: float) -> float:
    """Sum of cell times over the capacity ``workers x makespan``."""
    if workers <= 0 or makespan <= 0:
        raise ValueError("workers and makespan must be positive")
    return sum(cell_seconds) / (workers * makespan)


def canonical(value: Any) -> Any:
    """JSON-ready copy with floats cut to 9 significant digits, so digests
    do not depend on last-bit differences between CPUs' SIMD paths."""
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def digest(value: Any) -> str:
    """md5 over the canonical JSON form of ``value``."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def _same(expected: Any, actual: Any, rel_tol: float) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if expected is None or actual is None:
            return expected is actual
        return math.isclose(float(expected), float(actual), rel_tol=rel_tol, abs_tol=rel_tol)
    return expected == actual


def compare_to_reference(
    expected: dict[str, Any], actual: dict[str, Any], rel_tol: float = 1e-9
) -> list[str]:
    """Names of the reference fields ``actual`` disagrees with.

    Every field of the reference is checked; a field missing from
    ``actual`` is a mismatch.  Floats compare with ``rel_tol``.
    """
    return [
        key
        for key, want in expected.items()
        if key not in actual or not _same(want, actual[key], rel_tol)
    ]
