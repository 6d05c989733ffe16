"""Process-local metrics: counters, gauges, and histogram summaries.

Metric keys follow a Prometheus-flavoured convention:
``name`` or ``name{label=value,...}`` with labels sorted, so snapshots
are stable dictionaries that diff cleanly between two runs.  All updates
take one lock, which keeps counters exact under concurrent experiment
grid workers; the registry used when observability is off is :data:`NULL_METRICS`
whose methods are no-ops.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Any

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "metric_key",
]


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` key with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe counters / gauges / histogram summaries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    # -- instruments --------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation (kept as a running summary)."""
        key = metric_key(name, labels)
        value = float(value)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                self._histograms[key] = {
                    "count": 1, "sum": value, "min": value, "max": value,
                }
            else:
                h["count"] += 1
                h["sum"] += value
                h["min"] = min(h["min"], value)
                h["max"] = max(h["max"], value)

    # -- reads --------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of everything recorded so far (JSON-ready)."""
        with self._lock:
            histograms = {
                key: {
                    **h,
                    "mean": h["sum"] / h["count"] if h["count"] else 0.0,
                }
                for key, h in self._histograms.items()
            }
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": histograms,
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )


class NullMetrics(MetricsRegistry):
    """No-op registry installed when observability is off."""

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass


NULL_METRICS = NullMetrics()

# Context-local for the same reason as ``trace._active_tracer``: parallel
# runs each install their own registry without clobbering each other's.
_active_metrics: contextvars.ContextVar[MetricsRegistry] = contextvars.ContextVar(
    "repro_active_metrics", default=NULL_METRICS
)


def get_metrics() -> MetricsRegistry:
    """The context-active registry (``NULL_METRICS`` unless a run is traced)."""
    return _active_metrics.get()


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as active; returns the previous one for restore."""
    previous = _active_metrics.get()
    _active_metrics.set(registry)
    return previous
