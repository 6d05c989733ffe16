"""Tracing spans: a nestable, thread-aware span tree per run.

A :class:`Tracer` hands out ``span("name", **attrs)`` context managers.
Spans nest through a per-thread stack, so the tree mirrors the call
structure; worker threads (the experiment scheduler's pool) inherit the
submitting thread's current span via :meth:`Tracer.attach`, so
fanned-out work attaches to the right parent.

The default tracer is :data:`NULL_TRACER`, whose ``span()`` returns one
shared no-op context manager — instrumented code paths pay a dict-build
and two no-op calls per span when tracing is off, which the benchmark
suite bounds at <5% of a small ``profile_table`` call.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "span",
    "current_span",
    "traced",
    "aggregate_spans",
    "render_span_tree",
]


@dataclass
class Span:
    """One timed, attributed node in a run's span tree."""

    name: str
    span_id: int
    parent_id: int | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    start_seconds: float = 0.0  # perf_counter timestamp (monotonic)
    duration_seconds: float = 0.0
    status: str = "ok"  # "ok" | "error"

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes after entry (e.g. results known only later)."""
        self.attributes.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
            "start_seconds": round(self.start_seconds, 6),
            "duration_seconds": round(self.duration_seconds, 6),
            "status": self.status,
        }


class _NullSpan:
    """Shared no-op span / context manager used when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens one span on a tracer's thread stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        self.span.start_seconds = time.perf_counter()
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.span.duration_seconds = (
            time.perf_counter() - self.span.start_seconds
        )
        if exc_type is not None:
            self.span.status = "error"
            self.span.attributes.setdefault("error_type", exc_type.__name__)
        self._tracer._pop()
        return False


class _Attached:
    """Context manager that roots a worker thread under a parent span."""

    __slots__ = ("_tracer", "_parent", "_previous")

    def __init__(self, tracer: "Tracer", parent: Span | None) -> None:
        self._tracer = tracer
        self._parent = parent
        self._previous: Span | None = None

    def __enter__(self) -> None:
        local = self._tracer._local
        self._previous = getattr(local, "inherited", None)
        local.inherited = self._parent

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._local.inherited = self._previous
        return False


class Tracer:
    """Collects a span tree; thread-safe and cheap to create per run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    # -- span stack ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread (or its inherited root)."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self) -> None:
        self._stack().pop()

    # -- public API ---------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a child span of this thread's current span."""
        parent = self.current()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            record = Span(
                name=name,
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                attributes=attrs,
            )
            self.spans.append(record)
        return _ActiveSpan(self, record)

    def attach(self, parent: Span | None) -> _Attached:
        """Root subsequent spans on *this* thread under ``parent``.

        Worker pools capture the submitting thread's :meth:`current` span
        and enter ``attach(parent)`` around each work item.
        """
        return _Attached(self, parent)

    def to_dicts(self) -> list[dict[str, Any]]:
        with self._lock:
            return [s.to_dict() for s in self.spans]

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self.spans)})"


class NullTracer(Tracer):
    """No-op tracer installed by default: every span is one shared object."""

    enabled = False

    def __init__(self) -> None:  # no lock, no storage
        self.spans = []

    def span(self, name: str, **attrs: Any) -> Any:
        return _NULL_SPAN

    def attach(self, parent: Span | None) -> Any:
        return _NULL_SPAN

    def current(self) -> Span | None:
        return None

    def to_dicts(self) -> list[dict[str, Any]]:
        return []


NULL_TRACER = NullTracer()

# Context-local, not process-global: two runs observed concurrently (e.g.
# two scheduler workers each inside their own ``run_session``) must not
# see each other's tracer.  A ContextVar is thread-local for plain
# threads and context-local under ``contextvars.copy_context()``, so
# nested reuse within one run still works while parallel runs stay
# disjoint.  Worker pools that should *inherit* the submitting thread's
# tracer propagate the context explicitly (see the experiment scheduler).
_active_tracer: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def get_tracer() -> Tracer:
    """The context-active tracer (``NULL_TRACER`` unless a run is traced)."""
    return _active_tracer.get()


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as active; returns the previous one for restore."""
    previous = _active_tracer.get()
    _active_tracer.set(tracer)
    return previous


def span(name: str, **attrs: Any) -> Any:
    """Open a span on the active tracer (no-op when tracing is off)."""
    return _active_tracer.get().span(name, **attrs)


def current_span() -> Span | None:
    return _active_tracer.get().current()


def traced(
    name: str, attrs_fn: Callable[..., dict[str, Any]] | None = None
) -> Callable:
    """Decorator: wrap a function call in a span when tracing is on.

    ``attrs_fn`` receives the call's arguments and returns span attributes;
    it is only evaluated when a real tracer is active.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = _active_tracer.get()
            if not tracer.enabled:
                return fn(*args, **kwargs)
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
            with tracer.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -- span-tree analysis and rendering (operates on ledger-style dicts) -------------


def aggregate_spans(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-span-name totals: ``{name: {count, seconds, tokens}}``.

    ``tokens`` sums any ``prompt_tokens``/``completion_tokens`` attributes,
    so LLM-call phases carry their token cost into run diffs.
    """
    out: dict[str, dict[str, float]] = {}
    for entry in spans:
        bucket = out.setdefault(
            entry["name"], {"count": 0, "seconds": 0.0, "tokens": 0}
        )
        bucket["count"] += 1
        bucket["seconds"] += float(entry.get("duration_seconds", 0.0))
        attrs = entry.get("attributes", {})
        bucket["tokens"] += int(attrs.get("prompt_tokens", 0) or 0)
        bucket["tokens"] += int(attrs.get("completion_tokens", 0) or 0)
    return out


_TREE_ATTRS = (
    "dataset", "llm", "variant", "rows", "cols", "workers", "task",
    "prompt_tokens", "completion_tokens", "error_type", "fixed_by",
    "attempt", "success", "fault", "system", "beta", "combination",
)


def _format_attrs(attrs: dict[str, Any]) -> str:
    shown = [f"{k}={attrs[k]}" for k in _TREE_ATTRS if k in attrs]
    return f" [{', '.join(shown)}]" if shown else ""


def render_span_tree(
    spans: list[dict[str, Any]], collapse_threshold: int = 4
) -> str:
    """ASCII tree of a recorded span list.

    Runs of >= ``collapse_threshold`` same-named siblings (e.g. one span
    per profiled column) collapse into one aggregate line.
    """
    children: dict[int | None, list[dict[str, Any]]] = {}
    for entry in spans:
        children.setdefault(entry.get("parent_id"), []).append(entry)
    lines: list[str] = []

    def emit(entry: dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{entry['name']:<{max(1, 28 - 2 * depth)}s} "
            f"{entry.get('duration_seconds', 0.0) * 1000.0:9.2f} ms"
            f"{' !' if entry.get('status') == 'error' else ''}"
            f"{_format_attrs(entry.get('attributes', {}))}"
        )
        emit_level(children.get(entry["span_id"], []), depth + 1)

    def emit_level(siblings: list[dict[str, Any]], depth: int) -> None:
        by_name: dict[str, list[dict[str, Any]]] = {}
        for sibling in siblings:
            by_name.setdefault(sibling["name"], []).append(sibling)
        for sibling in siblings:
            group = by_name.get(sibling["name"], [])
            if len(group) >= collapse_threshold:
                if group[0] is sibling:  # summarize once, at first occurrence
                    total_ms = 1000.0 * sum(
                        float(g.get("duration_seconds", 0.0)) for g in group
                    )
                    indent = "  " * depth
                    lines.append(
                        f"{indent}{sibling['name']} x{len(group)}"
                        f"{'':<{max(1, 24 - 2 * depth - len(str(len(group))))}s}"
                        f"{total_ms:9.2f} ms (total)"
                    )
                continue
            emit(sibling, depth)

    emit_level(children.get(None, []), 0)
    return "\n".join(lines)
