"""Benchmark-side tracing: spans around each layer's public entry points.

Nothing here edits ``src/``.  :class:`Probe` swaps every binding of an
entry point (module globals across ``repro.*`` and this package, class
attributes for methods and properties) for a wrapper that opens a span,
and swaps the originals back afterwards, so untimed passes run the
unmodified program.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from arith import SpanRecord

__all__ = ["Recorder", "Probe"]


class Recorder:
    """In-memory span list with per-thread nesting.

    A span opened on a thread with no open span is parented to
    :attr:`thread_root` (the benchmark sets it to the ``run_grid`` span
    while scheduler threads run cells).  Disabled, :meth:`span` yields
    ``None`` and records nothing.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.enabled = False
        self.thread_root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str, **attrs: Any) -> Iterator[SpanRecord | None]:
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1].span_id if stack else self.thread_root
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = SpanRecord(span_id, parent, layer, name, 0.0, 0.0, dict(attrs))
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        self.thread_root = None

    def named(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]


_Hook = Callable[[SpanRecord, tuple, dict, Any], None]


def _scanned_modules() -> list[Any]:
    """Modules whose globals may hold a bound entry point."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro.") or name == "workloads")
    ]


class Probe:
    """Installs and removes span wrappers around layer entry points."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._functions: list[tuple[Callable, Callable]] = []
        self._attrs: list[tuple[type, str, Any]] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, layer: str, name: str, hook: _Hook | None) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(layer, name) as span:
                result = fn(*args, **kwargs)
                if hook is not None and span is not None:
                    hook(span, args, kwargs, result)
                return result

        return wrapper

    def function(self, fn: Callable, layer: str, name: str, hook: _Hook | None = None) -> None:
        """Wrap every module-global binding of ``fn``."""
        self._functions.append((fn, self._wrap(fn, layer, name, hook)))

    def generator(self, fn: Callable, layer: str, name: str) -> None:
        """Wrap a generator function; each ``next()`` is one span."""
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                with recorder.span(layer, name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item

        self._functions.append((fn, wrapper))

    def method(self, cls: type, attr: str, layer: str, name: str, hook: _Hook | None = None) -> None:
        original = cls.__dict__[attr]
        self._attrs.append((cls, attr, self._wrap(original, layer, name, hook)))

    def prop(self, cls: type, attr: str, layer: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._attrs.append(
            (cls, attr, property(self._wrap(original.fget, layer, name, None)))
        )

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("probe already installed")
        replacements = {id(fn): (fn, wrapper) for fn, wrapper in self._functions}
        for module in _scanned_modules():
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, key, value))
                    setattr(module, key, hit[1])
        for cls, attr, wrapper in self._attrs:
            self._installed.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []
