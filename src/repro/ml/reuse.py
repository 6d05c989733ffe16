"""Run-scoped reuse of identical forest fits.

CatDB validates each candidate on a local sample before its final run,
and CatDB Chain re-validates at every step, so one ``generate`` run fits
the same model on the same data several times.  Inside
:func:`fit_reuse_scope`, a ``fit`` wrapped by :func:`reusable_fit` whose
class, parameters and validated inputs match an earlier fit in the same
scope restores that fit's state instead of fitting again.  Outside a
scope the wrapped ``fit`` runs unchanged.

The state is deep-copied on store and again on every hit, so a pipeline
that mutates its fitted model in place cannot change a later run.  A fit
that raises stores nothing, and one scope holds at most
:data:`_BUDGET_BYTES` of snapshot arrays.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import functools
import hashlib
import pickle
from typing import Any, Callable, Iterator

import numpy as np

from repro.ml.base import check_X_y
from repro.obs.metrics import get_metrics

__all__ = ["fit_reuse_scope", "reusable_fit"]

#: Summed ndarray ``nbytes`` one scope may hold; a snapshot that does
#: not fit is not stored.
_BUDGET_BYTES = 64 << 20

_SCALARS = (type(None), bool, int, float, str)
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError, ValueError, RecursionError)


class _Scope:
    def __init__(self) -> None:
        self.entries: dict[bytes, dict[str, Any]] = {}
        self.nbytes = 0


_active: contextvars.ContextVar[_Scope | None] = contextvars.ContextVar(
    "repro_fit_reuse", default=None
)


@contextlib.contextmanager
def fit_reuse_scope() -> Iterator[None]:
    """Open a fresh reuse scope for the current context; dropped on exit."""
    token = _active.set(_Scope())
    try:
        yield
    finally:
        _active.reset(token)


def _fit_key(estimator: Any, X: np.ndarray, y: np.ndarray) -> bytes | None:
    """Digest of class, scalar params and validated inputs; ``None`` = miss."""
    params = sorted(estimator.get_params().items())
    if any(type(value) not in _SCALARS for _, value in params):
        return None
    cls = type(estimator)
    digest = hashlib.blake2b(digest_size=32)
    digest.update(repr((cls.__module__, cls.__qualname__, params)).encode())
    for array in (X, y):
        if array.dtype.kind in "biufUS":
            payload = np.ascontiguousarray(array).tobytes()
        elif array.dtype.kind == "O":
            try:
                payload = pickle.dumps(array.tolist(), protocol=4)
            except _UNPICKLABLE:
                return None
        else:
            return None
        digest.update(repr((array.dtype.str, array.shape, len(payload))).encode())
        digest.update(payload)
    return digest.digest()


def _nbytes(obj: Any, seen: set[int]) -> int:
    """Summed ndarray ``nbytes`` reachable through containers and objects."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(item, seen) for item in obj.values())
    if hasattr(obj, "__dict__"):
        return _nbytes(vars(obj), seen)
    return 0


def reusable_fit(fit: Callable[[Any, Any, Any], Any]) -> Callable[[Any, Any, Any], Any]:
    """Wrap a ``fit(self, X, y)`` defined in this package for scoped reuse.

    Only instances of classes from ``fit``'s own module take part: a
    subclass defined elsewhere may change what a fit computes without
    changing its key, so it always fits.
    """

    @functools.wraps(fit)
    def wrapper(self: Any, X: Any, y: Any) -> Any:
        scope = _active.get()
        if scope is None or type(self).__module__ != fit.__module__:
            return fit(self, X, y)
        X, y = check_X_y(X, y)
        key = _fit_key(self, X, y)
        entry = scope.entries.get(key) if key is not None else None
        get_metrics().inc(
            "ml.fit_reuse", estimator=type(self).__name__,
            outcome="miss" if entry is None else "hit",
        )
        if entry is not None:
            vars(self).update(copy.deepcopy(entry))
            return self
        before = dict(vars(self))
        result = fit(self, X, y)
        if key is not None:
            written = {
                name: value for name, value in vars(self).items()
                if name not in before or before[name] is not value
            }
            size = _nbytes(written, set())
            if scope.nbytes + size <= _BUDGET_BYTES:
                snapshot = copy.deepcopy(written)
                scope.nbytes += size
                scope.entries[key] = snapshot
        return result

    return wrapper
