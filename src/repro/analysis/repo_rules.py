"""Self-lint rules for the repro codebase (profile ``"repo"``).

These encode repo invariants that unit tests cannot cheaply pin:

- ``unseeded-random``   — the substrate must be deterministic end to end;
  any global-RNG draw breaks the soak's bit-identical guarantee
- ``wall-clock``        — cached or parallel code must not read wall
  clocks; cache keys and traces built from ``time.time()`` /
  ``datetime.now()`` differ across runs (monotonic timers are fine)
- ``lock-reentry``      — a method holding a non-reentrant lock must not
  call another method of the same object that re-acquires the same lock.
  The ``BUGGY_BREAKER`` fixture in ``tests/test_static_analysis.py``
  shows the shape: ``before_call`` holds ``self._lock`` and calls
  ``failure_rate()``, which blocks acquiring it again.
- ``swallowed-base-exception`` — an ``except BaseException:`` (or bare
  ``except:``) handler that neither re-raises nor uses the bound
  exception eats ``KeyboardInterrupt``/``SystemExit`` and the pool's
  timeout alarms; containment code must classify-and-reraise, never
  silently drop
- ``unbounded-wait``    — ``.join()`` / ``.wait()`` / ``.result()``
  with no timeout blocks forever when the peer dies; every blocking
  wait in the substrate must carry a deadline
- ``per-row-iteration`` — the table layer is dictionary-encoded and
  vectorized; a Python loop over row indices (``for i in
  range(table.n_rows)``, ``for i in range(len(col))`` + ``col[i]``)
  runs orders of magnitude slower than the columnar kernels.
  Deliberate per-row fallbacks carry a ``# repro: allow-per-row``
  pragma on the ``for`` line.

Run with ``repro lint src/repro --profile repo``; CI fails on errors.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.rules import (
    AnalysisContext,
    Finding,
    Severity,
    global_rng_call,
)

__all__ = [
    "UnseededRandomRule",
    "WallClockRule",
    "LockReentryRule",
    "SwallowedBaseExceptionRule",
    "UnboundedWaitRule",
    "PerRowIterationRule",
    "REPO_RULES",
]

_UNSEEDED_RANDOM_MESSAGES = {
    "np-unseeded": "numpy.random.default_rng() without a seed",
    "np-global": "numpy global RNG call 'np.random.{}'",
    "stdlib": "stdlib global RNG call 'random.{}'",
}


class UnseededRandomRule:
    """Global-RNG draws are nondeterministic across processes and runs."""

    id = "unseeded-random"
    description = "global RNG use breaks substrate determinism"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            hit = global_rng_call(ctx, node)
            if hit is not None:
                kind, name = hit
                message = _UNSEEDED_RANDOM_MESSAGES[kind].format(name)
                yield Finding(
                    rule_id=self.id,
                    severity=self.default_severity,
                    message=f"{message} (thread a seeded Generator instead)",
                    line=node.lineno,
                )


#: wall-clock reads; monotonic/perf_counter/process_time are deliberately OK
_WALL_CLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}


class WallClockRule:
    """Wall-clock reads poison cache keys and cross-run comparisons."""

    id = "wall-clock"
    description = "wall-clock read in substrate code (use monotonic timers)"
    default_severity = Severity.WARNING

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield Finding(
                    rule_id=self.id,
                    severity=self.default_severity,
                    message=f"wall-clock read {_WALL_CLOCK_CALLS[dotted]!r} "
                            "(prefer time.monotonic()/perf_counter() for "
                            "durations; pass timestamps in for records)",
                    line=node.lineno,
                )


class LockReentryRule:
    """Holding a non-reentrant lock while calling a method that re-acquires it.

    Per class: collect ``self.<attr> = threading.Lock()`` assignments
    (``RLock`` is reentrant and excluded), map each method to the lock
    attributes it acquires via ``with self.<attr>:``, then flag any
    ``self.<method>(...)`` call made *inside* such a ``with`` block when
    the callee acquires the same attribute.  That call can never return —
    it deadlocks the first time the branch executes.
    """

    id = "lock-reentry"
    description = "re-acquiring a held non-reentrant lock deadlocks"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: AnalysisContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = [
            stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = self._lock_attrs(ctx, methods)
        if not lock_attrs:
            return
        acquires = {m.name: self._acquired_attrs(m, lock_attrs) for m in methods}
        for method in methods:
            for with_node, attr in self._with_blocks(method, lock_attrs):
                for call in ast.walk(with_node):
                    if not isinstance(call, ast.Call):
                        continue
                    callee = self._self_method(call.func)
                    if callee is not None and attr in acquires.get(callee, set()):
                        yield Finding(
                            rule_id=self.id,
                            severity=self.default_severity,
                            message=(
                                f"{cls.name}.{method.name} holds "
                                f"'self.{attr}' and calls self.{callee}(), "
                                f"which re-acquires 'self.{attr}' — this "
                                "deadlocks (use a _locked helper or RLock)"
                            ),
                            line=call.lineno,
                        )

    @staticmethod
    def _lock_attrs(
        ctx: AnalysisContext,
        methods: list[ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> set[str]:
        attrs: set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                if not (
                    isinstance(node.value, ast.Call)
                    and ctx.dotted_name(node.value.func) == "threading.Lock"
                ):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    @staticmethod
    def _self_lock_attr(node: ast.AST, lock_attrs: set[str]) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in lock_attrs
        ):
            return node.attr
        return None

    @classmethod
    def _with_blocks(
        cls,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: set[str],
    ) -> Iterator[tuple[ast.With | ast.AsyncWith, str]]:
        for node in ast.walk(method):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                attr = cls._self_lock_attr(item.context_expr, lock_attrs)
                if attr is not None:
                    yield node, attr

    @classmethod
    def _acquired_attrs(
        cls,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: set[str],
    ) -> set[str]:
        acquired: set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    attr = cls._self_lock_attr(item.context_expr, lock_attrs)
                    if attr is not None:
                        acquired.add(attr)
            elif isinstance(node, ast.Call):
                # self.X.acquire() counts too
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "acquire"
                    and cls._self_lock_attr(func.value, lock_attrs) is not None
                ):
                    acquired.add(func.value.attr)  # type: ignore[union-attr]
        return acquired

    @staticmethod
    def _self_method(func: ast.AST) -> str | None:
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return func.attr
        return None


class SwallowedBaseExceptionRule:
    """``except BaseException``/bare ``except`` must not eat the exception.

    ``BaseException`` covers ``KeyboardInterrupt``, ``SystemExit`` and the
    execution pool's timeout alarms — a handler that neither re-raises
    nor touches the bound exception turns all of them into silent
    no-ops.  Handlers that *classify* the exception (use the ``as exc``
    name) or re-raise on any path are fine; so is
    ``contextlib.suppress`` of narrower exceptions, but
    ``contextlib.suppress(BaseException)`` is flagged too.
    """

    id = "swallowed-base-exception"
    description = "BaseException handler that neither re-raises nor inspects"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_suppress(ctx, node)

    def _check_handler(
        self, ctx: AnalysisContext, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if handler.type is None:
            caught = "bare 'except:'"
        elif ctx.dotted_name(handler.type) in ("BaseException", "builtins.BaseException"):
            caught = "'except BaseException:'"
        else:
            return
        if self._reraises(handler) or self._uses_bound_name(handler):
            return
        yield Finding(
            rule_id=self.id,
            severity=self.default_severity,
            message=f"{caught} swallows KeyboardInterrupt/SystemExit and "
                    "timeout alarms without re-raising or classifying "
                    "(catch Exception, or re-raise after cleanup)",
            line=handler.lineno,
        )

    def _check_suppress(
        self, ctx: AnalysisContext, call: ast.Call
    ) -> Iterator[Finding]:
        if ctx.dotted_name(call.func) != "contextlib.suppress":
            return
        for arg in call.args:
            if ctx.dotted_name(arg) in ("BaseException", "builtins.BaseException"):
                yield Finding(
                    rule_id=self.id,
                    severity=self.default_severity,
                    message="contextlib.suppress(BaseException) swallows "
                            "KeyboardInterrupt/SystemExit and timeout alarms "
                            "(suppress a narrower exception type)",
                    line=call.lineno,
                )
                return

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(n, ast.Raise) for n in ast.walk(handler))

    @staticmethod
    def _uses_bound_name(handler: ast.ExceptHandler) -> bool:
        if handler.name is None:
            return False
        return any(
            isinstance(n, ast.Name) and n.id == handler.name
            for stmt in handler.body
            for n in ast.walk(stmt)
        )


class UnboundedWaitRule:
    """Blocking waits must carry a timeout.

    A zero-argument ``.join()`` / ``.wait()`` / ``.result()`` blocks the
    caller forever if the peer thread, process or future never finishes
    — exactly the hang class the deadline/watchdog machinery exists to
    prevent.  Any positional or keyword argument exempts the call
    (``sep.join(parts)`` and ``q.join(...)`` never collide because
    string joins always pass an iterable).
    """

    id = "unbounded-wait"
    description = "blocking wait without a timeout can hang forever"
    default_severity = Severity.ERROR

    _BLOCKING = frozenset({"join", "wait", "result"})

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._BLOCKING
                and not node.args
                and not node.keywords
            ):
                yield Finding(
                    rule_id=self.id,
                    severity=self.default_severity,
                    message=f"'.{node.func.attr}()' without a timeout blocks "
                            "forever if the peer never finishes (pass "
                            "timeout=... and handle the expiry)",
                    line=node.lineno,
                )


class PerRowIterationRule:
    """Python row loops over Columns/Tables defeat the columnar layer.

    Two shapes are flagged:

    - ``for ... in range(<expr>.n_rows)`` (or ``range(a, <expr>.n_rows)``)
      — iterating row indices of a table is per-row by construction;
    - ``for i in range(len(X))`` whose body subscripts ``X[i]`` — the
      classic index-and-peek loop; each ``col[i]`` crosses the
      Python/array boundary once per row.

    Deliberate fallbacks (pathological pools, unhashable cells, seed
    reference implementations in tests) stay allowed with a
    ``# repro: allow-per-row`` pragma on the ``for`` line.
    """

    id = "per-row-iteration"
    description = "per-row loop over a Column/Table (use the vectorized kernels)"
    default_severity = Severity.WARNING

    _PRAGMA = "repro: allow-per-row"

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            line = ctx.lines[node.lineno - 1] if node.lineno <= len(ctx.lines) else ""
            if self._PRAGMA in line:
                continue
            yield from self._check_loop(node)

    def _check_loop(self, loop: ast.For | ast.AsyncFor) -> Iterator[Finding]:
        rng = self._range_call(loop.iter)
        if rng is None:
            return
        for arg in rng.args:
            if isinstance(arg, ast.Attribute) and arg.attr == "n_rows":
                yield Finding(
                    rule_id=self.id,
                    severity=self.default_severity,
                    message="loop over range(....n_rows) visits the table "
                            "row by row (use take/mask_rows/codes kernels, "
                            "or mark a deliberate fallback with "
                            f"'# {self._PRAGMA}')",
                    line=loop.lineno,
                )
                return
        subscripted = self._len_subscript_target(loop, rng)
        if subscripted is not None:
            yield Finding(
                rule_id=self.id,
                severity=self.default_severity,
                message=f"'for i in range(len({subscripted}))' with "
                        f"'{subscripted}[i]' in the body reads one cell per "
                        "iteration (vectorize, or mark a deliberate "
                        f"fallback with '# {self._PRAGMA}')",
                line=loop.lineno,
            )

    @staticmethod
    def _range_call(iter_node: ast.AST) -> ast.Call | None:
        """The ``range(...)`` call behind the iterable, unwrapping
        ``enumerate``/``reversed``/``zip`` shells."""
        node = iter_node
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("enumerate", "reversed", "zip")
            and node.args
        ):
            node = node.args[0]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
        ):
            return node
        return None

    @classmethod
    def _len_subscript_target(
        cls, loop: ast.For | ast.AsyncFor, rng: ast.Call
    ) -> str | None:
        """Name ``X`` when the loop is ``for i in range(len(X))`` and the
        body contains ``X[i]``; otherwise ``None``."""
        if len(rng.args) != 1 or not isinstance(loop.target, ast.Name):
            return None
        call = rng.args[0]
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "len"
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
        ):
            return None
        seq = call.args[0].id
        index = loop.target.id
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == seq
                    and isinstance(node.slice, ast.Name)
                    and node.slice.id == index
                ):
                    return seq
        return None


#: the self-lint profile run over ``src/repro`` in CI
REPO_RULES = (
    UnseededRandomRule(),
    WallClockRule(),
    LockReentryRule(),
    SwallowedBaseExceptionRule(),
    UnboundedWaitRule(),
    PerRowIterationRule(),
)
