"""Sandboxed execution of generated pipeline code.

Executes the script in a fresh namespace (imports are real — only the
documented ``repro`` APIs and numpy are available in this environment),
calls ``run_pipeline(train, test)``, and classifies any raised exception
onto the 23-type taxonomy, recovering the failing line number from the
traceback for the error-correction prompt.

``timeout_seconds`` enforces a hard wall-clock budget on the script via
:func:`repro.resilience.deadline.run_with_timeout` (SIGALRM); a pipeline
that loops or sleeps forever is killed at the budget and reported as a
runtime :class:`~repro.generation.errors.PipelineError`, never a hang.
SIGALRM reaches only the main thread, so a bounded run requested from
any other thread executes in the pool whatever ``mode`` says; unbounded
runs stay where ``mode`` puts them.

``mode`` selects the trust boundary: ``"inproc"`` (default) runs the
script in this interpreter, ``"pool"`` ships it to a warm subprocess
worker (:mod:`repro.execpool`) with per-execution RSS/CPU rlimits and
SIGKILL-on-timeout, so OOM/segfault/``os._exit``/infinite-loop pipelines
are reaped and classified instead of taking down the orchestrator.
Clean pipelines return identical results in both modes (the pool worker
runs the same implementation; only the transport differs) — the parity
contract ``tests/test_execpool.py`` pins.  ``mode=None`` consults
``$REPRO_EXEC_MODE``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.execpool.config import resolve_exec_mode, resolve_memory_mb
from repro.generation.errors import ERROR_TYPES, PipelineError, classify_exception
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.deadline import (
    ExecutionTimeout,
    run_with_timeout,
    signal_timeout_available,
)
from repro.table.table import Table

__all__ = ["ExecutionResult", "execute_pipeline_code", "select_primary_metric"]

#: Fixed fallback priority when the task type is unknown.  A pipeline may
#: emit several test metrics at once (e.g. ``test_auc`` + ``test_accuracy``
#: for classification); AUC wins because it is the paper's headline
#: classification metric, then R², then accuracy.
METRIC_PRIORITY = ("test_auc", "test_r2", "test_accuracy")

_TASK_METRIC_ORDER = {
    "regression": ("test_r2", "test_auc", "test_accuracy"),
    "binary": ("test_auc", "test_accuracy", "test_r2"),
    "multiclass": ("test_auc", "test_accuracy", "test_r2"),
    "classification": ("test_auc", "test_accuracy", "test_r2"),
}


def select_primary_metric(
    metrics: dict[str, Any], task_type: str | None = None
) -> float | None:
    """Pick the headline test metric out of a pipeline's metric dict.

    With a known ``task_type`` the ordering is task-aware: regression
    prefers ``test_r2`` even when a pipeline also emitted ``test_auc``;
    classification prefers ``test_auc`` then ``test_accuracy``.  Without a
    task type the documented :data:`METRIC_PRIORITY` applies.  Returns
    ``None`` when no known test metric is present.
    """
    order = _TASK_METRIC_ORDER.get(task_type or "", METRIC_PRIORITY)
    for key in order:
        if key in metrics:
            return float(metrics[key])
    return None


@dataclass
class ExecutionResult:
    """Outcome of one pipeline execution."""

    success: bool
    metrics: dict[str, Any] = field(default_factory=dict)
    error: PipelineError | None = None
    runtime_seconds: float = 0.0

    @property
    def primary_metric(self) -> float | None:
        """Headline metric under :data:`METRIC_PRIORITY` (task-agnostic)."""
        return select_primary_metric(self.metrics)

    def primary_metric_for(self, task_type: str) -> float | None:
        """Task-aware headline metric (see :func:`select_primary_metric`)."""
        return select_primary_metric(self.metrics, task_type)


def _failing_line(exc: BaseException, filename: str) -> int | None:
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        if frame.filename == filename:
            return frame.lineno
    return None


def execute_pipeline_code(
    code: str,
    train: Table,
    test: Table,
    filename: str = "<pipeline>",
    timeout_seconds: float | None = None,
    mode: str | None = None,
    memory_mb: int | None = None,
) -> ExecutionResult:
    """Compile and run the script; never raises, always classifies.

    ``timeout_seconds`` bounds the script's wall-clock runtime (see the
    module docstring).  ``mode`` picks the execution backend
    (``"inproc"`` | ``"pool"``; ``None`` = ``$REPRO_EXEC_MODE`` or
    in-process), except that a bounded run off the main thread always
    goes to the pool.  ``memory_mb`` caps the pool worker's address
    space for this execution (``None`` = ``$REPRO_EXEC_MEMORY_MB`` or
    unlimited; ignored in-process).
    """
    resolved_mode = resolve_exec_mode(mode)
    if (timeout_seconds or 0) > 0 and not signal_timeout_available():
        # SIGALRM cannot bound this thread; a pool worker's main thread can
        resolved_mode = "pool"
    with get_tracer().span(
        "execute.pipeline", rows=train.n_rows, cols=train.n_cols,
        mode=resolved_mode,
    ) as span:
        if resolved_mode == "pool":
            from repro.execpool.pool import get_pool

            result = get_pool().execute(
                code, train, test, filename=filename,
                timeout_seconds=timeout_seconds,
                memory_mb=resolve_memory_mb(memory_mb),
            )
        else:
            result = _execute_pipeline_code_impl(
                code, train, test, filename,
                timeout_seconds=timeout_seconds,
            )
        span.set(success=result.success)
        metrics = get_metrics()
        metrics.inc("execute.runs")
        if result.error is not None:
            span.set(error_type=result.error.error_type.name)
            if result.error.details.get("timed_out"):
                span.set(timed_out=True)
                metrics.inc("execute.timeouts")
        if not result.success and result.error is not None:
            metrics.inc("execute.errors", type=result.error.error_type.name)
        return result


def _execute_pipeline_code_impl(
    code: str,
    train: Table,
    test: Table,
    filename: str = "<pipeline>",
    timeout_seconds: float | None = None,
) -> ExecutionResult:
    start = time.perf_counter()
    namespace: dict[str, Any] = {"__name__": "__catdb_pipeline__"}
    try:
        compiled = compile(code, filename, "exec")
    except SyntaxError as exc:
        elapsed = time.perf_counter() - start
        return ExecutionResult(
            success=False,
            error=classify_exception(exc, line=exc.lineno),
            runtime_seconds=elapsed,
        )

    def _run() -> dict[str, Any]:
        exec(compiled, namespace)  # noqa: S102 - sandbox is the local venv
        run = namespace.get("run_pipeline")
        if run is None:
            raise RuntimeError("script does not define run_pipeline")
        result = run(train, test)
        if not isinstance(result, dict):
            raise RuntimeError("run_pipeline must return a metrics dict")
        return result

    try:
        metrics = run_with_timeout(_run, timeout_seconds)
    except BaseException as exc:  # noqa: BLE001 - everything must be classified
        elapsed = time.perf_counter() - start
        error = classify_exception(exc, line=_failing_line(exc, filename))
        if isinstance(exc, ExecutionTimeout):
            error.details["timed_out"] = True
            error.details["timeout_seconds"] = timeout_seconds
        return ExecutionResult(success=False, error=error, runtime_seconds=elapsed)
    elapsed = time.perf_counter() - start
    error = _semantic_check(metrics, train)
    if error is not None:
        return ExecutionResult(
            success=False, metrics=metrics, error=error, runtime_seconds=elapsed
        )
    return ExecutionResult(success=True, metrics=metrics, runtime_seconds=elapsed)


def _semantic_check(metrics: dict[str, Any], train: Table) -> PipelineError | None:
    """Runtime sanity guards against silent corruption (paper "Guarantees").

    A pipeline that returns non-finite or out-of-range scores is treated as
    a semantic failure even though it did not raise.
    """
    for key, value in metrics.items():
        if key in ("model", "n_features"):
            continue
        if not isinstance(value, (int, float)):
            return PipelineError(
                ERROR_TYPES["no_convergence"],
                f"metric {key!r} is not numeric: {value!r}",
            )
        if value != value:  # NaN
            return PipelineError(
                ERROR_TYPES["no_convergence"], f"metric {key!r} is NaN"
            )
        if key.endswith(("accuracy", "auc")) and not -1e-9 <= value <= 1 + 1e-9:
            return PipelineError(
                ERROR_TYPES["no_convergence"],
                f"metric {key!r}={value} outside [0, 1]",
            )
    return None
