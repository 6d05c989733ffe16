"""Worker-pool execution of an experiment :class:`~repro.runner.job.JobGraph`.

The scheduler walks the DAG with a ready queue: a job becomes eligible
when every dependency succeeded, and eligible jobs are submitted to a
thread pool in insertion order (FIFO), so ``workers=1`` replays the
legacy sequential drivers exactly.  Threads are the right pool for this
workload — the hot work inside a cell (numpy, hashlib, the simulated
LLM) releases the GIL, and cells share prepared datasets without
serialization; ``processes=True`` call sites can still fan whole grids
out externally because every cell is self-describing (config + seed).

Concurrency safety rests on the three substrate fixes shipped with this
scheduler: contextvars-scoped observability sessions (each cell records
its own ledger entry), locked single-``write()`` ledger appends, and
process-stable profile-cache fingerprints.  Each job additionally runs
in a **fresh** ``contextvars.Context`` so a cell's ``run_session`` can
never nest into a scheduler- or sibling-owned session.

Failure isolation follows the resilience taxonomy: one crashed cell
becomes a recorded failure row (classified transient / give-up /
unexpected), its dependents are skipped, and the rest of the grid keeps
running.

Resume: when a ledger is configured, every completed cell appends one
``runner.cell`` record keyed by its config fingerprint; a later run with
``resume=True`` restores those cells' values instead of re-executing
them.
"""

from __future__ import annotations

import contextvars
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Any

from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.session import RunSession, run_session
from repro.resilience.errors import ResilienceGiveUp, TransientError
from repro.runner.job import Job, JobGraph, JobResult, _current_job_rng

__all__ = ["Scheduler", "resolve_experiment_workers", "GridProgress"]

_WORKERS_ENV = "REPRO_EXPERIMENT_WORKERS"


def resolve_experiment_workers(workers: int | None) -> int:
    """Normalize the scheduler's ``workers`` knob (>= 1).

    ``None`` consults ``REPRO_EXPERIMENT_WORKERS`` and falls back to 1
    (sequential); ``0`` or negative means "use all cores".  Raises
    ``ValueError`` when the variable is set but not an integer.
    """
    if workers is None:
        env = os.environ.get(_WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{_WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _classify_failure(exc: BaseException) -> str:
    """Map a cell crash onto the resilience taxonomy for the failure row."""
    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, ResilienceGiveUp):
        return "give_up"
    return type(exc).__name__


class GridProgress:
    """Live ``N/M cells, failures, ETA`` reporting on stderr."""

    def __init__(self, total_cells: int, label: str, enabled: bool) -> None:
        self.total = total_cells
        self.label = label
        self.enabled = enabled
        self.done = 0
        self.failures = 0
        self._start = time.perf_counter()

    def update(self, result: JobResult) -> None:
        self.done += 1
        if not result.ok:
            self.failures += 1
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self._start
        if self.done:
            eta = elapsed / self.done * (self.total - self.done)
            eta_text = f"{eta:.1f}s"
        else:
            eta_text = "?"
        print(
            f"[{self.label}] {self.done}/{self.total} cells, "
            f"{self.failures} failures, elapsed {elapsed:.1f}s, "
            f"eta {eta_text}",
            file=sys.stderr,
        )


class Scheduler:
    """Executes a :class:`JobGraph` on a thread pool, deterministically."""

    def __init__(
        self,
        workers: int | None = None,
        ledger_path: str | Path | None = None,
        resume: bool = False,
        progress: bool = False,
        label: str = "grid",
    ) -> None:
        self.workers = resolve_experiment_workers(workers)
        self.ledger = RunLedger(ledger_path) if ledger_path is not None else None
        self.resume = resume
        self.progress_enabled = progress
        self.label = label

    # -- resume ----------------------------------------------------------------

    def _restorable(self) -> dict[str, Any]:
        """fingerprint -> recorded cell value, from prior successful runs."""
        if self.ledger is None or not self.resume:
            return {}
        restored: dict[str, Any] = {}
        for record in self.ledger.iter_records():
            if record.kind != "runner.cell":
                continue
            if record.outcome.get("status") != "ok":
                continue
            fingerprint = record.config.get("fingerprint")
            if fingerprint:
                restored[fingerprint] = record.outcome.get("value")
        return restored

    def _record_cell(self, job: Job, result: JobResult) -> None:
        """Persist one cell outcome (the resume key and the audit row)."""
        if self.ledger is None or not job.is_cell:
            return
        config = dict(job.config or {})
        outcome: dict[str, Any] = {"status": result.status,
                                   "seconds": round(result.seconds, 4)}
        if result.ok:
            outcome["value"] = result.value
        else:
            outcome["error_type"] = result.error_type
            outcome["error"] = result.error
        self.ledger.append(RunRecord(
            run_id=RunRecord.new_id(),
            kind="runner.cell",
            created_at=RunRecord.now_iso(),
            dataset=str(config.get("dataset", "")),
            llm=str(config.get("llm", "")),
            config={
                "fingerprint": job.fingerprint(self.label),
                "grid": self.label,
                **config,
            },
            outcome=outcome,
        ))

    # -- execution -------------------------------------------------------------

    def _execute(self, job: Job, dep_values: list[Any],
                 session: RunSession | None) -> JobResult:
        """Run one job in an isolated context; never raises."""
        tracer = session.tracer if session is not None else None
        parent = tracer.current() if tracer is not None else None
        start = time.perf_counter()

        def run_isolated() -> Any:
            # A *fresh* Context (not a copy): the job must not inherit the
            # scheduler's session/tracer, or its own run_session would
            # nest-reuse it and conflate every cell into one record.
            ctx = contextvars.Context()

            def call() -> Any:
                _current_job_rng.set(job.spawn_rng())
                return job.fn(*dep_values)

            return ctx.run(call)

        try:
            if tracer is not None:
                with tracer.attach(parent):
                    with tracer.span(
                        "runner.job", job=job.job_id,
                        cell=job.is_cell,
                    ):
                        value = run_isolated()
            else:
                value = run_isolated()
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            return JobResult(
                job_id=job.job_id,
                status="failed",
                error_type=_classify_failure(exc),
                error=f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - start,
            )
        return JobResult(
            job_id=job.job_id, status="ok", value=value,
            seconds=time.perf_counter() - start,
        )

    def run(self, graph: JobGraph) -> dict[str, JobResult]:
        """Execute the graph; returns ``{job_id: JobResult}`` for every job.

        The mapping is assembled in the graph's insertion order, so
        downstream row building is identical at any worker count.
        """
        graph.validate()
        restored = self._restorable()
        cells = graph.cells()
        with run_session(
            "runner",
            config={
                "grid": self.label, "workers": self.workers,
                "cells": len(cells), "jobs": len(graph),
                "resume": self.resume,
            },
        ) as session:
            results = self._run_jobs(graph, restored, session)
            if session is not None:
                session.metrics.gauge("runner.workers", self.workers)
                for result in results.values():
                    session.metrics.inc("runner.jobs_total")
                    session.metrics.inc(
                        "runner.jobs", status=result.status
                    )
                session.outcome.update(
                    cells=len(cells),
                    failed=sum(1 for r in results.values()
                               if r.status == "failed"),
                    cached=sum(1 for r in results.values()
                               if r.status == "cached"),
                    success=all(r.ok for r in results.values()),
                )
        # Re-key in insertion order so iteration order is deterministic.
        return {job_id: results[job_id] for job_id in graph.jobs}

    def _run_jobs(
        self,
        graph: JobGraph,
        restored: dict[str, Any],
        session: RunSession | None,
    ) -> dict[str, JobResult]:
        results: dict[str, JobResult] = {}
        progress = GridProgress(
            len(graph.cells()), self.label, self.progress_enabled
        )

        # Resume hits resolve before scheduling: a cached cell is complete
        # for dependency purposes and never touches the pool.
        for job in graph.jobs.values():
            if job.is_cell:
                value = restored.get(job.fingerprint(self.label), _MISSING)
                if value is not _MISSING:
                    results[job.job_id] = JobResult(
                        job_id=job.job_id, status="cached", value=value
                    )
                    progress.update(results[job.job_id])

        dependents: dict[str, list[str]] = {}
        waiting: dict[str, int] = {}
        for job in graph.jobs.values():
            if job.job_id in results:
                continue
            open_deps = [d for d in job.deps if d not in results]
            waiting[job.job_id] = len(open_deps)
            for dep in open_deps:
                dependents.setdefault(dep, []).append(job.job_id)

        ready = [job_id for job_id, count in waiting.items() if count == 0]

        def finish(result: JobResult) -> list[str]:
            """Record a terminal result; returns newly ready/skipped ids."""
            results[result.job_id] = result
            job = graph.jobs[result.job_id]
            self._record_cell(job, result)
            if job.is_cell:
                progress.update(result)
            newly_ready: list[str] = []
            for child_id in dependents.get(result.job_id, ()):
                if child_id in results:
                    continue
                if not result.ok:
                    # Propagate: a dead upstream kills the cell, not the grid.
                    newly_ready.extend(finish(JobResult(
                        job_id=child_id,
                        status="skipped",
                        error_type="upstream_failed",
                        error=f"dependency {result.job_id!r} "
                              f"{result.status}: {result.error}",
                    )))
                    continue
                waiting[child_id] -= 1
                if waiting[child_id] == 0:
                    newly_ready.append(child_id)
            return newly_ready

        pool_size = min(self.workers, max(1, len(graph)))
        with ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-runner"
        ) as pool:
            in_flight: dict[Future, str] = {}

            def submit(job_id: str) -> None:
                job = graph.jobs[job_id]
                dep_values = [results[d].value for d in job.deps]
                future = pool.submit(self._execute, job, dep_values, session)
                in_flight[future] = job_id

            for job_id in ready:
                submit(job_id)
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                newly_ready: list[str] = []
                for future in done:
                    in_flight.pop(future)
                    # the future is in the done set, so result() cannot
                    # block; the timeout pins that invariant
                    newly_ready.extend(finish(future.result(timeout=0)))
                for job_id in newly_ready:
                    submit(job_id)

        # Anything still unfinished had an unresolvable dependency chain
        # (can only happen via validate-passing graphs whose deps all
        # failed before submission) — mark skipped for completeness.
        for job_id in graph.jobs:
            if job_id not in results:
                results[job_id] = JobResult(
                    job_id=job_id, status="skipped",
                    error_type="upstream_failed",
                    error="never became ready",
                )
        return results


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
