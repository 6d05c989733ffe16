"""Job / JobGraph model for the parallel experiment scheduler.

An experiment grid (dataset x system x LLM profile) becomes a small DAG:
``prepare_dataset`` is one shared *setup* node per dataset, derived
artifacts (refinement, cleaning, corruption) are further setup nodes, and
every ``run_system`` cell is a fan-out *cell* node depending on them.  The scheduler
(:mod:`repro.runner.scheduler`) executes the DAG on a worker pool.

Determinism is by construction: a job's work may depend only on its
declared inputs — its dependency results, its closed-over config, and its
own seeded RNG (:func:`job_rng`, spawned from a
:class:`numpy.random.SeedSequence` keyed by the job's id and seed, never
by scheduling order) — so ``workers=1`` and ``workers=N`` produce
bit-identical results.

Cell jobs carry a ``config`` dict; its :func:`config_fingerprint` keys
the run-ledger record the scheduler appends per cell, which is what
``--resume`` matches against to skip already-computed cells.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "Job",
    "JobGraph",
    "JobResult",
    "config_fingerprint",
    "job_rng",
]


def config_fingerprint(config: dict[str, Any]) -> str:
    """Stable md5 over a canonical-JSON encoding of a cell's config.

    Keys are sorted and values rendered with ``default=str``, so the
    fingerprint is identical across processes and ``PYTHONHASHSEED``
    values (the same requirement as the profile cache's
    :func:`~repro.catalog.cache.column_fingerprint`).
    """
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.md5(canonical.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One node of the experiment DAG.

    ``fn`` receives the results of ``deps`` positionally, in declaration
    order.  ``config`` marks a *cell* (fingerprinted, ledger-recorded,
    resumable); setup nodes (prepare/refine/clean) leave it ``None`` and
    always re-execute on resume because their results (tables, catalogs)
    are not JSON-serializable.
    """

    job_id: str
    fn: Callable[..., Any]
    deps: tuple[str, ...] = ()
    config: dict[str, Any] | None = None
    seed: int = 0

    @property
    def is_cell(self) -> bool:
        return self.config is not None

    def fingerprint(self, namespace: str = "") -> str:
        payload = dict(self.config or {})
        if namespace:
            payload["__grid__"] = namespace
        return config_fingerprint(payload)

    def spawn_rng(self) -> np.random.Generator:
        """This job's own deterministic RNG, independent of scheduling.

        Keyed by ``(seed, md5(job_id))`` so two jobs never share a
        stream and the stream never depends on worker interleaving.
        """
        digest = hashlib.md5(self.job_id.encode("utf-8")).digest()
        entropy = [self.seed] + [
            int.from_bytes(digest[i:i + 4], "little") for i in (0, 4, 8, 12)
        ]
        return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class JobResult:
    """Outcome of one scheduled job (ok, cached, failed, or skipped)."""

    job_id: str
    status: str  # "ok" | "cached" | "failed" | "skipped"
    value: Any = None
    error_type: str = ""
    error: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


class JobGraph:
    """An insertion-ordered DAG of :class:`Job` nodes.

    Insertion order is the determinism anchor: result assembly, resume
    bookkeeping, and rendered-table row order all follow it, never
    completion order.
    """

    def __init__(self) -> None:
        self.jobs: dict[str, Job] = {}

    def __len__(self) -> int:
        return len(self.jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.jobs

    def add(
        self,
        job_id: str,
        fn: Callable[..., Any],
        deps: tuple[str, ...] | list[str] = (),
        config: dict[str, Any] | None = None,
        seed: int = 0,
    ) -> str:
        """Add one job; returns its id so call sites can chain deps."""
        if job_id in self.jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        for dep in deps:
            if dep not in self.jobs:
                raise ValueError(
                    f"job {job_id!r} depends on unknown job {dep!r} "
                    "(dependencies must be added first)"
                )
        self.jobs[job_id] = Job(
            job_id=job_id, fn=fn, deps=tuple(deps), config=config, seed=seed
        )
        return job_id

    def cells(self) -> list[Job]:
        """Cell jobs in insertion order (the grid's logical rows)."""
        return [job for job in self.jobs.values() if job.is_cell]

    def validate(self) -> None:
        """Raise ``ValueError`` on cycles (unknown deps are caught in add)."""
        state: dict[str, int] = {}  # 0 visiting, 1 done

        def visit(job_id: str, chain: tuple[str, ...]) -> None:
            mark = state.get(job_id)
            if mark == 1:
                return
            if mark == 0:
                cycle = " -> ".join(chain + (job_id,))
                raise ValueError(f"dependency cycle: {cycle}")
            state[job_id] = 0
            for dep in self.jobs[job_id].deps:
                visit(dep, chain + (job_id,))
            state[job_id] = 1

        for job_id in self.jobs:
            visit(job_id, ())


# Per-job RNG handed to the running job via its execution context (the
# scheduler runs every job in a fresh contextvars.Context, so this var
# can never leak between concurrently running jobs).
_current_job_rng: contextvars.ContextVar[np.random.Generator | None] = (
    contextvars.ContextVar("repro_job_rng", default=None)
)


def job_rng() -> np.random.Generator:
    """The running job's seeded RNG (scheduler-injected).

    Outside a scheduled job this raises, which keeps accidental global
    fallback (and with it scheduling-dependent randomness) impossible.
    """
    rng = _current_job_rng.get()
    if rng is None:
        raise RuntimeError(
            "job_rng() is only available inside a scheduled job"
        )
    return rng
