"""Parallel experiment scheduler (see ``docs/architecture.md``).

The paper's Section-5 evaluation is a dataset x system x LLM-profile
grid; this package turns each grid into a :class:`~repro.runner.job.\
JobGraph` — ``prepare_dataset`` as a shared upstream node, every
``run_system`` cell as a fan-out node — and executes it on a worker pool
(:class:`~repro.runner.scheduler.Scheduler`) with per-job seeded RNG,
per-cell failure isolation, ledger-backed resume, and live progress.
``workers=1`` replays the legacy sequential drivers bit-identically.
"""

from repro.runner.job import (
    Job,
    JobGraph,
    JobResult,
    config_fingerprint,
    job_rng,
)
from repro.runner.scheduler import (
    GridProgress,
    Scheduler,
    resolve_experiment_workers,
)

__all__ = [
    "Job",
    "JobGraph",
    "JobResult",
    "config_fingerprint",
    "job_rng",
    "GridProgress",
    "Scheduler",
    "resolve_experiment_workers",
]
