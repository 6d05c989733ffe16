"""Shared experiment plumbing: dataset preparation, the one system
runner, grid scheduling, and paper-style table rendering.

:data:`SYSTEMS` names the ten systems paper Section 5 compares, each
with its runner and run-session kind; :func:`run_system` runs any of
them on a :class:`PreparedDataset`.

Grid-shaped drivers (dataset x system x LLM cells) build a
:class:`~repro.runner.job.JobGraph` and hand it to :func:`run_grid`,
which executes it on the parallel experiment scheduler
(``workers``/``REPRO_EXPERIMENT_WORKERS``) with per-cell failure
isolation and ledger-backed resume; rows come back in cell-definition
order regardless of completion order, so rendered tables are identical
at any worker count.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from repro.baselines.aide import AIDEBaseline
from repro.baselines.autogen import AutoGenBaseline
from repro.baselines.automl import AutoGluonLike, AutoSklearnLike, FlamlLike, H2OLike
from repro.baselines.base import BaselineReport
from repro.baselines.caafe import CAAFEBaseline
from repro.catalog.catalog import DataCatalog
from repro.datasets.registry import DatasetBundle, load_dataset
from repro.generation.generator import GenerationReport, make_generator
from repro.llm import build_client
from repro.obs.session import configured_ledger_path, run_session, tracing_enabled
from repro.runner import JobGraph, JobResult, Scheduler
from repro.ml.model_selection import split_for_task
from repro.table.table import Table
from repro.text_table import format_table

__all__ = [
    "PreparedDataset",
    "prepare_dataset",
    "run_catdb",
    "SystemSpec",
    "SYSTEMS",
    "run_system",
    "failure_marker",
    "add_prepare_nodes",
    "run_grid",
    "grid_rows",
    "LLM_PROFILES",
    "format_table",
    "metric_str",
]

LLM_PROFILES = ("gpt-4o", "gemini-1.5", "llama3.1-70b")

# dataset-size overrides used in quick mode (benchmark suite)
_QUICK_SIZES = {
    "imdb": 800, "kdd98": 500, "walking": 800, "accidents": 700,
    "financial": 700, "airline": 600, "gas_drift": 600, "volkert": 700,
    "yelp": 600, "bike_sharing": 800, "nyc": 800, "house_sales": 800,
    "survey": 700, "eu_it": 700, "cmc": 700, "diabetes": 500,
    "utility": 700, "etailing": 439, "tictactoe": 600, "wifi": 98,
}


@dataclass
class PreparedDataset:
    """A loaded, split, and profiled dataset ready for any system."""

    bundle: DatasetBundle
    train: Table
    test: Table
    catalog: DataCatalog

    @property
    def name(self) -> str:
        return self.bundle.name

    @property
    def target(self) -> str:
        return self.bundle.target

    @property
    def task_type(self) -> str:
        return self.bundle.task_type

    @property
    def meta(self) -> dict[str, Any]:
        spec = self.bundle.spec
        return {
            "paper_cells": spec.paper_rows * spec.paper_cols,
            "paper_rows": spec.paper_rows,
            "paper_cols": spec.paper_cols,
        }


def prepare_dataset(
    name: str,
    seed: int = 0,
    quick: bool = True,
    test_size: float = 0.3,
    **overrides: Any,
) -> PreparedDataset:
    """Load, 70/30-split, and profile one dataset."""
    if quick and name in _QUICK_SIZES and "n" not in overrides:
        overrides["n"] = _QUICK_SIZES[name]
    bundle = load_dataset(name, seed=seed, **overrides)
    train, test = split_for_task(
        bundle.unified, bundle.target, bundle.task_type, test_size=test_size, seed=seed
    )
    catalog = bundle.profile(seed=seed)
    return PreparedDataset(bundle=bundle, train=train, test=test, catalog=catalog)


def run_catdb(
    prepared: PreparedDataset,
    llm_name: str = "gpt-4o",
    beta: int = 1,
    alpha: int | None = None,
    combination: int = 11,
    iteration: int = 0,
    seed: int = 0,
    max_fix_attempts: int = 5,
    fault_injection: bool = True,
    catalog: DataCatalog | None = None,
    train: Table | None = None,
    test: Table | None = None,
    fault_rate: float = 0.0,
    max_retries: int | None = None,
    llm_timeout: float | None = None,
    exec_timeout: float | None = None,
    exec_mode: str | None = None,
    exec_memory_mb: int | None = None,
    retry_base_delay: float = 0.05,
) -> GenerationReport:
    """Run CatDB (beta=1) or CatDB Chain (beta>1) on a prepared dataset.

    When tracing is enabled (``repro --trace`` / ``REPRO_TRACE=1``), each
    call records one run-ledger entry with the full span tree, so every
    figure/table experiment leaves an audit trail of where its time and
    tokens went.

    The resilience knobs (``fault_rate``, ``max_retries``, ``llm_timeout``,
    ``exec_timeout``) assemble the FlakyLLM/ResilientLLM transport stack
    and the executor's wall-clock budget; ``exec_mode="pool"`` moves
    pipeline execution into isolated subprocess workers
    (``exec_memory_mb`` caps each one's address space).
    """
    llm = build_client(
        llm_name, seed=seed, fault_injection=fault_injection,
        fault_rate=fault_rate, max_retries=max_retries,
        llm_timeout=llm_timeout, retry_base_delay=retry_base_delay,
    )
    generator = make_generator(
        llm, beta=beta, alpha=alpha, combination=combination,
        max_fix_attempts=max_fix_attempts,
        exec_timeout_seconds=exec_timeout,
        exec_mode=exec_mode, exec_memory_mb=exec_memory_mb,
    )
    return _observed(
        "catdb", prepared, llm_name,
        {
            "beta": beta, "alpha": alpha, "combination": combination,
            "iteration": iteration, "seed": seed,
            "max_fix_attempts": max_fix_attempts,
            "fault_injection": fault_injection,
            "fault_rate": fault_rate, "max_retries": max_retries,
            "llm_timeout": llm_timeout, "exec_timeout": exec_timeout,
            "exec_mode": exec_mode,
        },
        lambda: generator.generate(
            train if train is not None else prepared.train,
            test if test is not None else prepared.test,
            catalog if catalog is not None else prepared.catalog,
            iteration=iteration,
        ),
        ("success", "variant", "primary_metric", "total_tokens",
         "fix_attempts", "fallback_used", "degraded", "end_to_end_seconds"),
    )


@dataclass(frozen=True)
class SystemSpec:
    """One of the systems paper Section 5 compares.

    ``kind`` is the ``kind`` of the ledger session each run records.
    A ``catdb`` system's ``runner`` runs it (``run_catdb`` at its β); a
    comparator's ``runner`` builds the object whose ``run(train, test,
    ...)`` does: from ``(llm, description, seed)`` for a ``baseline``,
    from ``(time_budget_seconds=, seed=)`` for an ``automl`` tool.
    """

    kind: str  # "catdb" | "baseline" | "automl"
    runner: Callable[..., Any]


SYSTEMS: dict[str, SystemSpec] = {
    "catdb": SystemSpec("catdb", partial(run_catdb, beta=1)),
    "catdb-chain": SystemSpec("catdb", partial(run_catdb, beta=2)),
    "caafe-tabpfn": SystemSpec("baseline", lambda llm, description, seed:
                               CAAFEBaseline(llm, model="tabpfn", seed=seed)),
    "caafe-rforest": SystemSpec("baseline", lambda llm, description, seed:
                                CAAFEBaseline(llm, model="rforest", seed=seed)),
    "aide": SystemSpec("baseline", lambda llm, description, seed:
                       AIDEBaseline(llm, description=description, seed=seed)),
    "autogen": SystemSpec("baseline", lambda llm, description, seed:
                          AutoGenBaseline(llm, description=description,
                                          seed=seed)),
    "h2o": SystemSpec("automl", H2OLike),
    "flaml": SystemSpec("automl", FlamlLike),
    "autogluon": SystemSpec("automl", AutoGluonLike),
    "autosklearn": SystemSpec("automl", AutoSklearnLike),
}

#: the options each session kind takes; ``run_system`` drops the ones
#: another kind takes, so one grid cell can pass every system the same
_KIND_OPTIONS = {
    "catdb": frozenset(inspect.signature(run_catdb).parameters)
    - {"prepared", "llm_name", "beta", "seed"},
    "baseline": frozenset({"train", "test"}),
    "automl": frozenset({"train", "test", "time_budget_seconds"}),
}


def run_system(
    prepared: PreparedDataset,
    system: str,
    llm_name: str = "gpt-4o",
    seed: int = 0,
    **options: Any,
) -> GenerationReport | BaselineReport:
    """Run one system of :data:`SYSTEMS` once on a prepared dataset.

    ``catdb`` systems go through :func:`run_catdb` with their β; the
    comparators run on ``train``/``test`` (default: the prepared split)
    inside one ledger session each.  ``time_budget_seconds`` (default 8)
    bounds an AutoML search.  An option that only another kind of system
    takes is ignored, so a grid cell passes its knobs to every system;
    an option no system takes raises ``TypeError``.
    """
    spec = SYSTEMS.get(system)
    if spec is None:
        raise ValueError(f"unknown system {system!r}; have {sorted(SYSTEMS)}")
    unknown = set(options).difference(*_KIND_OPTIONS.values())
    if unknown:
        raise TypeError(f"run_system() got unknown options {sorted(unknown)}")
    options = {k: v for k, v in options.items() if k in _KIND_OPTIONS[spec.kind]}
    if spec.kind == "catdb":
        return spec.runner(prepared, llm_name=llm_name, seed=seed, **options)
    if spec.kind == "baseline":
        runner = spec.runner(build_client(llm_name, seed=seed),
                             prepared.bundle.spec.description, seed)
        config = {"system": system, "seed": seed}
        outcome: tuple[str, ...] = (
            "success", "system", "primary_metric", "total_tokens")
    else:
        budget = options.get("time_budget_seconds", 8.0)
        runner = spec.runner(time_budget_seconds=budget, seed=seed)
        llm_name = ""  # AutoML tools use no LLM
        config = {"tool": system, "time_budget_seconds": budget, "seed": seed}
        outcome = ("success", "system", "primary_metric")
    train, test = options.get("train"), options.get("test")
    return _observed(
        spec.kind, prepared, llm_name, config,
        lambda: runner.run(
            train if train is not None else prepared.train,
            test if test is not None else prepared.test,
            prepared.target, prepared.task_type, meta=prepared.meta,
        ),
        outcome,
    )


def _observed(
    kind: str,
    prepared: PreparedDataset,
    llm_name: str,
    config: dict[str, Any],
    run: Callable[[], Any],
    outcome: tuple[str, ...],
) -> Any:
    """``run()`` inside one ledger session; the session's outcome holds
    the report's ``outcome`` attributes (seconds rounded to 0.1 ms)."""
    with run_session(kind, dataset=prepared.name, llm=llm_name,
                     config=config) as session:
        report = run()
        if session is not None:
            session.outcome.update({
                key: round(getattr(report, key), 4)
                if key.endswith("_seconds") else getattr(report, key)
                for key in outcome
            })
    return report


def failure_marker(report: GenerationReport | BaselineReport) -> str:
    """A run's failure cell: empty on success, else the comparator's
    reason (``OOM`` / ``TO`` / ``N/A ...``) or ``N/A`` for CatDB."""
    if report.success:
        return ""
    return getattr(report, "failure_reason", "") or "N/A"


def add_prepare_nodes(
    graph: JobGraph, datasets: Sequence[str], seed: int, quick: bool
) -> None:
    """Add the shared ``prepare:{name}`` setup node of each dataset."""
    for name in datasets:
        graph.add(
            f"prepare:{name}",
            lambda name=name: prepare_dataset(name, seed=seed, quick=quick),
            seed=seed,
        )


def run_grid(
    graph: JobGraph,
    workers: int | None = None,
    resume: bool = False,
    ledger_path: Any = None,
    progress: bool = False,
    label: str = "grid",
) -> dict[str, JobResult]:
    """Execute one experiment grid on the parallel scheduler.

    ``workers=None`` consults ``REPRO_EXPERIMENT_WORKERS`` and defaults
    to sequential; ``workers=1`` and ``workers=N`` are bit-identical by
    the scheduler's determinism contract.  A ledger is attached whenever
    one is configured (``--trace``) or resume is requested, so every
    cell leaves a ``runner.cell`` record that a later ``--resume`` run
    can restore instead of re-executing.
    """
    if ledger_path is None and (resume or tracing_enabled()):
        ledger_path = configured_ledger_path()
    scheduler = Scheduler(
        workers=workers, ledger_path=ledger_path, resume=resume,
        progress=progress, label=label,
    )
    return scheduler.run(graph)


def grid_rows(
    graph: JobGraph,
    results: dict[str, JobResult],
    fallback: Callable[[dict[str, Any], JobResult], Any] | None = None,
) -> list[Any]:
    """Collect cell values in cell-definition order (never completion
    order), flattening list-valued cells.

    A failed/skipped cell is rendered through ``fallback(config,
    result)`` — the driver's "recorded failure row" — or dropped when no
    fallback is given.
    """
    rows: list[Any] = []
    for job in graph.cells():
        result = results[job.job_id]
        if result.ok:
            value = result.value
        elif fallback is not None:
            value = fallback(dict(job.config or {}), result)
        else:
            value = None
        if value is None:
            continue
        if isinstance(value, list):
            rows.extend(value)
        else:
            rows.append(value)
    return rows


def metric_str(value: float | None, failure: str = "") -> str:
    """Render one cell: a percentage-style metric or a failure marker.

    Badly negative R^2 values (train-only preprocessing can destroy test
    scale entirely) are clamped for readability.
    """
    if failure:
        return failure
    if value is None:
        return "N/A"
    scaled = 100.0 * value
    if scaled < -999.9:
        return "<-999.9"
    return f"{scaled:.1f}"
