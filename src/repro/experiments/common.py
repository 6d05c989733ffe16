"""Shared experiment plumbing: dataset preparation, system runners,
grid scheduling, and paper-style table rendering.

Grid-shaped drivers (dataset x system x LLM cells) build a
:class:`~repro.runner.job.JobGraph` and hand it to :func:`run_grid`,
which executes it on the parallel experiment scheduler
(``workers``/``REPRO_EXPERIMENT_WORKERS``) with per-cell failure
isolation and ledger-backed resume; rows come back in cell-definition
order regardless of completion order, so rendered tables are identical
at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
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

__all__ = [
    "PreparedDataset",
    "prepare_dataset",
    "run_catdb",
    "run_llm_baseline",
    "run_automl",
    "run_grid",
    "grid_rows",
    "AUTOML_TOOLS",
    "LLM_PROFILES",
    "format_table",
    "metric_str",
]

LLM_PROFILES = ("gpt-4o", "gemini-1.5", "llama3.1-70b")

AUTOML_TOOLS = {
    "h2o": H2OLike,
    "flaml": FlamlLike,
    "autogluon": AutoGluonLike,
    "autosklearn": AutoSklearnLike,
}

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
    (``exec_memory_mb`` caps each one's address space).  All defaults leave the legacy bit-identical MockLLM path.
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
    with run_session(
        "catdb", dataset=prepared.name, llm=llm_name,
        config={
            "beta": beta, "alpha": alpha, "combination": combination,
            "iteration": iteration, "seed": seed,
            "max_fix_attempts": max_fix_attempts,
            "fault_injection": fault_injection,
            "fault_rate": fault_rate, "max_retries": max_retries,
            "llm_timeout": llm_timeout, "exec_timeout": exec_timeout,
            "exec_mode": exec_mode,
        },
    ) as session:
        report = generator.generate(
            train if train is not None else prepared.train,
            test if test is not None else prepared.test,
            catalog if catalog is not None else prepared.catalog,
            iteration=iteration,
        )
        if session is not None:
            session.outcome.update(
                success=report.success,
                variant=report.variant,
                primary_metric=report.primary_metric,
                total_tokens=report.total_tokens,
                fix_attempts=report.fix_attempts,
                fallback_used=report.fallback_used,
                degraded=report.degraded,
                end_to_end_seconds=round(report.end_to_end_seconds, 4),
            )
    return report


def run_llm_baseline(
    prepared: PreparedDataset,
    system: str,
    llm_name: str = "gpt-4o",
    seed: int = 0,
    train: Table | None = None,
    test: Table | None = None,
) -> BaselineReport:
    """Run one of the LLM-based comparators: 'caafe-tabpfn',
    'caafe-rforest', 'aide', 'autogen'."""
    llm = build_client(llm_name, seed=seed)
    description = prepared.bundle.spec.description
    if system == "caafe-tabpfn":
        runner: Any = CAAFEBaseline(llm, model="tabpfn", seed=seed)
    elif system == "caafe-rforest":
        runner = CAAFEBaseline(llm, model="rforest", seed=seed)
    elif system == "aide":
        runner = AIDEBaseline(llm, description=description, seed=seed)
    elif system == "autogen":
        runner = AutoGenBaseline(llm, description=description, seed=seed)
    else:
        raise ValueError(f"unknown LLM baseline {system!r}")
    with run_session(
        "baseline", dataset=prepared.name, llm=llm_name,
        config={"system": system, "seed": seed},
    ) as session:
        report = runner.run(
            train if train is not None else prepared.train,
            test if test is not None else prepared.test,
            prepared.target,
            prepared.task_type,
            meta=prepared.meta,
        )
        if session is not None:
            session.outcome.update(
                success=report.success,
                system=report.system,
                primary_metric=report.primary_metric,
                total_tokens=report.total_tokens,
            )
    return report


def run_automl(
    prepared: PreparedDataset,
    tool: str,
    time_budget_seconds: float = 8.0,
    seed: int = 0,
    train: Table | None = None,
    test: Table | None = None,
) -> BaselineReport:
    """Run one mini-AutoML tool: 'h2o', 'flaml', 'autogluon', 'autosklearn'."""
    if tool not in AUTOML_TOOLS:
        raise ValueError(f"unknown AutoML tool {tool!r}; have {sorted(AUTOML_TOOLS)}")
    runner = AUTOML_TOOLS[tool](time_budget_seconds=time_budget_seconds, seed=seed)
    with run_session(
        "automl", dataset=prepared.name,
        config={"tool": tool, "time_budget_seconds": time_budget_seconds,
                "seed": seed},
    ) as session:
        report = runner.run(
            train if train is not None else prepared.train,
            test if test is not None else prepared.test,
            prepared.target,
            prepared.task_type,
            meta=prepared.meta,
        )
        if session is not None:
            session.outcome.update(
                success=report.success,
                system=report.system,
                primary_metric=report.primary_metric,
            )
    return report


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


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Fixed-width text table for paper-style rendering."""
    columns = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in columns]
    def line(cells: Sequence[Any]) -> str:
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(row) for row in rows)
    return "\n".join(out)
