"""Oracle: ``run_system`` against the per-kind runners it replaced.

The experiment grids used to run CatDB through ``run_catdb`` and every
comparator through ``run_llm_baseline`` (an if/elif chain over names) or
``run_automl`` (a dict lookup), each with its own ``run_session`` block,
and every experiment grid carried its own CatDB-vs-baseline branch.
The replaced functions and two of those grids are embedded below
verbatim as the reference.  ``run_system`` must give the same report, and record the
same ledger session, for all ten systems of paper Section 5; the reduced
Table 8 / Figure 13 grids must give the same non-timing rows.

Wall-clock fields (``*_seconds``, latencies) are not compared.  AutoML
searches are time-budgeted, so for the four tools only the
budget-independent fields are: system, dataset, the OOM/TO/N/A marker,
and success (fixed by the budget model: the startup charge either
exceeds the budget, or the first candidate always finishes).
"""

from __future__ import annotations

import dataclasses
from typing import Any

import pytest

from repro.baselines.aide import AIDEBaseline
from repro.baselines.autogen import AutoGenBaseline
from repro.baselines.automl import AutoGluonLike, AutoSklearnLike, FlamlLike, H2OLike
from repro.baselines.base import BaselineReport
from repro.baselines.caafe import CAAFEBaseline
from repro.catalog.catalog import DataCatalog
from repro.experiments import fig13_tokens, table8_runtime
from repro.experiments.common import (
    SYSTEMS,
    PreparedDataset,
    grid_rows,
    prepare_dataset,
    run_grid,
    run_system,
)
from repro.generation.generator import GenerationReport, make_generator
from repro.llm import build_client
from repro.obs import RunLedger, disable_tracing, enable_tracing
from repro.obs.session import run_session
from repro.runner import JobGraph
from repro.table.table import Table

# -- the replaced runners, verbatim ------------------------------------------------


def old_run_catdb(
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


def old_run_llm_baseline(
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


AUTOML_TOOLS = {
    "h2o": H2OLike,
    "flaml": FlamlLike,
    "autogluon": AutoGluonLike,
    "autosklearn": AutoSklearnLike,
}


def old_run_automl(
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


def old_run(prepared: PreparedDataset, system: str, llm_name: str,
            seed: int) -> Any:
    """How an old grid cell dispatched ``system``."""
    if system in ("catdb", "catdb-chain"):
        return old_run_catdb(prepared, llm_name=llm_name,
                             beta=1 if system == "catdb" else 2, seed=seed)
    if system in AUTOML_TOOLS:
        return old_run_automl(prepared, system, seed=seed)
    return old_run_llm_baseline(prepared, system, llm_name=llm_name,
                                seed=seed)


# -- the replaced Table 8 / Figure 13 grids, verbatim ----------------------------


def old_table8_rows(datasets, llms, systems, quick=True, seed=0):
    graph = JobGraph()
    for name in datasets:
        graph.add(
            f"prepare:{name}",
            lambda name=name: prepare_dataset(name, seed=seed, quick=quick),
            seed=seed,
        )
    for name in datasets:
        for llm in llms:
            for system in systems:

                def cell(prepared, name=name, llm=llm, system=system):
                    if system in ("catdb", "catdb-chain"):
                        report = old_run_catdb(
                            prepared, llm_name=llm,
                            beta=1 if system == "catdb" else 2, seed=seed,
                        )
                        return {
                            "dataset": name, "llm": llm, "system": system,
                            "success": report.success,
                            "seconds": report.end_to_end_seconds,
                        }
                    baseline = old_run_llm_baseline(prepared, system,
                                                    llm_name=llm, seed=seed)
                    return {
                        "dataset": name, "llm": llm, "system": system,
                        "success": baseline.success,
                        "seconds": baseline.end_to_end_seconds,
                    }

                graph.add(
                    f"cell:{name}:{llm}:{system}", cell,
                    deps=(f"prepare:{name}",),
                    config={"dataset": name, "llm": llm, "system": system,
                            "seed": seed, "quick": quick},
                    seed=seed,
                )
    results = run_grid(graph, workers=1, label="table8")
    return grid_rows(graph, results, fallback=lambda config, res: {
        "dataset": config["dataset"], "llm": config["llm"],
        "system": config["system"], "success": False, "seconds": 0.0,
    })


def old_fig13_rows(datasets, llms, systems, quick=True, seed=0):
    graph = JobGraph()
    for name in datasets:
        graph.add(
            f"prepare:{name}",
            lambda name=name: prepare_dataset(name, seed=seed, quick=quick),
            seed=seed,
        )
    for name in datasets:
        for llm in llms:
            for system in systems:

                def cell(prepared, name=name, llm=llm, system=system):
                    if system in ("catdb", "catdb-chain"):
                        report = old_run_catdb(
                            prepared, llm_name=llm,
                            beta=1 if system == "catdb" else 2, seed=seed,
                        )
                        return {
                            "dataset": name, "llm": llm, "system": system,
                            "total_tokens": report.total_tokens,
                            "pipeline_tokens": report.cost.pipeline_cost(),
                            "error_tokens": report.cost.error_cost(),
                            "success": report.success,
                        }
                    baseline = old_run_llm_baseline(prepared, system,
                                                    llm_name=llm, seed=seed)
                    return {
                        "dataset": name, "llm": llm, "system": system,
                        "total_tokens": baseline.total_tokens,
                        "pipeline_tokens": baseline.total_tokens,
                        "error_tokens": 0,  # baselines resubmit whole prompts
                        "success": baseline.success,
                    }

                graph.add(
                    f"cell:{name}:{llm}:{system}", cell,
                    deps=(f"prepare:{name}",),
                    config={"dataset": name, "llm": llm, "system": system,
                            "seed": seed, "quick": quick},
                    seed=seed,
                )
    results = run_grid(graph, workers=1, label="fig13")
    return grid_rows(graph, results, fallback=lambda config, res: {
        "dataset": config["dataset"], "llm": config["llm"],
        "system": config["system"], "total_tokens": 0,
        "pipeline_tokens": 0, "error_tokens": 0, "success": False,
    })


# -- comparison helpers ----------------------------------------------------------

PAPER_SYSTEMS = ("catdb", "catdb-chain", "caafe-tabpfn", "caafe-rforest",
                 "aide", "autogen", "h2o", "flaml", "autogluon", "autosklearn")
AUTOML_FIELDS = ("system", "dataset", "failure_reason", "success")


def untimed(report: Any, system: str) -> dict[str, Any]:
    """The report fields that do not depend on wall-clock time."""
    values = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report)}
    if system in AUTOML_TOOLS:
        return {name: values[name] for name in AUTOML_FIELDS}
    return {name: value for name, value in values.items()
            if not name.endswith("_seconds")}


def untimed_record(record: Any) -> dict[str, Any]:
    """A ledger session record without its ids, clock and span data."""
    return {
        "kind": record.kind, "dataset": record.dataset, "llm": record.llm,
        "config": record.config, "outcome_keys": list(record.outcome),
        "success": record.outcome.get("success"),
    }


@pytest.fixture(scope="module")
def prepared() -> PreparedDataset:
    return prepare_dataset("wifi", quick=True)


# -- the oracle ------------------------------------------------------------------


def test_table_holds_the_ten_paper_systems():
    assert tuple(SYSTEMS) == PAPER_SYSTEMS
    assert {name: spec.kind for name, spec in SYSTEMS.items()} == {
        **dict.fromkeys(("catdb", "catdb-chain"), "catdb"),
        **dict.fromkeys(("caafe-tabpfn", "caafe-rforest", "aide", "autogen"),
                        "baseline"),
        **dict.fromkeys(AUTOML_TOOLS, "automl"),
    }


@pytest.mark.parametrize("system", PAPER_SYSTEMS)
def test_run_system_matches_old_runner(prepared, system, tmp_path):
    runs = {
        "old": lambda: old_run(prepared, system, "gemini-1.5", 3),
        "new": lambda: run_system(prepared, system, llm_name="gemini-1.5",
                                  seed=3),
    }
    reports, records = {}, {}
    for side, run in runs.items():
        enable_tracing(tmp_path / side)
        try:
            reports[side] = run()
        finally:
            disable_tracing()
        records[side] = RunLedger(tmp_path / side).records()
    assert untimed(reports["new"], system) == untimed(reports["old"], system)
    assert len(records["old"]) == len(records["new"]) == 1
    assert untimed_record(records["new"][0]) == untimed_record(records["old"][0])


@pytest.mark.parametrize("system", ["caafe-rforest", "h2o", "catdb"])
def test_run_system_runs_on_given_split(prepared, system):
    train, test = prepared.test, prepared.train  # swapped: must be honoured
    if system == "catdb":
        old = old_run_catdb(prepared, seed=1, train=train, test=test)
    elif system == "h2o":
        old = old_run_automl(prepared, system, time_budget_seconds=6.0,
                             seed=1, train=train, test=test)
    else:
        old = old_run_llm_baseline(prepared, system, seed=1,
                                   train=train, test=test)
    new = run_system(prepared, system, seed=1, train=train, test=test,
                     time_budget_seconds=6.0)
    assert untimed(new, system) == untimed(old, system)


def test_unknown_names_and_options_raise(prepared):
    with pytest.raises(ValueError):
        run_system(prepared, "gpt-agent")
    with pytest.raises(ValueError):
        run_system(prepared, "tpot")
    with pytest.raises(TypeError):
        run_system(prepared, "aide", max_fix_attempt=3)  # typo of a CatDB knob


def test_reduced_table8_grid_matches_old_grid():
    systems = ("catdb", "catdb-chain", "caafe-tabpfn", "caafe-rforest",
               "aide", "autogen")
    old_rows = old_table8_rows(("diabetes",), ("gemini-1.5",), systems)
    new = table8_runtime.run(datasets=("diabetes",), llms=("gemini-1.5",),
                             workers=1)

    def drop_seconds(rows):
        return [{k: v for k, v in row.items() if k != "seconds"}
                for row in rows]

    assert drop_seconds(new.rows) == drop_seconds(old_rows)


def test_reduced_fig13_grid_matches_old_grid():
    systems = ("catdb", "catdb-chain", "caafe-rforest", "aide", "autogen")
    old_rows = old_fig13_rows(("diabetes",), ("gemini-1.5",), systems)
    new = fig13_tokens.run(datasets=("diabetes",), llms=("gemini-1.5",),
                           systems=systems, workers=1)
    assert new.rows == old_rows
