"""Table 5 — accuracy on the six cleaning datasets.

Compares CatDB on original versus refined data against CAAFE (TabPFN and
RandomForest backends), AIDE, AutoGen, AutoML tools, and data-cleaning +
AutoML workflows.  Reproduced shapes: refinement lifts CatDB's test
accuracy substantially on dirty datasets (EU IT, Etailing, Yelp);
CAAFE-TabPFN fails on large data; cleaning workflows help AutoML but stay
behind CatDB refined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.baselines.cleaning import Learn2CleanLike, SagaLike
from repro.catalog.refinement import refine_catalog
from repro.experiments.common import (
    add_prepare_nodes,
    failure_marker,
    format_table,
    grid_rows,
    metric_str,
    run_grid,
    run_system,
)
from repro.experiments.table4_refinement import REFINEMENT_DATASETS
from repro.llm.mock import MockLLM
from repro.runner import JobGraph

__all__ = ["Table5Result", "run"]

_TRAIN_KEYS = ("train_accuracy", "train_auc", "train_r2")
_TEST_KEYS = ("test_accuracy", "test_auc", "test_r2")


def _train_test(metrics: dict[str, Any]) -> tuple[float | None, float | None]:
    train = next((metrics[k] for k in _TRAIN_KEYS if k in metrics), None)
    test = next((metrics[k] for k in _TEST_KEYS if k in metrics), None)
    return train, test


@dataclass
class Table5Result:
    rows: list[dict] = field(default_factory=list)

    def cell(self, dataset: str, system: str) -> dict | None:
        for row in self.rows:
            if row["dataset"] == dataset and row["system"] == system:
                return row
        return None

    def render(self) -> str:
        systems = sorted({r["system"] for r in self.rows})
        datasets = list(dict.fromkeys(r["dataset"] for r in self.rows))
        headers = ["system"] + [f"{d} (train/test)" for d in datasets]
        table_rows = []
        for system in systems:
            cells = [system]
            for dataset in datasets:
                row = self.cell(dataset, system)
                if row is None:
                    cells.append("-")
                elif row["failure"]:
                    cells.append(row["failure"])
                else:
                    cells.append(
                        f"{metric_str(row['train'])}/{metric_str(row['test'])}"
                    )
            table_rows.append(cells)
        return format_table(headers, table_rows,
                            title="Table 5: accuracy on six cleaning datasets")


def _row(dataset: str, system: str, metrics: dict, failure: str = "",
         extra: dict | None = None) -> dict:
    train, test = _train_test(metrics or {})
    return {
        "dataset": dataset, "system": system,
        "train": train, "test": test, "failure": failure,
        **(extra or {}),
    }


def run(
    datasets: tuple[str, ...] = REFINEMENT_DATASETS,
    llm_name: str = "gemini-1.5",
    automl_tools: tuple[str, ...] = ("h2o", "flaml", "autogluon"),
    automl_budget: float = 6.0,
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Table5Result:
    graph = JobGraph()
    add_prepare_nodes(graph, datasets, seed, quick)
    for name in datasets:

        def refine(prepared):
            refine_llm = MockLLM(llm_name, seed=seed, fault_injection=False)
            refinement = refine_catalog(
                prepared.train, prepared.catalog, refine_llm
            )
            return refinement, refinement.apply_to(prepared.test)

        graph.add(f"refine:{name}", refine, deps=(f"prepare:{name}",),
                  seed=seed)

        def clean(prepared):
            # cleaning + AutoML workflow: best of SAGA / Learn2Clean lookalikes
            cleaners = [SagaLike(generations=1, population=3, seed=seed),
                        Learn2CleanLike(max_steps=2, seed=seed)]
            best_clean = None
            for cleaner in cleaners:
                clean_report = cleaner.clean(prepared.train, prepared.target,
                                             prepared.task_type)
                if clean_report.success and (
                    best_clean is None or clean_report.score > best_clean.score
                ):
                    best_clean = clean_report
            return best_clean

        graph.add(f"clean:{name}", clean, deps=(f"prepare:{name}",),
                  seed=seed)

    llm_config = {"llm": llm_name, "seed": seed, "quick": quick}
    automl_config = {"seed": seed, "budget": automl_budget, "quick": quick}
    for name in datasets:

        def add_cell(label, cell, config, upstream=()):
            graph.add(
                f"cell:{name}:{label}", cell,
                deps=(f"prepare:{name}", *upstream),
                config={"dataset": name, "system": label, **config},
                seed=seed,
            )

        def system_cell(prepared, *, label, system, name=name):
            report = run_system(prepared, system, llm_name=llm_name,
                                seed=seed, time_budget_seconds=automl_budget)
            return _row(name, label, report.metrics, failure_marker(report))

        def refined_cell(prepared, refined, name=name):
            refinement, refined_test = refined
            report = run_system(
                prepared, "catdb", llm_name=llm_name, seed=seed,
                catalog=refinement.catalog, train=refinement.table,
                test=refined_test,
            )
            return _row(name, "catdb-refined", report.metrics,
                        failure_marker(report))

        add_cell("catdb-original", partial(
            system_cell, label="catdb-original", system="catdb"), llm_config)
        add_cell("catdb-refined", refined_cell, llm_config,
                 upstream=(f"refine:{name}",))
        for system in ("caafe-tabpfn", "caafe-rforest", "aide", "autogen"):
            add_cell(system, partial(system_cell, label=system, system=system),
                     llm_config)
        for tool in automl_tools:
            add_cell(tool, partial(system_cell, label=tool, system=tool),
                     automl_config)

        for tool in automl_tools:

            def clean_cell(prepared, best_clean, name=name, tool=tool):
                if best_clean is None or best_clean.cleaned is None:
                    return _row(name, f"clean+{tool}", {}, "N/A")
                report = run_system(
                    prepared, tool, seed=seed,
                    time_budget_seconds=automl_budget,
                    train=best_clean.cleaned, test=prepared.test,
                )
                return _row(
                    name, f"clean+{tool}", report.metrics,
                    failure_marker(report),
                    extra={"cleaning_method": best_clean.system,
                           "cleaning_pipeline": best_clean.pipeline_label},
                )

            add_cell(f"clean+{tool}", clean_cell, automl_config,
                     upstream=(f"clean:{name}",))

    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="table5")
    result = Table5Result()
    result.rows = grid_rows(graph, results, fallback=lambda config, res: _row(
        config["dataset"], config["system"], {}, "N/A",
    ))
    return result
