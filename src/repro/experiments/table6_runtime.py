"""Table 6 — pipeline *execution* runtime on the six cleaning datasets.

Compares the wall-clock runtime of the generated/learned pipelines
(excluding generation time) for CatDB on original and refined data, CAAFE,
AIDE, AutoGen, and the cleaning+augmentation workflow cost.  Reproduced
shape: CatDB's lean pipelines run fastest; cleaning workflows pay a large
upfront cost; CAAFE is dominated by its fixed model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.baselines.cleaning import Learn2CleanLike, SagaLike
from repro.baselines.augmentation import adasyn_like, imbalanced_regression_resample
from repro.catalog.refinement import refine_catalog
from repro.experiments.common import (
    add_prepare_nodes,
    format_table,
    grid_rows,
    run_grid,
    run_system,
)
from repro.experiments.table4_refinement import REFINEMENT_DATASETS
from repro.llm.mock import MockLLM
from repro.runner import JobGraph

__all__ = ["Table6Result", "run"]


@dataclass
class Table6Result:
    rows: list[dict] = field(default_factory=list)

    def cell(self, dataset: str, system: str) -> float | None:
        for row in self.rows:
            if row["dataset"] == dataset and row["system"] == system:
                return row["seconds"]
        return None

    def render(self) -> str:
        systems = list(dict.fromkeys(r["system"] for r in self.rows))
        datasets = list(dict.fromkeys(r["dataset"] for r in self.rows))
        headers = ["dataset"] + systems
        table_rows = []
        for dataset in datasets:
            cells = [dataset]
            for system in systems:
                value = self.cell(dataset, system)
                cells.append(f"{value:.2f}" if value is not None else "N/A")
            table_rows.append(cells)
        return format_table(headers, table_rows,
                            title="Table 6: pipeline runtime [s]")


def run(
    datasets: tuple[str, ...] = REFINEMENT_DATASETS,
    llm_name: str = "gemini-1.5",
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Table6Result:
    import time

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

    def runtime_row(name, label, report):
        return {
            "dataset": name, "system": label,
            "seconds": report.pipeline_runtime_seconds
            if report.success else None,
        }

    for name in datasets:

        def add_cell(label, cell, upstream=()):
            graph.add(
                f"cell:{name}:{label}", cell,
                deps=(f"prepare:{name}", *upstream),
                config={"dataset": name, "system": label, "llm": llm_name,
                        "seed": seed, "quick": quick},
                seed=seed,
            )

        def system_cell(prepared, *, label, system, name=name):
            return runtime_row(name, label, run_system(
                prepared, system, llm_name=llm_name, seed=seed))

        def refined_cell(prepared, refined, name=name):
            refinement, refined_test = refined
            return runtime_row(name, "catdb-refined", run_system(
                prepared, "catdb", llm_name=llm_name, seed=seed,
                catalog=refinement.catalog, train=refinement.table,
                test=refined_test,
            ))

        add_cell("catdb-original", partial(
            system_cell, label="catdb-original", system="catdb"))
        add_cell("catdb-refined", refined_cell, upstream=(f"refine:{name}",))
        for system in ("caafe-tabpfn", "caafe-rforest", "aide", "autogen"):
            add_cell(system, partial(system_cell, label=system, system=system))

        def workflow_cell(prepared, name=name):
            # cleaning + augmentation upfront cost (the workflow's
            # overhead column); one cell, two rows
            cleaning_start = time.perf_counter()
            cleaner = (
                Learn2CleanLike(max_steps=2, seed=seed)
                if prepared.task_type != "regression"
                else SagaLike(generations=1, population=3, seed=seed)
            )
            clean_report = cleaner.clean(
                prepared.train, prepared.target, prepared.task_type
            )
            cleaning_seconds = time.perf_counter() - cleaning_start
            augment_start = time.perf_counter()
            if clean_report.success and clean_report.cleaned is not None:
                if prepared.task_type == "regression":
                    imbalanced_regression_resample(
                        clean_report.cleaned, prepared.target, seed=seed
                    )
                else:
                    adasyn_like(clean_report.cleaned, prepared.target,
                                seed=seed)
            augment_seconds = time.perf_counter() - augment_start
            return [
                {"dataset": name, "system": "cleaning",
                 "seconds": cleaning_seconds if clean_report.success else None},
                {"dataset": name, "system": "augmentation",
                 "seconds": augment_seconds if clean_report.success else None},
            ]

        graph.add(
            f"cell:{name}:workflow", workflow_cell,
            deps=(f"prepare:{name}",),
            config={"dataset": name, "system": "workflow",
                    "seed": seed, "quick": quick},
            seed=seed,
        )

    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="table6")

    def fallback(config, res):
        if config["system"] == "workflow":
            return [
                {"dataset": config["dataset"], "system": "cleaning",
                 "seconds": None},
                {"dataset": config["dataset"], "system": "augmentation",
                 "seconds": None},
            ]
        return {"dataset": config["dataset"], "system": config["system"],
                "seconds": None}

    result = Table6Result()
    result.rows = grid_rows(graph, results, fallback=fallback)
    return result
