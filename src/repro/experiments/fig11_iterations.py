"""Figures 11 & 12 source runs — 10 iterations of pipeline generation.

Figure 11 reports AUC distributions over 10 iterations for CatDB, CatDB
Chain, CAAFE (TabPFN / RandomForest), AIDE and AutoGen on Diabetes,
Gas-Drift and Volkert with three LLMs.  Figure 12 reports the token cost
and total runtime of the same runs, so :mod:`fig12_cost_runtime` reuses
this driver's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.common import (
    LLM_PROFILES,
    add_prepare_nodes,
    format_table,
    grid_rows,
    run_grid,
    run_system,
)
from repro.runner import JobGraph

__all__ = ["IterationRun", "Fig11Result", "run", "ITERATION_DATASETS"]

ITERATION_DATASETS = ("diabetes", "gas_drift", "volkert")
ITERATION_SYSTEMS = ("catdb", "catdb-chain", "caafe-tabpfn", "caafe-rforest",
                     "aide", "autogen")


@dataclass
class IterationRun:
    dataset: str
    llm: str
    system: str
    iteration: int
    success: bool
    metric: float | None
    total_tokens: int
    end_to_end_seconds: float
    pipeline_seconds: float


@dataclass
class Fig11Result:
    runs: list[IterationRun] = field(default_factory=list)

    def metrics_for(self, dataset: str, llm: str, system: str) -> list[float]:
        return [
            r.metric for r in self.runs
            if r.dataset == dataset and r.llm == llm and r.system == system
            and r.success and r.metric is not None
        ]

    def failure_count(self, dataset: str, llm: str, system: str) -> int:
        return sum(
            1 for r in self.runs
            if r.dataset == dataset and r.llm == llm and r.system == system
            and not r.success
        )

    def render(self) -> str:
        headers = ["dataset", "llm", "system", "runs", "fails",
                   "AUC median", "AUC min", "AUC max"]
        rows = []
        combos = sorted({(r.dataset, r.llm, r.system) for r in self.runs})
        for dataset, llm, system in combos:
            metrics = self.metrics_for(dataset, llm, system)
            fails = self.failure_count(dataset, llm, system)
            if metrics:
                rows.append([
                    dataset, llm, system, len(metrics) + fails, fails,
                    f"{100 * float(np.median(metrics)):.1f}",
                    f"{100 * min(metrics):.1f}", f"{100 * max(metrics):.1f}",
                ])
            else:
                rows.append([dataset, llm, system, fails, fails,
                             "fail", "-", "-"])
        return format_table(headers, rows,
                            title="Figure 11: AUC across iterations")


def run(
    datasets: tuple[str, ...] = ITERATION_DATASETS,
    llms: tuple[str, ...] = LLM_PROFILES,
    systems: tuple[str, ...] = ITERATION_SYSTEMS,
    iterations: int = 10,
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Fig11Result:
    graph = JobGraph()
    add_prepare_nodes(graph, datasets, seed, quick)
    for name in datasets:
        for llm in llms:
            for iteration in range(iterations):
                for system in systems:

                    def cell(prepared, name=name, llm=llm,
                             iteration=iteration, system=system):
                        report = run_system(
                            prepared, system, llm_name=llm,
                            seed=seed + iteration, iteration=iteration,
                            max_fix_attempts=3,
                        )
                        return {
                            "dataset": name, "llm": llm, "system": system,
                            "iteration": iteration,
                            "success": report.success,
                            "metric": report.primary_metric,
                            "total_tokens": report.total_tokens,
                            "end_to_end_seconds": report.end_to_end_seconds,
                            "pipeline_seconds":
                                report.pipeline_runtime_seconds,
                        }

                    graph.add(
                        f"cell:{name}:{llm}:{iteration}:{system}", cell,
                        deps=(f"prepare:{name}",),
                        config={"dataset": name, "llm": llm, "system": system,
                                "iteration": iteration, "seed": seed,
                                "quick": quick},
                        seed=seed + iteration,
                    )
    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="fig11")
    rows = grid_rows(graph, results, fallback=lambda config, res: {
        "dataset": config["dataset"], "llm": config["llm"],
        "system": config["system"], "iteration": config["iteration"],
        "success": False, "metric": None, "total_tokens": 0,
        "end_to_end_seconds": 0.0, "pipeline_seconds": 0.0,
    })
    result = Fig11Result()
    result.runs = [
        IterationRun(
            row["dataset"], row["llm"], row["system"], row["iteration"],
            row["success"], row["metric"], row["total_tokens"],
            row["end_to_end_seconds"], row["pipeline_seconds"],
        )
        for row in rows
    ]
    return result
