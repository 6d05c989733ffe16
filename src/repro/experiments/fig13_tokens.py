"""Figure 13 — token consumption including error handling, 10 datasets.

Per dataset/LLM/system: prompt-side, completion-side, and error-management
token counts.  Reproduced shapes: CatDB and CAAFE comparable, CatDB Chain
sometimes higher; error management dominates for the weakest repair model
(Llama); regression and multi-table datasets cost more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    LLM_PROFILES,
    SYSTEMS,
    add_prepare_nodes,
    format_table,
    grid_rows,
    run_grid,
    run_system,
)
from repro.runner import JobGraph

__all__ = ["Fig13Result", "run", "FIG13_DATASETS"]

FIG13_DATASETS = ("wifi", "diabetes", "cmc", "eu_it", "etailing",
                  "airline", "financial", "bike_sharing", "utility", "nyc")
_SYSTEMS = ("catdb", "catdb-chain", "caafe-rforest", "aide", "autogen")


@dataclass
class Fig13Result:
    rows: list[dict] = field(default_factory=list)

    def tokens_for(self, dataset: str, llm: str, system: str) -> int | None:
        for row in self.rows:
            if (row["dataset"], row["llm"], row["system"]) == (dataset, llm, system):
                return row["total_tokens"]
        return None

    def render(self) -> str:
        table_rows = [
            [r["dataset"], r["llm"], r["system"], r["total_tokens"],
             r["pipeline_tokens"], r["error_tokens"]]
            for r in self.rows
        ]
        return format_table(
            ["dataset", "llm", "system", "total tokens",
             "pipeline tokens", "error tokens"],
            table_rows,
            title="Figure 13: token consumption incl. error handling",
        )


def run(
    datasets: tuple[str, ...] = FIG13_DATASETS,
    llms: tuple[str, ...] = LLM_PROFILES,
    systems: tuple[str, ...] = _SYSTEMS,
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Fig13Result:
    graph = JobGraph()
    add_prepare_nodes(graph, datasets, seed, quick)
    for name in datasets:
        for llm in llms:
            for system in systems:

                def cell(prepared, name=name, llm=llm, system=system):
                    report = run_system(prepared, system, llm_name=llm,
                                        seed=seed)
                    if SYSTEMS[system].kind == "catdb":
                        pipeline = report.cost.pipeline_cost()
                        error = report.cost.error_cost()
                    else:  # baselines resubmit whole prompts
                        pipeline, error = report.total_tokens, 0
                    return {
                        "dataset": name, "llm": llm, "system": system,
                        "total_tokens": report.total_tokens,
                        "pipeline_tokens": pipeline,
                        "error_tokens": error,
                        "success": report.success,
                    }

                graph.add(
                    f"cell:{name}:{llm}:{system}", cell,
                    deps=(f"prepare:{name}",),
                    config={"dataset": name, "llm": llm, "system": system,
                            "seed": seed, "quick": quick},
                    seed=seed,
                )
    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="fig13")
    result = Fig13Result()
    result.rows = grid_rows(graph, results, fallback=lambda config, res: {
        "dataset": config["dataset"], "llm": config["llm"],
        "system": config["system"], "total_tokens": 0,
        "pipeline_tokens": 0, "error_tokens": 0, "success": False,
    })
    return result
