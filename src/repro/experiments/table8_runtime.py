"""Table 8 — end-to-end generation runtime across 8 datasets and 3 LLMs.

Per system/LLM: number of failed datasets (Fail), average (AVG) and total
(SUM) end-to-end seconds over the successful ones.  CatDB's runtime
includes data loading, catalog work, prompt construction, generation,
error management, and pipeline execution; LLM latency is the simulated
per-token latency of each profile.  Reproduced shapes: CatDB/Chain never
fail; CAAFE fails most; AIDE/AutoGen runtimes swing with the LLM (Llama's
grid-search pipelines are slowest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    LLM_PROFILES,
    add_prepare_nodes,
    format_table,
    grid_rows,
    run_grid,
    run_system,
)
from repro.experiments.table7_single_iteration import TABLE7_DATASETS
from repro.runner import JobGraph

__all__ = ["Table8Result", "run"]

_SYSTEMS = ("catdb", "catdb-chain", "caafe-tabpfn", "caafe-rforest",
            "aide", "autogen")


@dataclass
class Table8Result:
    rows: list[dict] = field(default_factory=list)

    def summary(self) -> list[dict]:
        out = []
        systems = list(dict.fromkeys(r["system"] for r in self.rows))
        llms = list(dict.fromkeys(r["llm"] for r in self.rows))
        for system in systems:
            for llm in llms:
                runs = [r for r in self.rows
                        if (r["system"], r["llm"]) == (system, llm)]
                if not runs:
                    continue
                ok = [r for r in runs if r["success"]]
                seconds = [r["seconds"] for r in ok]
                out.append({
                    "system": system, "llm": llm,
                    "fail": len(runs) - len(ok),
                    "avg": sum(seconds) / len(seconds) if seconds else None,
                    "sum": sum(seconds) if seconds else None,
                })
        return out

    def render(self) -> str:
        rows = []
        for s in self.summary():
            rows.append([
                s["system"], s["llm"], s["fail"],
                f"{s['avg']:.1f}" if s["avg"] is not None else "-",
                f"{s['sum']:.1f}" if s["sum"] is not None else "-",
            ])
        return format_table(
            ["system", "llm", "Fail", "AVG[s]", "SUM[s]"], rows,
            title="Table 8: end-to-end runtime across datasets",
        )


def run(
    datasets: tuple[str, ...] = TABLE7_DATASETS,
    llms: tuple[str, ...] = LLM_PROFILES,
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Table8Result:
    graph = JobGraph()
    add_prepare_nodes(graph, datasets, seed, quick)
    for name in datasets:
        for llm in llms:
            for system in _SYSTEMS:

                def cell(prepared, name=name, llm=llm, system=system):
                    report = run_system(prepared, system, llm_name=llm,
                                        seed=seed)
                    return {
                        "dataset": name, "llm": llm, "system": system,
                        "success": report.success,
                        "seconds": report.end_to_end_seconds,
                    }

                graph.add(
                    f"cell:{name}:{llm}:{system}", cell,
                    deps=(f"prepare:{name}",),
                    config={"dataset": name, "llm": llm, "system": system,
                            "seed": seed, "quick": quick},
                    seed=seed,
                )
    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="table8")
    result = Table8Result()
    result.rows = grid_rows(graph, results, fallback=lambda config, res: {
        "dataset": config["dataset"], "llm": config["llm"],
        "system": config["system"], "success": False, "seconds": 0.0,
    })
    return result
