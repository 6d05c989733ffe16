"""Table 7 — single-iteration performance on 8 datasets.

One generation (up to 15 error-correction attempts) per dataset/LLM for
CatDB and CatDB Chain, against CAAFE, AIDE, AutoGen, the four AutoML
tools, and the cleaning+AutoML workflow.  The AutoML time budget follows
the paper's protocol: the measured CatDB end-to-end runtime.  Reproduced
shapes: CatDB/Chain succeed everywhere; CAAFE-TabPFN OOMs on large data;
Auto-Sklearn OOMs on multi-table data and times out on CMC; workflow
cleaning helps but does not catch CatDB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.cleaning import Learn2CleanLike
from repro.experiments.common import (
    LLM_PROFILES,
    SYSTEMS,
    add_prepare_nodes,
    failure_marker,
    format_table,
    grid_rows,
    metric_str,
    run_grid,
    run_system,
)
from repro.runner import JobGraph

__all__ = ["Table7Result", "run", "TABLE7_DATASETS"]

TABLE7_DATASETS = ("airline", "imdb", "accidents", "financial",
                   "cmc", "bike_sharing", "house_sales", "nyc")
_LLM_SYSTEMS = ("catdb", "catdb-chain", "caafe-tabpfn", "caafe-rforest",
                "aide", "autogen")
_AUTOML = ("autosklearn", "h2o", "flaml", "autogluon")


@dataclass
class Table7Result:
    rows: list[dict] = field(default_factory=list)

    def cell(self, dataset: str, llm: str | None, system: str) -> dict | None:
        for row in self.rows:
            if (row["dataset"], row["system"]) == (dataset, system) and (
                llm is None or row["llm"] == llm
            ):
                return row
        return None

    def render(self) -> str:
        headers = ["dataset", "llm"] + list(_LLM_SYSTEMS) + list(_AUTOML) + [
            f"clean+{t}" for t in _AUTOML
        ]
        table_rows = []
        datasets = list(dict.fromkeys(r["dataset"] for r in self.rows))
        llms = list(dict.fromkeys(r["llm"] for r in self.rows if r["llm"]))
        for dataset in datasets:
            for llm in llms:
                cells = [dataset, llm]
                for system in _LLM_SYSTEMS:
                    row = self.cell(dataset, llm, system)
                    cells.append(
                        metric_str(row["metric"], row["failure"]) if row else "-"
                    )
                for system in list(_AUTOML) + [f"clean+{t}" for t in _AUTOML]:
                    row = self.cell(dataset, None, system)
                    cells.append(
                        metric_str(row["metric"], row["failure"]) if row else "-"
                    )
                table_rows.append(cells)
        return format_table(headers, table_rows,
                            title="Table 7: single-iteration test metric")


def run(
    datasets: tuple[str, ...] = TABLE7_DATASETS,
    llms: tuple[str, ...] = LLM_PROFILES,
    max_fix_attempts: int = 15,
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Table7Result:
    graph = JobGraph()
    add_prepare_nodes(graph, datasets, seed, quick)
    catdb_cells: dict[str, list[str]] = {}
    for name in datasets:
        catdb_cells[name] = []
        for llm in llms:
            for system in _LLM_SYSTEMS:

                def llm_cell(prepared, name=name, llm=llm, system=system):
                    report = run_system(
                        prepared, system, llm_name=llm, seed=seed,
                        max_fix_attempts=max_fix_attempts,
                    )
                    return {
                        "dataset": name, "llm": llm, "system": system,
                        "metric": report.primary_metric
                        if report.success else None,
                        "failure": _short(failure_marker(report)),
                        "tokens": report.total_tokens,
                        "seconds": report.end_to_end_seconds,
                    }

                job_id = graph.add(
                    f"cell:{name}:{llm}:{system}", llm_cell,
                    deps=(f"prepare:{name}",),
                    config={"dataset": name, "llm": llm, "system": system,
                            "seed": seed, "quick": quick},
                    seed=seed,
                )
                if SYSTEMS[system].kind == "catdb":
                    catdb_cells[name].append(job_id)

        # AutoML tools run once per dataset, budgeted by CatDB's runtime
        # (capped so the quick-mode suite stays fast on one core); the
        # budget node fans in from every catdb/chain cell of the dataset.
        def budget_node(*rows):
            catdb_runtime = max(
                (row["seconds"] for row in rows), default=0.0
            )
            return max(3.0, min(5.0, catdb_runtime))

        graph.add(f"budget:{name}", budget_node,
                  deps=tuple(catdb_cells[name]), seed=seed)

        def clean_node(prepared):
            return Learn2CleanLike(seed=seed).clean(
                prepared.train, prepared.target, prepared.task_type
            )

        graph.add(f"clean:{name}", clean_node, deps=(f"prepare:{name}",),
                  seed=seed)

        for tool in _AUTOML:

            def automl_cell(prepared, budget, name=name, tool=tool):
                report = run_system(prepared, tool, seed=seed,
                                    time_budget_seconds=budget)
                return {
                    "dataset": name, "llm": "", "system": tool,
                    "metric": report.primary_metric
                    if report.success else None,
                    "failure": _short(failure_marker(report)),
                    "tokens": 0, "seconds": report.end_to_end_seconds,
                }

            graph.add(
                f"cell:{name}:{tool}", automl_cell,
                deps=(f"prepare:{name}", f"budget:{name}"),
                config={"dataset": name, "system": tool, "seed": seed,
                        "quick": quick},
                seed=seed,
            )

        for tool in _AUTOML:

            def clean_cell(prepared, budget, clean, name=name, tool=tool):
                if not clean.success or clean.cleaned is None:
                    return {
                        "dataset": name, "llm": "",
                        "system": f"clean+{tool}", "metric": None,
                        "failure": "N/A", "tokens": 0, "seconds": 0.0,
                    }
                report = run_system(
                    prepared, tool, seed=seed, time_budget_seconds=budget,
                    train=clean.cleaned, test=prepared.test,
                )
                return {
                    "dataset": name, "llm": "", "system": f"clean+{tool}",
                    "metric": report.primary_metric
                    if report.success else None,
                    "failure": _short(failure_marker(report)),
                    "tokens": 0,
                    "seconds":
                        report.end_to_end_seconds + clean.runtime_seconds,
                }

            graph.add(
                f"cell:{name}:clean+{tool}", clean_cell,
                deps=(f"prepare:{name}", f"budget:{name}", f"clean:{name}"),
                config={"dataset": name, "system": f"clean+{tool}",
                        "seed": seed, "quick": quick},
                seed=seed,
            )

    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="table7")
    result = Table7Result()
    result.rows = grid_rows(graph, results, fallback=lambda config, res: {
        "dataset": config["dataset"], "llm": config.get("llm", ""),
        "system": config["system"], "metric": None, "failure": "N/A",
        "tokens": 0, "seconds": 0.0,
    })
    return result


def _short(reason: str) -> str:
    """Table 7's failure cell: OOM, TO or N/A (empty on success)."""
    if not reason:
        return ""
    if reason.startswith("OOM"):
        return "OOM"
    if reason.startswith("TO"):
        return "TO"
    return "N/A"
