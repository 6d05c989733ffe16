"""Figure 14 — robustness to injected outliers, missing values, and mixed
errors (Utility regression + Volkert classification).

Corruption is injected into the raw data at ratios 0-5%; each system then
trains and is evaluated on an equally-corrupted test split (end-to-end
protocol, no pre-cleaned data).  Reproduced shapes: CatDB holds its
quality as corruption grows (rules trigger imputation/winsorization);
AutoML tools deteriorate beyond ~1% outliers; FLAML/AutoGluon tolerate
missing values in regression better than the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.profiler import profile_table
from repro.datasets.corruption import (
    inject_missing_values,
    inject_mixed_errors,
    inject_outliers,
)
from repro.experiments.common import (
    SYSTEMS,
    add_prepare_nodes,
    failure_marker,
    format_table,
    grid_rows,
    run_grid,
    run_system,
)
from repro.runner import JobGraph

__all__ = ["Fig14Result", "run"]

_INJECTORS = {
    "outliers": inject_outliers,
    "missing": inject_missing_values,
    "mixed": inject_mixed_errors,
}
_DEFAULT_RATIOS = (0.0, 0.01, 0.03, 0.05)


@dataclass
class Fig14Result:
    rows: list[dict] = field(default_factory=list)

    def series(self, dataset: str, corruption: str, system: str) -> list[tuple[float, float | None]]:
        return sorted(
            (r["ratio"], r["metric"]) for r in self.rows
            if (r["dataset"], r["corruption"], r["system"]) == (dataset, corruption, system)
        )

    def render(self) -> str:
        from repro.experiments.ascii_plot import series_plot

        table_rows = [
            [r["dataset"], r["corruption"], f"{r['ratio']:.0%}", r["system"],
             f"{100 * r['metric']:.1f}" if r["metric"] is not None else r["failure"] or "fail"]
            for r in self.rows
        ]
        parts = [format_table(
            ["dataset", "corruption", "ratio", "system", "metric"],
            table_rows, title="Figure 14: robustness to injected errors",
        )]
        combos = sorted({(r["dataset"], r["corruption"]) for r in self.rows})
        for dataset, corruption in combos:
            systems = sorted({
                r["system"] for r in self.rows
                if (r["dataset"], r["corruption"]) == (dataset, corruption)
            })
            ratios = sorted({
                r["ratio"] for r in self.rows
                if (r["dataset"], r["corruption"]) == (dataset, corruption)
            })
            series = {
                system: [
                    next((r["metric"] for r in self.rows
                          if (r["dataset"], r["corruption"], r["ratio"],
                              r["system"]) == (dataset, corruption, ratio, system)),
                         None)
                    for ratio in ratios
                ]
                for system in systems
            }
            parts.append(series_plot(
                ratios, series,
                title=f"{dataset} / {corruption}: metric vs corruption ratio",
            ))
        return "\n\n".join(parts)


def run(
    datasets: tuple[str, ...] = ("utility", "volkert"),
    corruptions: tuple[str, ...] = ("outliers", "missing", "mixed"),
    ratios: tuple[float, ...] = _DEFAULT_RATIOS,
    llm_name: str = "gemini-1.5",
    automl_tools: tuple[str, ...] = ("flaml", "autogluon", "h2o"),
    automl_budget: float = 6.0,
    include_caafe: bool = True,
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Fig14Result:
    graph = JobGraph()
    add_prepare_nodes(graph, datasets, seed, quick)
    for name in datasets:
        for corruption in corruptions:
            for ratio in ratios:

                def corrupt(prepared, corruption=corruption, ratio=ratio):
                    injector = _INJECTORS[corruption]
                    train = injector(prepared.train, prepared.target, ratio,
                                     seed=seed)
                    test = injector(prepared.test, prepared.target, ratio,
                                    seed=seed + 1)
                    # CatDB re-profiles the corrupted data (its rules adapt)
                    catalog = profile_table(
                        train, target=prepared.target,
                        task_type=prepared.task_type, seed=seed,
                    )
                    return train, test, catalog

                graph.add(
                    f"corrupt:{name}:{corruption}:{ratio}", corrupt,
                    deps=(f"prepare:{name}",), seed=seed,
                )

    systems = ("catdb", *automl_tools) + (
        ("caafe-rforest",) if include_caafe else ()
    )
    for name in datasets:
        for corruption in corruptions:
            for ratio in ratios:
                for system in systems:

                    def cell(prepared, corrupted, name=name,
                             corruption=corruption, ratio=ratio,
                             system=system):
                        # regression has no CAAFE analogue: emit no rows
                        if (system == "caafe-rforest"
                                and prepared.task_type == "regression"):
                            return []
                        train, test, catalog = corrupted
                        report = run_system(
                            prepared, system, llm_name=llm_name, seed=seed,
                            catalog=catalog, train=train, test=test,
                            time_budget_seconds=automl_budget,
                        )
                        return {
                            "dataset": name, "corruption": corruption,
                            "ratio": ratio, "system": system,
                            "metric": report.primary_metric
                            if report.success else None,
                            "failure": failure_marker(report),
                        }

                    config = {"dataset": name, "corruption": corruption,
                              "ratio": ratio, "system": system,
                              "llm": llm_name, "seed": seed, "quick": quick}
                    if SYSTEMS[system].kind == "automl":
                        del config["llm"]  # AutoML tools take no LLM
                    graph.add(
                        f"cell:{name}:{corruption}:{ratio}:{system}", cell,
                        deps=(f"prepare:{name}",
                              f"corrupt:{name}:{corruption}:{ratio}"),
                        config=config, seed=seed,
                    )

    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="fig14")

    def fallback(config, res):
        if config["system"] == "caafe-rforest":
            return []
        return {
            "dataset": config["dataset"], "corruption": config["corruption"],
            "ratio": config["ratio"], "system": config["system"],
            "metric": None, "failure": "N/A",
        }

    result = Fig14Result()
    result.rows = grid_rows(graph, results, fallback=fallback)
    return result
