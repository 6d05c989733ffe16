"""Table 2 + Figure 8 — the error-trace dataset and its distributions.

Replays pipeline generation across datasets and LLM profiles with a shared
knowledge base, then reports the per-group (KB/SE/RE) percentages of
Table 2 and the per-type frequencies of Figure 8.  Reproduced shapes:
runtime/semantic errors dominate for every model; the Gemini profile shows
a markedly higher KB share than Llama (Table 2's 21.2% vs 2.5%).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    add_prepare_nodes,
    format_table,
    grid_rows,
    run_grid,
)
from repro.generation.knowledge_base import ErrorTrace, KnowledgeBase
from repro.runner import JobGraph

__all__ = ["Table2Result", "run"]

_DEFAULT_DATASETS = ("wifi", "diabetes", "cmc", "etailing", "utility",
                     "bike_sharing")


@dataclass
class Table2Result:
    knowledge_base: KnowledgeBase = field(default_factory=KnowledgeBase)
    n_requests: dict[str, int] = field(default_factory=dict)

    def group_distribution(self, llm: str) -> dict[str, float]:
        return self.knowledge_base.group_distribution(llm)

    def type_distribution(self) -> dict[str, float]:
        return self.knowledge_base.type_distribution()

    def render(self) -> str:
        parts = []
        rows = []
        for llm, total in self.n_requests.items():
            dist = self.group_distribution(llm)
            rows.append([llm, total, f"{dist['KB']:.2f}",
                         f"{dist['SE']:.2f}", f"{dist['RE']:.2f}"])
        parts.append(format_table(
            ["LLM", "total requests", "KB [%]", "SE [%]", "RE [%]"],
            rows, title="Table 2: error distributions of the trace dataset",
        ))
        type_rows = [[name, f"{pct:.2f}"] for name, pct
                     in self.type_distribution().items()]
        parts.append(format_table(
            ["error type", "share [%]"], type_rows,
            title="Figure 8: ratio and distribution of error types",
        ))
        return "\n\n".join(parts)


def run(
    datasets: tuple[str, ...] = _DEFAULT_DATASETS,
    llms: tuple[str, ...] = ("gemini-1.5", "llama3.1-70b"),
    iterations: int = 8,
    error_rate_multiplier: float = 3.0,
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
    resume: bool = False,
    progress: bool = False,
) -> Table2Result:
    """Generate many pipelines, collecting every error into one trace set.

    ``error_rate_multiplier`` stresses the simulated models so the replay
    yields a trace sample comparable (in shape, not count) to the paper's
    development-period dataset of 10k-20k requests.

    Each grid cell runs with its *own* :class:`KnowledgeBase` (the entry
    set is static, so per-cell and shared KBs patch identically) and the
    per-cell traces are merged in cell-definition order afterwards —
    which makes the grid embarrassingly parallel while keeping the trace
    set identical to the legacy sequential replay.
    """
    from dataclasses import asdict

    from repro.generation.generator import CatDB
    from repro.llm.mock import MockLLM

    graph = JobGraph()
    add_prepare_nodes(graph, datasets, seed, quick)
    for llm_name in llms:
        for name in datasets:
            for iteration in range(iterations):

                def cell(prepared, llm_name=llm_name, iteration=iteration):
                    llm = MockLLM(
                        llm_name, seed=seed + iteration,
                        error_rate_multiplier=error_rate_multiplier,
                    )
                    knowledge_base = KnowledgeBase()
                    generator = CatDB(
                        llm, max_fix_attempts=4,
                        knowledge_base=knowledge_base,
                    )
                    report = generator.generate(
                        prepared.train, prepared.test, prepared.catalog,
                        iteration=iteration,
                    )
                    return {
                        "llm": llm_name,
                        "requests":
                            report.cost.gamma + report.cost.n_error_prompts,
                        "traces": [asdict(t) for t in knowledge_base.traces],
                    }

                graph.add(
                    f"cell:{llm_name}:{name}:{iteration}", cell,
                    deps=(f"prepare:{name}",),
                    config={"dataset": name, "llm": llm_name,
                            "iteration": iteration, "seed": seed,
                            "quick": quick,
                            "error_rate_multiplier": error_rate_multiplier},
                    seed=seed + iteration,
                )
    results = run_grid(graph, workers=workers, resume=resume,
                       progress=progress, label="table2")
    result = Table2Result()
    for row in grid_rows(graph, results):
        result.n_requests[row["llm"]] = (
            result.n_requests.get(row["llm"], 0) + row["requests"]
        )
        result.knowledge_base.traces.extend(
            ErrorTrace(**trace) for trace in row["traces"]
        )
    return result
