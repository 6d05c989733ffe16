"""AutoGen-like baseline: multi-agent conversation around pipeline code.

AutoGen (Wu et al.) coordinates planner / coder / executor agents in a
conversation.  Compared to CatDB it sees heuristic feature types (the
coder agent can run profiling code) but no refined metadata and no
dataset-specific rules, and its repair loop feeds execution errors back
into the *conversation* rather than structured error prompts.  The
multi-agent chatter inflates token costs by a fixed conversational
overhead per round, and runs that never converge end in failure (the
paper's Gas-Drift-with-Llama case).
"""

from __future__ import annotations

import time
from typing import Any

from repro.baselines.base import BaselineReport, traced_baseline_run
from repro.catalog.feature_types import infer_feature_type_heuristic
from repro.analysis.engine import analyze_source
from repro.generation.executor import execute_pipeline_code
from repro.llm.base import LLMClient, extract_code_block
from repro.llm.mock import embed_payload
from repro.llm.tokenizer import count_tokens
from repro.table.table import Table

__all__ = ["AutoGenBaseline"]

_CONVERSATION_OVERHEAD = (
    "[planner] Decompose the task into data loading, preparation, and "
    "modelling. [critic] Validate each step before execution. [coder] "
    "Produce the full script. [executor] Run it and report errors back."
)


class AutoGenBaseline:
    """Planner/coder/executor conversation over one pipeline script."""

    name = "autogen"

    def __init__(
        self,
        llm: LLMClient,
        max_rounds: int = 15,
        description: str = "",
        seed: int = 0,
    ) -> None:
        self.llm = llm
        self.max_rounds = max_rounds
        self.description = description
        self.seed = seed

    def _schema(self, table: Table, target: str) -> list[dict[str, Any]]:
        kind_map = {"numeric": "number", "string": "string", "boolean": "boolean"}
        entries = []
        for column in table:
            feature_type = infer_feature_type_heuristic(
                column, column.n_distinct / max(1, table.n_rows)
            )
            entry: dict[str, Any] = {
                "name": column.name,
                "data_type": kind_map[column.kind.value],
                "feature_type": feature_type.value,
            }
            if column.name == target:
                entry["is_target"] = True
            entries.append(entry)
        return entries

    def _prompt(
        self, train: Table, schema: list[dict[str, Any]], target: str,
        task_type: str, round_index: int, error_note: str,
    ) -> str:
        lines = [
            "# AutoGen multi-agent session",
            _CONVERSATION_OVERHEAD,
            f"{self.description}".strip(),
            f"Goal: a {task_type} pipeline predicting {target!r}.",
        ]
        if error_note:
            lines.append(f"[executor] Previous attempt failed: {error_note}")
        payload = {
            "task": "pipeline",
            "dataset": {
                "name": train.name, "task_type": task_type, "target": target,
                "n_rows": train.n_rows, "n_cols": train.n_cols,
            },
            "schema": schema,
            "rules": [],  # no catalog-derived rules in AutoGen
            "subtasks": ["preprocessing", "fe-engineering", "model-selection"],
            "iteration": self.seed * 1000 + round_index,
        }
        lines.append(embed_payload(payload))
        return "\n".join(lines)

    @traced_baseline_run
    def run(
        self,
        train: Table,
        test: Table,
        target: str,
        task_type: str,
        meta: dict[str, Any] | None = None,
    ) -> BaselineReport:
        report = BaselineReport(system=self.name, dataset=train.name)
        start = time.perf_counter()
        error_note = ""
        schema = self._schema(train, target)
        for round_index in range(self.max_rounds):
            prompt = self._prompt(
                train, schema, target, task_type, round_index, error_note
            )
            response = self.llm.complete(prompt)
            # conversational overhead: the planner/critic/executor turns
            overhead = count_tokens(_CONVERSATION_OVERHEAD) * 3
            report.prompt_tokens += response.prompt_tokens + overhead
            report.completion_tokens += response.completion_tokens
            report.n_llm_requests += 1
            report.llm_latency_seconds += float(
                response.metadata.get("latency_seconds", 0.0)
            )
            code = extract_code_block(response.content)
            # statically-dirty candidates never reach the executor;
            # the finding feeds the next conversation round instead
            static = analyze_source(code)
            if not static.ok:
                error = static.first_error()
                assert error is not None
                error_note = error.render()
                continue
            result = execute_pipeline_code(code, train, test)
            if result.success:
                report.success = True
                report.metrics = result.metrics
                report.pipeline_runtime_seconds = result.runtime_seconds
                report.details["rounds"] = round_index + 1
                report.details["code"] = code
                break
            error_note = result.error.render() if result.error else "unknown error"
        else:
            report.failure_reason = (
                f"N/A (conversation did not converge in {self.max_rounds} rounds)"
            )
        report.total_tokens = report.prompt_tokens + report.completion_tokens
        report.runtime_seconds = time.perf_counter() - start
        return report
