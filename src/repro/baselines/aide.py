"""AIDE-like baseline: an iterative LLM agent with minimal metadata.

AIDE (Schmidt et al.) drives an LLM from a concise human-written task
description plus the bare schema — no profiling, no dataset-specific
rules, no error-aware repair prompts.  On failure it simply resubmits the
original prompt (the paper observed up to 20 retries), which this
reproduction bounds with ``max_retries``.  The lack of metadata shows up
organically: string features get guessed encodings, missing-value handling
is hit-or-miss, and weak models fall back to slow grid searches.
"""

from __future__ import annotations

import time
from typing import Any

from repro.baselines.base import BaselineReport, traced_baseline_run
from repro.analysis.engine import analyze_source
from repro.generation.executor import execute_pipeline_code
from repro.llm.base import LLMClient, extract_code_block
from repro.llm.mock import embed_payload
from repro.table.table import Table

__all__ = ["AIDEBaseline"]


class AIDEBaseline:
    """Iterative resubmission agent with a bare-schema prompt."""

    name = "aide"

    def __init__(
        self,
        llm: LLMClient,
        max_retries: int = 5,
        description: str = "",
        seed: int = 0,
        exec_mode: str | None = None,
    ) -> None:
        self.llm = llm
        self.max_retries = max_retries
        self.description = description
        self.seed = seed
        self.exec_mode = exec_mode

    def _bare_schema(self, table: Table, target: str) -> list[dict[str, Any]]:
        kind_map = {"numeric": "number", "string": "string", "boolean": "boolean"}
        entries = []
        for column in table:
            entry: dict[str, Any] = {
                "name": column.name,
                "data_type": kind_map[column.kind.value],
            }
            if column.name == target:
                entry["is_target"] = True
            entries.append(entry)
        return entries

    def _prompt(self, train: Table, target: str, task_type: str, attempt: int) -> str:
        schema = self._bare_schema(train, target)
        lines = [
            "# AIDE task",
            f"You are an autonomous data-science agent. {self.description}".strip(),
            f"Build the best possible {task_type} model predicting {target!r}.",
            "Columns: " + ", ".join(
                f"{e['name']}:{e['data_type']}" for e in schema
            ),
        ]
        payload = {
            "task": "pipeline",
            "dataset": {
                "name": train.name, "task_type": task_type, "target": target,
                "n_rows": train.n_rows, "n_cols": train.n_cols,
            },
            "schema": schema,
            "rules": [],  # AIDE provides no dataset-specific rules
            "subtasks": ["preprocessing", "fe-engineering", "model-selection"],
            "iteration": self.seed * 100 + attempt,
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
        last_error = ""
        for attempt in range(self.max_retries):
            response = self.llm.complete(self._prompt(train, target, task_type, attempt))
            report.prompt_tokens += response.prompt_tokens
            report.completion_tokens += response.completion_tokens
            report.n_llm_requests += 1
            report.llm_latency_seconds += float(
                response.metadata.get("latency_seconds", 0.0)
            )
            code = extract_code_block(response.content)
            if not analyze_source(code).ok:
                last_error = "static"
                continue  # resubmit the same prompt — AIDE has no repair prompt
            result = execute_pipeline_code(code, train, test, mode=self.exec_mode)
            if result.success:
                report.success = True
                report.metrics = result.metrics
                report.pipeline_runtime_seconds = result.runtime_seconds
                report.details["attempts"] = attempt + 1
                report.details["code"] = code
                break
            last_error = result.error.error_type.name if result.error else "unknown"
        else:
            report.failure_reason = f"N/A (failed after {self.max_retries} retries: {last_error})"
        report.total_tokens = report.prompt_tokens + report.completion_tokens
        report.runtime_seconds = time.perf_counter() - start
        return report
