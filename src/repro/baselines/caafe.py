"""CAAFE-like baseline: LLM feature engineering on top of a fixed model.

CAAFE (Hollmann et al., NeurIPS 2023) keeps pre-processing and the model
fixed (TabPFN by default) and asks the LLM only for new features, keeping
each proposal if holdout performance improves.  The paper extends CAAFE
with a RandomForest backend for scalability and notes two weaknesses this
baseline reproduces: prompts carry schema *plus ten sample rows per
feature* (high token cost on wide data), and TabPFN's limits make it fail
with out-of-memory on large datasets.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.baselines.base import (
    BaselineReport,
    default_vectorize,
    evaluate_predictions,
    traced_baseline_run,
)
from repro.llm.base import LLMClient, extract_code_block
from repro.llm.mock import embed_payload
from repro.ml.forest import RandomForestClassifier
from repro.ml.neighbors import TabPFNProxy
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import train_test_split
from repro.table.table import Table

__all__ = ["CAAFEBaseline"]


class CAAFEBaseline:
    """Semi-automated feature engineering with a fixed downstream model."""

    # paper-scale row count beyond which TabPFN runs out of memory
    # (Gas-Drift's 13.9k rows still worked in Figure 11(b); Volkert's 58k
    # and Yelp's 230k did not)
    TABPFN_MAX_DATASET_ROWS = 30_000

    def __init__(
        self,
        llm: LLMClient,
        model: str = "tabpfn",
        n_rounds: int = 2,
        seed: int = 0,
    ) -> None:
        if model not in ("tabpfn", "rforest"):
            raise ValueError("model must be 'tabpfn' or 'rforest'")
        self.llm = llm
        self.model = model
        self.n_rounds = n_rounds
        self.seed = seed
        self.name = f"caafe-{model}"

    # -- prompt ----------------------------------------------------------------

    def _schema_with_samples(self, table: Table, target: str) -> list[dict[str, Any]]:
        entries = []
        for column in table:
            if column.name == target:
                continue
            samples = [v for v in column.to_list()[:10]]
            entries.append({
                "name": column.name,
                "data_type": {
                    "numeric": "number", "string": "string", "boolean": "boolean"
                }[column.kind.value],
                "samples": samples,
            })
        return entries

    def _feature_prompt(self, table: Table, target: str, round_index: int) -> str:
        schema = self._schema_with_samples(table, target)
        lines = [
            "# CAAFE feature engineering",
            f"Target column: {target}. Propose derived features that could",
            "improve a fixed downstream classifier. Dataset columns with 10",
            "sample values each:",
        ]
        for entry in schema:
            lines.append(f"- {entry['name']} ({entry['data_type']}): {entry['samples']!r}")
        lines.append(embed_payload({
            "task": "caafe_features",
            "schema": schema,
            "round": round_index,
        }))
        return "\n".join(lines)

    # -- run ----------------------------------------------------------------------

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
        if task_type == "regression":
            report.failure_reason = "N/A (doesn't support regression)"
            report.runtime_seconds = time.perf_counter() - start
            return report
        # TabPFN blows GPU memory beyond a few tens of thousands of rows at
        # the *original* dataset scale (the paper's Yelp/Volkert/Airline
        # failures); the reproduction runs on scaled-down data, so the
        # envelope is checked against the paper-scale row count.
        paper_rows = float((meta or {}).get("paper_rows", train.n_rows))
        if self.model == "tabpfn" and paper_rows > self.TABPFN_MAX_DATASET_ROWS:
            report.failure_reason = "OOM"
            report.details["error"] = (
                f"TabPFN cannot fit {paper_rows:.0f}-row datasets"
            )
            report.runtime_seconds = time.perf_counter() - start
            return report

        labels_for_split = [str(v) for v in train[target]]
        fit_part, val_part = train_test_split(
            train, test_size=0.3, random_state=self.seed, stratify=labels_for_split
        )
        try:
            best_score = self._holdout_score(fit_part, val_part, target)
        except MemoryError as exc:
            report.failure_reason = "OOM"
            report.details["error"] = str(exc)
            report.runtime_seconds = time.perf_counter() - start
            return report
        working_train, working_test = train, test

        for round_index in range(self.n_rounds):
            prompt = self._feature_prompt(working_train, target, round_index)
            response = self.llm.complete(prompt)
            report.prompt_tokens += response.prompt_tokens
            report.completion_tokens += response.completion_tokens
            report.n_llm_requests += 1
            report.llm_latency_seconds += float(
                response.metadata.get("latency_seconds", 0.0)
            )
            snippet = extract_code_block(response.content)
            engineered = self._apply_snippet(snippet, fit_part, val_part)
            if engineered is None:
                continue  # CAAFE skips feature engineering on errors
            new_fit, new_val = engineered
            try:
                score = self._holdout_score(new_fit, new_val, target)
            except MemoryError:
                continue  # engineered features pushed past the model's limits
            if score > best_score:
                best_score = score
                applied = self._apply_snippet(snippet, working_train, working_test)
                if applied is not None:
                    working_train, working_test = applied
                    fit_part, val_part = new_fit, new_val

        report.total_tokens = report.prompt_tokens + report.completion_tokens
        pipeline_start = time.perf_counter()
        try:
            metrics = self._fit_final(working_train, working_test, target, task_type)
        except MemoryError as exc:
            report.failure_reason = "OOM"
            report.details["error"] = str(exc)
            report.runtime_seconds = time.perf_counter() - start
            return report
        except Exception as exc:  # noqa: BLE001
            report.failure_reason = f"N/A ({type(exc).__name__})"
            report.runtime_seconds = time.perf_counter() - start
            return report
        report.pipeline_runtime_seconds = time.perf_counter() - pipeline_start
        report.metrics = metrics
        report.success = True
        report.runtime_seconds = time.perf_counter() - start
        return report

    # -- helpers -----------------------------------------------------------------------

    def _apply_snippet(
        self, snippet: str, a: Table, b: Table
    ) -> tuple[Table, Table] | None:
        namespace: dict[str, Any] = {}
        try:
            exec(compile(snippet, "<caafe>", "exec"), namespace)  # noqa: S102
            engineer = namespace["engineer_features"]
            return engineer(a.copy()), engineer(b.copy())
        except Exception:  # noqa: BLE001 - CAAFE skips on errors
            return None

    def _make_model(self, n_train: int):
        if self.model == "tabpfn":
            return TabPFNProxy()
        return RandomForestClassifier(
            n_estimators=40, max_depth=12, random_state=self.seed
        )

    def _cap_for_tabpfn(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CAAFE feeds TabPFN at most its supported training-sample count."""
        if self.model != "tabpfn" or X.shape[0] <= 1000:
            return X, y
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(X.shape[0], size=1000, replace=False)
        return X[picks], y[picks]

    def _holdout_score(self, fit_part: Table, val_part: Table, target: str) -> float:
        try:
            X_fit, X_val, _ = default_vectorize(fit_part, val_part, target)
            y_fit = np.asarray([str(v) for v in fit_part[target]], dtype=object)
            y_val = np.asarray([str(v) for v in val_part[target]], dtype=object)
            X_fit, y_fit = self._cap_for_tabpfn(X_fit, y_fit)
            model = self._make_model(X_fit.shape[0])
            model.fit(X_fit, y_fit)
            return accuracy_score(y_val, model.predict(X_val))
        except MemoryError:
            raise
        except Exception:  # noqa: BLE001
            return -1.0

    def _fit_final(
        self, train: Table, test: Table, target: str, task_type: str
    ) -> dict[str, float]:
        X_train, X_test, _ = default_vectorize(train, test, target)
        y_train = np.asarray([str(v) for v in train[target]], dtype=object)
        y_test = np.asarray([str(v) for v in test[target]], dtype=object)
        X_fit, y_fit = self._cap_for_tabpfn(X_train, y_train)
        model = self._make_model(X_fit.shape[0])
        model.fit(X_fit, y_fit)
        return evaluate_predictions(
            task_type, y_train, y_test,
            model.predict(X_train), model.predict(X_test),
            model.predict_proba(X_train), model.predict_proba(X_test),
            list(model.classes_),
        )
