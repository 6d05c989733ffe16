"""The CatDB user API (paper Section 2, "User API").

The paper sketches:

.. code-block:: text

    1: md  = catdb_collect(M)            /* collect metadata */
    2: llm = LLM(model, client_url, config)  /* config LLM */
    3: P   = catdb_pipgen(md, llm)
    4: /* P.code: source code of generated pipeline */
    5: /* P.results: outputs of pipeline's execution */

This module provides exactly that surface over the library internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.catalog.catalog import DataCatalog
from repro.catalog.profiler import profile_dataset, profile_table
from repro.catalog.refinement import RefinementResult, refine_catalog
from repro.generation.generator import GenerationReport, make_generator
from repro.llm.base import LLMClient
from repro.ml.model_selection import split_for_task
from repro.table.io_csv import read_csv
from repro.table.table import Table

__all__ = ["LLM", "PipelineResult", "catdb_collect", "catdb_refine", "catdb_pipgen"]


def LLM(model: str, client_url: str = "", config: Mapping[str, Any] | None = None) -> LLMClient:
    """Configure an LLM client.

    In the original system this selects OpenAI / Google AI Studio / Groq by
    ``client_url``; here every model resolves to the offline
    :class:`~repro.llm.MockLLM` with the matching behaviour profile.
    ``config`` accepts ``seed`` and ``fault_injection``, plus the
    resilience knobs ``fault_rate`` (transient-fault injection via
    :class:`~repro.llm.FlakyLLM`), ``max_retries``, ``llm_timeout``, and
    ``retry_base_delay`` (any of which wraps the client in
    :class:`~repro.llm.ResilientLLM`); see ``docs/resilience.md``.
    """
    config = dict(config or {})
    from repro.llm import build_client

    return build_client(
        model,
        seed=int(config.get("seed", 0)),
        fault_injection=bool(config.get("fault_injection", True)),
        fault_rate=float(config.get("fault_rate", 0.0)),
        max_retries=config.get("max_retries"),
        llm_timeout=config.get("llm_timeout"),
        retry_base_delay=float(config.get("retry_base_delay", 0.05)),
    )


@dataclass
class PipelineResult:
    """What ``catdb_pipgen`` hands back to the user."""

    code: str
    results: dict[str, Any]
    report: GenerationReport
    refinement: RefinementResult | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.report.success


def catdb_collect(
    M: Mapping[str, Any] | str | Table | Sequence[Table],
    target: str | None = None,
    task_type: str | None = None,
    **kwargs: Any,
) -> DataCatalog:
    """Collect metadata for a dataset into a :class:`DataCatalog`.

    ``M`` may be a CSV path, a :class:`Table`, a sequence of tables (with a
    ``join_plan`` keyword), or a mapping with keys ``data`` (any of the
    former), ``target``, ``task_type``, and optional profiling keywords.
    """
    if isinstance(M, Mapping):
        options = dict(M)
        data = options.pop("data")
        target = options.pop("target", target)
        task_type = options.pop("task_type", task_type)
        kwargs = {**options, **kwargs}
    else:
        data = M
    if target is None or task_type is None:
        raise ValueError("catdb_collect requires `target` and `task_type`")
    if isinstance(data, str):
        data = read_csv(data)
    if isinstance(data, Table):
        return profile_table(data, target=target, task_type=task_type, **kwargs)
    return profile_dataset(list(data), target=target, task_type=task_type, **kwargs)


def catdb_refine(
    table: Table, catalog: DataCatalog, llm: LLMClient
) -> RefinementResult:
    """Run LLM-assisted catalog refinement + data cleaning (Section 3.2)."""
    return refine_catalog(table, catalog, llm)


def catdb_pipgen(
    md: DataCatalog,
    llm: LLMClient,
    data: Table | None = None,
    train: Table | None = None,
    test: Table | None = None,
    alpha: int | None = None,
    beta: int = 1,
    combination: int = 11,
    refine: bool = False,
    max_fix_attempts: int = 5,
    iteration: int = 0,
    test_size: float = 0.3,
    seed: int = 0,
    exec_timeout_seconds: float | None = None,
    exec_mode: str | None = None,
    exec_memory_mb: int | None = None,
) -> PipelineResult:
    """Generate, validate, and execute a data-centric ML pipeline.

    Pass either a full ``data`` table (split 70/30 internally, matching the
    paper's protocol) or explicit ``train``/``test`` tables.  ``beta > 1``
    selects CatDB Chain.  ``refine=True`` first runs catalog refinement and
    materializes the cleaned dataset.  ``exec_timeout_seconds`` bounds each
    generated-pipeline execution with a hard wall-clock budget;
    ``exec_mode="pool"`` runs each execution in an isolated subprocess
    worker with an optional ``exec_memory_mb`` address-space cap (see
    :mod:`repro.execpool`).
    """
    if data is None and (train is None or test is None):
        raise ValueError("pass `data`, or both `train` and `test`")
    if data is not None:
        train, test = split_for_task(
            data, md.info.target, md.info.task_type, test_size=test_size, seed=seed
        )
    assert train is not None and test is not None

    refinement: RefinementResult | None = None
    if refine:
        refinement = refine_catalog(train, md, llm)
        md = refinement.catalog
        train = refinement.table
        # category mappings, composite splits and numeric conversions
        # must hit the test set too
        test = refinement.apply_to(test)

    generator = make_generator(
        llm, beta=beta, alpha=alpha, combination=combination,
        max_fix_attempts=max_fix_attempts,
        exec_timeout_seconds=exec_timeout_seconds,
        exec_mode=exec_mode, exec_memory_mb=exec_memory_mb,
    )
    report = generator.generate(train, test, md, iteration=iteration)
    return PipelineResult(
        code=report.code, results=report.metrics, report=report,
        refinement=refinement,
    )
