"""Algorithm 3 — PROMPT(D, M, alpha, beta): the overall prompt builder.

For ``beta == 1`` (CatDB default) one self-contained prompt combines all
schema messages and rules.  For ``beta > 1`` (CatDB Chain) the catalog is
split into ``beta`` column chunks; each chunk gets a pre-processing and a
feature-engineering prompt (carrying the pipeline generated so far), and a
single final model-selection prompt integrates everything (Figure 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.catalog.catalog import DataCatalog
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.prompt.combinations import MetadataCombination, get_combination
from repro.prompt.projection import clean_catalog, project_schema, select_top_k_columns
from repro.prompt.rules import (
    SECTION_FE,
    SECTION_MODEL,
    SECTION_PREPROCESSING,
    Rule,
    build_rules,
)
from repro.prompt.templates import render_pipeline_prompt

__all__ = ["Prompt", "ChainPromptPlan", "build_prompt_plan"]


@dataclass
class Prompt:
    """One rendered prompt plus the structured pieces it was built from."""

    text: str
    schema: list[dict[str, Any]]
    rules: list[Rule]
    subtasks: list[str]
    chunk: int = 0


@dataclass
class ChainPromptPlan:
    """The ordered prompt sequence for one generation run.

    For ``beta == 1`` this is a single prompt; for chains the plan knows
    its column chunks, and chain-step prompts are (re)rendered on demand so
    the caller can thread the previously generated code through
    (:meth:`chain_step`).
    """

    catalog: DataCatalog
    combination: MetadataCombination
    beta: int
    schema_chunks: list[list[dict[str, Any]]]
    rules: list[Rule]
    iteration: int = 0
    single: Prompt | None = None
    _full_schema: list[dict[str, Any]] = field(default_factory=list)

    @property
    def is_chain(self) -> bool:
        # not ``beta > 1``: a chain keeps only non-empty chunks, so features
        # that fit one chunk (or none) leave a chain plan with beta <= 1
        return self.single is None

    def rules_for(self, section: str) -> list[Rule]:
        return [r for r in self.rules if r.section == section]

    def chain_step(
        self, section: str, chunk_index: int, previous_code: str | None
    ) -> Prompt:
        """Render chain-step ``section`` for ``chunk_index``.

        ``previous_schema`` accumulates all earlier chunks (their content is
        recoverable from the appended code, which the prompt carries) so the
        simulated LLM can regenerate the cumulative pipeline.
        """
        if not self.is_chain:
            raise ValueError("chain_step is only valid for beta > 1")
        if section == SECTION_MODEL:
            schema: list[dict[str, Any]] = self._full_schema
            previous_schema: list[dict[str, Any]] = []
            rules = self.rules_for(SECTION_MODEL)
            subtasks = [SECTION_MODEL]
        else:
            schema = self.schema_chunks[chunk_index]
            previous_schema = [
                entry
                for earlier in self.schema_chunks[:chunk_index]
                for entry in earlier
            ]
            if section == SECTION_FE:
                # fe prompts follow all preprocessing prompts: the pipeline
                # so far spans every chunk's preprocessing
                previous_schema = [
                    entry
                    for other_index, chunk in enumerate(self.schema_chunks)
                    if other_index != chunk_index
                    for entry in chunk
                ]
            rules = self.rules_for(section)
            subtasks = [section]
        text = render_pipeline_prompt(
            self.catalog.info,
            schema,
            rules,
            subtasks=subtasks,
            previous_code=previous_code,
            previous_schema=previous_schema,
            iteration=self.iteration,
        )
        return Prompt(text=text, schema=list(schema), rules=rules,
                      subtasks=subtasks, chunk=chunk_index)


def build_prompt_plan(
    catalog: DataCatalog,
    alpha: int | None = None,
    beta: int = 1,
    combination: MetadataCombination | int = 11,
    iteration: int = 0,
    few_shot: int = 0,
) -> ChainPromptPlan:
    """Algorithm 3: clean the catalog, select top-K columns, build prompts."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if isinstance(combination, int):
        combination = get_combination(combination)
    with get_tracer().span(
        "prompt.build", dataset=catalog.info.name, beta=beta,
        combination=combination.number,
        alpha=alpha if alpha is not None else -1,
    ) as span:
        plan = _build_prompt_plan_impl(
            catalog, alpha, beta, combination, iteration, few_shot
        )
        span.set(
            schema_entries=len(plan._full_schema),
            rules=len(plan.rules),
            prompt_chars=len(plan.single.text) if plan.single else 0,
        )
        get_metrics().inc("prompt.plans")
        return plan


def _build_prompt_plan_impl(
    catalog: DataCatalog,
    alpha: int | None,
    beta: int,
    combination: MetadataCombination,
    iteration: int,
    few_shot: int,
) -> ChainPromptPlan:
    working = clean_catalog(catalog)
    working = select_top_k_columns(working, alpha)
    schema = project_schema(working, combination)
    rules = build_rules(working)

    target = working.info.target
    feature_entries = [e for e in schema if e["name"] != target]
    target_entries = [e for e in schema if e["name"] == target]

    if beta == 1:
        plan = ChainPromptPlan(
            catalog=working, combination=combination, beta=1,
            schema_chunks=[schema], rules=rules, iteration=iteration,
        )
        plan._full_schema = schema
        plan.single = Prompt(
            text=render_pipeline_prompt(
                working.info, schema, rules, iteration=iteration,
                few_shot=few_shot,
            ),
            schema=schema,
            rules=rules,
            subtasks=[SECTION_PREPROCESSING, SECTION_FE, SECTION_MODEL],
        )
        return plan

    k = math.ceil(len(feature_entries) / beta)
    chunks = [
        feature_entries[i * k : min((i + 1) * k, len(feature_entries))]
        for i in range(beta)
    ]
    chunks = [c + target_entries for c in chunks if c]
    plan = ChainPromptPlan(
        catalog=working, combination=combination, beta=len(chunks),
        schema_chunks=chunks, rules=rules, iteration=iteration,
    )
    plan._full_schema = schema
    return plan
