"""LLM-assisted data catalog refinement (paper Section 3.2, Figures 4-5).

Three refinements run per string column, each driven by an LLM call
(answered offline by :class:`repro.llm.MockLLM`'s semantic layer):

1. **Feature-type inference** from the attribute name plus ~10 samples —
   Sentence columns become List / Categorical / Composite / Numerical.
2. **Composite splitting** — e.g. ``Address`` mixing zips and state codes
   splits into ``State`` and ``Zip`` columns.
3. **Categorical deduplication** — semantically equivalent spellings map
   onto one canonical value ("F"/"Female" -> "Female"), batch-wise for
   large domains.

Refinement is decide, then replay.  :func:`refine_catalog` asks the LLM
and logs each decision (the category mapping, the composite spec and
the part names it chose, the numeric cast, the constant drop); the
refined table is that log replayed through the one per-operation step
that :meth:`RefinementResult.apply_to` also runs on every later split
(the paper's materialization: "we apply the mapping of categorical
features values").  The input table and catalog are never edited.

The result carries the refined table, a catalog re-profiled from it,
per-column distinct counts before/after (the paper's Table 4), and the
operations log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.catalog.catalog import DataCatalog
from repro.catalog.feature_types import FeatureType
from repro.catalog.profiler import profile_table
from repro.llm import semantics
from repro.llm.base import LLMClient
from repro.llm.mock import embed_payload
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.table.column import Column, ColumnKind
from repro.table.table import Table

__all__ = ["RefinementResult", "refine_catalog"]

_SAMPLES_FOR_TYPING = 10
_DEDUPE_BATCH = 40


@dataclass
class RefinementResult:
    """Outcome of one catalog-refinement pass."""

    table: Table
    catalog: DataCatalog
    operations: list[dict[str, Any]] = field(default_factory=list)
    distinct_before: dict[str, int] = field(default_factory=dict)
    distinct_after: dict[str, int] = field(default_factory=dict)
    category_mappings: dict[str, dict[Any, Any]] = field(default_factory=dict)
    # the spec each composite split recorded; replays never re-detect it
    composite_specs: dict[str, semantics.CompositeSpec] = field(default_factory=dict)

    @property
    def n_refined_columns(self) -> int:
        return len(self.operations)

    def apply_to(self, table: Table) -> Table:
        """Replay this refinement on another split of the same data: every
        logged operation in log order, through the step that built
        :attr:`table`."""
        for op in self.operations:
            table = self._apply_op(table, op)
        return table

    def _apply_op(self, table: Table, op: dict[str, Any]) -> Table:
        """The one table rewrite of each refinement operation."""
        name = op["column"]
        if name not in table:
            return table
        if op["op"] == "drop_constant":
            return table.drop([name])
        if op["op"] == "composite_split":
            spec = self.composite_specs[name]
            cells = [spec.split(cell) for cell in table[name]]
            out = table.drop([name])
            for part, new_name in zip(spec.parts, op["parts"]):
                out.add_column(Column(new_name, [c[part] for c in cells]))
            return out
        if op["op"] == "dedupe_categories":
            mapping = self.category_mappings[name]
            values = [None if v is None else mapping.get(v, str(v)) for v in table[name]]
            rewritten = Column(name, values, kind=ColumnKind.STRING)
        elif op["op"] == "to_numeric":
            rewritten = table[name].astype_numeric()
        else:  # list_feature annotates the catalog only
            return table
        return Table(
            (rewritten if existing == name else table[existing]
             for existing in table.column_names),
            name=table.name,
        )

    def _record(self, op: dict[str, Any]) -> None:
        """Log one decision and replay it on the table being refined."""
        self.operations.append(op)
        self.table = self._apply_op(self.table, op)


def _ask_feature_type(llm: LLMClient, name: str, samples: list[Any]) -> dict[str, Any]:
    prompt = (
        f"Infer the ML feature type of attribute {name!r} from these sample "
        f"values: {samples!r}. Answer with a JSON object.\n"
        + embed_payload({"task": "feature_type", "column": name, "samples": samples})
    )
    return json.loads(llm.complete(prompt).content)


def _ask_dedupe(llm: LLMClient, name: str, values: list[Any]) -> dict[Any, str]:
    """Batch-wise category deduplication through the LLM."""
    mapping: dict[Any, str] = {}
    for start in range(0, len(values), _DEDUPE_BATCH):
        batch = values[start : start + _DEDUPE_BATCH]
        prompt = (
            f"These are distinct values of the categorical attribute {name!r}. "
            "Map semantically equivalent values to one canonical spelling and "
            "answer with a JSON mapping.\n"
            + embed_payload({"task": "dedupe", "column": name, "values": batch})
        )
        raw = json.loads(llm.complete(prompt).content)
        for original in batch:
            mapping[original] = raw.get(str(original), str(original))
    return mapping


def _dedupe_column(result: RefinementResult, column: Column, llm: LLMClient) -> None:
    """LLM-dedupe one categorical column: records the mapping, the
    operation, and the before/after distinct counts."""
    name = column.name
    distinct_values = column.unique()
    result.distinct_before.setdefault(name, len(distinct_values))
    mapping = _ask_dedupe(llm, name, distinct_values)
    result.category_mappings[name] = mapping
    op = {"column": name, "op": "dedupe_categories",
          "n_merged": sum(str(k) != v for k, v in mapping.items())}
    result._record(op)
    after = result.table[name].n_distinct
    result.distinct_after[name] = after
    op["distinct_after"] = after


def refine_catalog(
    table: Table, catalog: DataCatalog, llm: LLMClient
) -> RefinementResult:
    """Run the full refinement workflow of Figure 4 on one table."""
    with get_tracer().span(
        "refine.catalog", dataset=table.name, cols=table.n_cols
    ) as span:
        result = _refine_catalog_impl(table, catalog, llm)
        span.set(operations=len(result.operations))
        metrics = get_metrics()
        for op in result.operations:
            metrics.inc("refine.ops", op=op["op"])
        return result


def _refine_catalog_impl(
    table: Table, catalog: DataCatalog, llm: LLMClient
) -> RefinementResult:
    result = RefinementResult(table=table, catalog=catalog)

    for profile in catalog.profiles():
        name = profile.name
        if name not in result.table:
            continue
        column = result.table[name]
        if name == catalog.info.target:
            # the target itself can carry semantically duplicate labels
            # (the paper's EU IT case: "semantically identical but
            # differently formatted duplicates"); dedupe them — but never
            # drop, split, or retype the label column
            if (
                catalog.info.task_type != "regression"
                and column.kind is ColumnKind.STRING
            ):
                _dedupe_column(result, column, llm)
            continue
        if profile.feature_type is FeatureType.CONSTANT:
            result._record({"column": name, "op": "drop_constant"})
            continue
        if column.kind is not ColumnKind.STRING:
            continue
        if profile.feature_type not in (
            FeatureType.SENTENCE,
            FeatureType.CATEGORICAL,
            FeatureType.LIST,
        ):
            continue

        result.distinct_before.setdefault(name, profile.distinct_count)
        samples = column.unique()[:_SAMPLES_FOR_TYPING]
        answer = _ask_feature_type(llm, name, samples)
        inferred = answer.get("feature_type", profile.feature_type.value)

        if inferred == "List":
            delimiter = answer.get("delimiter", ",")
            items = {
                part.strip()
                for cell in column.unique()
                for part in str(cell).split(delimiter)
                if part.strip()
            }
            result.distinct_after[name] = len(items)
            result._record(
                {"column": name, "op": "list_feature", "delimiter": delimiter,
                 "n_items": len(items)}
            )
        elif inferred == "Composite":
            spec = semantics.detect_composite(column.unique())
            if spec is None:
                continue
            others = set(result.table.column_names) - {name}
            parts = [
                part if part not in others else f"{name}_{part}"
                for part in spec.parts
            ]
            result.composite_specs[name] = spec
            result._record({"column": name, "op": "composite_split", "parts": parts})
            for part in parts:
                result.distinct_after[part] = result.table[part].n_distinct
        elif inferred == "Numerical":
            result._record({"column": name, "op": "to_numeric"})
            result.distinct_after[name] = result.table[name].n_distinct
        else:  # Categorical: dedupe values
            _dedupe_column(result, column, llm)

    # re-profile so downstream prompts see the refined statistics
    refreshed = profile_table(
        result.table,
        target=catalog.info.target,
        task_type=catalog.info.task_type,
        n_tables=catalog.info.n_tables,
        file_path=catalog.info.file_path,
        delimiter=catalog.info.delimiter,
        description=catalog.info.description,
    )
    # carry refinement annotations (list delimiters) over to the new catalog
    delimiters = {
        op["column"]: op["delimiter"]
        for op in result.operations
        if op["op"] == "list_feature"
    }
    for profile in refreshed.profiles():
        if profile.name in delimiters:
            profile.feature_type = FeatureType.LIST
            profile.is_categorical = False
            profile.list_delimiter = delimiters[profile.name]
    result.catalog = refreshed
    return result
