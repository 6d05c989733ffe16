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

The result carries the refined table, the updated catalog, per-column
distinct counts before/after (the paper's Table 4), and an operations log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.catalog.catalog import ColumnProfile, DataCatalog
from repro.catalog.feature_types import FeatureType
from repro.catalog.materialize import materialize_refined
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

    @property
    def n_refined_columns(self) -> int:
        return len(self.operations)

    def apply_to(self, table: Table) -> Table:
        """Replay this refinement on another split of the same data: the
        category mappings, then the structural operations (composite
        splits, numeric casts, constant drops) in log order."""
        out = materialize_refined(table, self.category_mappings)
        for op in self.operations:
            name = op["column"]
            if op["op"] == "composite_split" and name in out:
                spec = semantics.detect_composite(out[name].unique())
                if spec is None:
                    out = out.drop([name])
                    continue
                parts: dict[str, list[Any]] = {p: [] for p in spec.parts}
                for cell in out[name]:
                    split = spec.split(cell)
                    for part in spec.parts:
                        parts[part].append(split[part])
                out = out.drop([name])
                for part_name in op["parts"]:
                    suffix = part_name.split("_")[-1]
                    values = parts.get(suffix) or parts.get(part_name)
                    if values is not None:
                        out.add_column(Column(part_name, values))
            elif op["op"] == "to_numeric" and name in out:
                converted = out[name].astype_numeric()
                out = Table(
                    (
                        converted if existing == name else out[existing]
                        for existing in out.column_names
                    ),
                    name=out.name,
                )
            elif op["op"] == "drop_constant" and name in out:
                out = out.drop([name])
        return out


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


def _dedupe_column(
    table: Table, name: str, llm: LLMClient, result: "RefinementResult"
) -> Table:
    """LLM-dedupe one categorical column in place; records the mapping,
    the operation log entry, and the before/after distinct counts."""
    column = table[name]
    distinct_values = column.unique()
    result.distinct_before.setdefault(name, len(distinct_values))
    mapping = _ask_dedupe(llm, name, distinct_values)
    changed = {k: v for k, v in mapping.items() if str(k) != v}
    new_values = [
        None if v is None else mapping.get(v, str(v)) for v in column
    ]
    new_column = Column(name, new_values, kind=ColumnKind.STRING)
    rebuilt = Table(
        (
            new_column if existing == name else table[existing]
            for existing in table.column_names
        ),
        name=table.name,
    )
    result.category_mappings[name] = dict(mapping)
    after = new_column.n_distinct
    result.distinct_after[name] = after
    result.operations.append(
        {"column": name, "op": "dedupe_categories",
         "n_merged": len(changed), "distinct_after": after}
    )
    return rebuilt


def refine_catalog(
    table: Table,
    catalog: DataCatalog,
    llm: LLMClient,
    dedupe_numeric_categoricals: bool = False,
) -> RefinementResult:
    """Run the full refinement workflow of Figure 4 on one table."""
    with get_tracer().span(
        "refine.catalog", dataset=table.name, cols=table.n_cols
    ) as span:
        result = _refine_catalog_impl(
            table, catalog, llm, dedupe_numeric_categoricals
        )
        span.set(operations=len(result.operations))
        metrics = get_metrics()
        for op in result.operations:
            metrics.inc("refine.ops", op=op["op"])
        return result


def _refine_catalog_impl(
    table: Table,
    catalog: DataCatalog,
    llm: LLMClient,
    dedupe_numeric_categoricals: bool = False,
) -> RefinementResult:
    result = RefinementResult(table=table, catalog=catalog)
    out = table

    for profile in list(catalog.profiles()):
        name = profile.name
        if name not in out:
            continue
        if name == catalog.info.target:
            # the target itself can carry semantically duplicate labels
            # (the paper's EU IT case: "semantically identical but
            # differently formatted duplicates"); dedupe them — but never
            # drop, split, or retype the label column
            if (
                catalog.info.task_type != "regression"
                and out[name].kind is ColumnKind.STRING
            ):
                out = _dedupe_column(out, name, llm, result)
            continue
        column = out[name]
        if profile.feature_type is FeatureType.CONSTANT:
            out = out.drop([name])
            result.operations.append({"column": name, "op": "drop_constant"})
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
        samples = [v for v in column.unique()[:_SAMPLES_FOR_TYPING]]
        answer = _ask_feature_type(llm, name, samples)
        inferred = answer.get("feature_type", profile.feature_type.value)

        if inferred == "List":
            delimiter = answer.get("delimiter", ",")
            items: set[str] = set()
            for cell in column:
                if cell is None:
                    continue
                items.update(
                    part.strip() for part in str(cell).split(delimiter) if part.strip()
                )
            result.distinct_after[name] = len(items)
            result.operations.append(
                {"column": name, "op": "list_feature", "delimiter": delimiter,
                 "n_items": len(items)}
            )
            _update_profile(catalog, name, feature_type=FeatureType.LIST,
                            distinct_count=len(items), extra={"list_delimiter": delimiter})
        elif inferred == "Composite":
            spec = semantics.detect_composite(column.unique())
            if spec is None:
                continue
            new_columns: dict[str, list[Any]] = {part: [] for part in spec.parts}
            for cell in column:
                parts = spec.split(cell)
                for part in spec.parts:
                    new_columns[part].append(parts[part])
            out = out.drop([name])
            new_names = []
            for part, values in new_columns.items():
                new_name = part if part not in out else f"{name}_{part}"
                out.add_column(Column(new_name, values))
                new_names.append(new_name)
            result.operations.append(
                {"column": name, "op": "composite_split", "parts": new_names}
            )
            replacements = []
            for new_name in new_names:
                new_col = out[new_name]
                replacements.append(_profile_like(new_col, origin=name))
                result.distinct_after[new_name] = new_col.n_distinct
            catalog.replace(name, replacements)
        elif inferred == "Numerical":
            converted = column.astype_numeric()
            rebuilt = Table(
                (
                    converted if existing == name else out[existing]
                    for existing in out.column_names
                ),
                name=out.name,
            )
            out = rebuilt
            result.operations.append({"column": name, "op": "to_numeric"})
            _update_profile(catalog, name, feature_type=FeatureType.NUMERICAL,
                            distinct_count=converted.n_distinct)
            result.distinct_after[name] = converted.n_distinct
        else:  # Categorical: dedupe values
            out = _dedupe_column(out, name, llm, result)
            after = result.distinct_after[name]
            _update_profile(
                catalog, name, feature_type=FeatureType.CATEGORICAL,
                distinct_count=after,
                categorical_values=out[name].unique(),
            )

    # re-profile so downstream prompts see the refined statistics
    refreshed = profile_table(
        out,
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
    result.table = out
    result.catalog = refreshed
    return result


def _update_profile(
    catalog: DataCatalog,
    name: str,
    feature_type: FeatureType,
    distinct_count: int | None = None,
    categorical_values: list[Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> None:
    profile = catalog[name]
    profile.feature_type = feature_type
    profile.is_categorical = feature_type is FeatureType.CATEGORICAL
    if distinct_count is not None:
        profile.distinct_count = distinct_count
    if categorical_values is not None:
        profile.categorical_values = categorical_values
        profile.samples = list(categorical_values)


def _profile_like(column: Column, origin: str) -> ColumnProfile:
    """Quick profile for a refinement-created column."""
    from repro.catalog.feature_types import infer_feature_type_heuristic

    n = len(column)
    present = [v for v in column if v is not None]
    distinct = column.n_distinct
    feature_type = infer_feature_type_heuristic(
        present, distinct / n if n else 0.0, column.kind is ColumnKind.NUMERIC, n
    )
    return ColumnProfile(
        name=column.name,
        data_type="number" if column.kind is ColumnKind.NUMERIC else "string",
        feature_type=feature_type,
        is_categorical=feature_type is FeatureType.CATEGORICAL,
        distinct_count=distinct,
        distinct_percentage=100.0 * distinct / n if n else 0.0,
        missing_count=column.n_missing,
        missing_percentage=100.0 * column.n_missing / n if n else 0.0,
        samples=column.unique()[:10],
        categorical_values=column.unique() if feature_type is FeatureType.CATEGORICAL else [],
        refined_from=origin,
    )
