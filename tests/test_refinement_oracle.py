"""Oracle: decide-then-replay refinement against the two-path code it replaced.

Catalog refinement used to rewrite the refined split inline in
``_refine_catalog_impl`` and every later split a second way, in
``RefinementResult.apply_to`` plus ``materialize_refined``.  Both paths
are embedded below as the reference.  The new ``refine_catalog`` logs
its decisions and replays them through the one step ``apply_to`` runs,
so on the six refinement datasets x two LLM profiles and the salary
fixture it must give the same refined table (values, kinds, column
order), re-profiled catalog, operations log, distinct counts, category
mappings and replayed test split.

The embedded refinement leaves out the old in-place edits of the input
catalog (``_update_profile``, ``_profile_like``, ``catalog.replace``):
the returned catalog was re-profiled from the refined table, so those
edits never reached the result; they only changed the caller's catalog,
which ``test_input_catalog_unchanged`` now pins.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.catalog.feature_types import FeatureType
from repro.catalog.profiler import profile_table
from repro.catalog.refinement import _ask_dedupe, _ask_feature_type, refine_catalog
from repro.experiments.common import prepare_dataset
from repro.experiments.table4_refinement import REFINEMENT_DATASETS
from repro.llm import semantics
from repro.llm.mock import MockLLM
from repro.table.column import Column, ColumnKind
from repro.table.table import Table

LLM_PROFILES = ("gemini-1.5", "llama3.1-70b")

# -- the replaced implementation, verbatim but for the catalog edits -------------------


@dataclass
class OldResult:
    table: Table
    catalog: Any
    operations: list[dict[str, Any]] = field(default_factory=list)
    distinct_before: dict[str, int] = field(default_factory=dict)
    distinct_after: dict[str, int] = field(default_factory=dict)
    category_mappings: dict[str, dict[Any, Any]] = field(default_factory=dict)


def old_apply_category_mapping(table, column, mapping):
    source = table[column]
    values = [mapping.get(v, v) if v is not None else None for v in source]
    return Table(
        (
            Column(column, values) if name == column else table[name]
            for name in table.column_names
        ),
        name=table.name,
    )


def old_materialize_refined(table, category_mappings, drop_columns=()):
    out = table
    for column, mapping in category_mappings.items():
        if column in out:
            out = old_apply_category_mapping(out, column, mapping)
    present = [c for c in drop_columns if c in out]
    if present:
        out = out.drop(present)
    return out


def old_apply_to(result, table):
    out = old_materialize_refined(table, result.category_mappings)
    for op in result.operations:
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


def old_dedupe_column(table, name, llm, result):
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


def old_refine(table, catalog, llm):
    result = OldResult(table=table, catalog=catalog)
    out = table

    for profile in list(catalog.profiles()):
        name = profile.name
        if name not in out:
            continue
        if name == catalog.info.target:
            if (
                catalog.info.task_type != "regression"
                and out[name].kind is ColumnKind.STRING
            ):
                out = old_dedupe_column(out, name, llm, result)
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
        samples = [v for v in column.unique()[:10]]
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
            for new_name in new_names:
                result.distinct_after[new_name] = out[new_name].n_distinct
        elif inferred == "Numerical":
            converted = column.astype_numeric()
            out = Table(
                (
                    converted if existing == name else out[existing]
                    for existing in out.column_names
                ),
                name=out.name,
            )
            result.operations.append({"column": name, "op": "to_numeric"})
            result.distinct_after[name] = converted.n_distinct
        else:
            out = old_dedupe_column(out, name, llm, result)

    refreshed = profile_table(
        out,
        target=catalog.info.target,
        task_type=catalog.info.task_type,
        n_tables=catalog.info.n_tables,
        file_path=catalog.info.file_path,
        delimiter=catalog.info.delimiter,
        description=catalog.info.description,
    )
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


# -- comparison helpers -----------------------------------------------------------------


def table_view(table: Table) -> list[tuple[str, str, list[Any]]]:
    """Column order, kinds and values: everything a refined split carries."""
    return [(c.name, c.kind.value, c.to_list()) for c in table]


def catalog_json(catalog) -> str:
    return json.dumps(catalog.to_dict(), sort_keys=True, default=str)


def differences(old, new, old_test: Table, new_test: Table) -> list[str]:
    checks = {
        "table": (table_view(old.table), table_view(new.table)),
        "catalog": (catalog_json(old.catalog), catalog_json(new.catalog)),
        "operations": (old.operations, new.operations),
        "distinct_before": (old.distinct_before, new.distinct_before),
        "distinct_after": (old.distinct_after, new.distinct_after),
        "category_mappings": (old.category_mappings, new.category_mappings),
        "apply_to(test)": (table_view(old_test), table_view(new_test)),
    }
    return [name for name, (a, b) in checks.items() if a != b]


def compare(train: Table, test: Table, catalog, llm_name: str) -> list[str]:
    old = old_refine(train, copy.deepcopy(catalog), MockLLM(llm_name, fault_injection=False))
    new = refine_catalog(train, catalog, MockLLM(llm_name, fault_injection=False))
    return differences(old, new, old_apply_to(old, test), new.apply_to(test))


@pytest.fixture(scope="module")
def prepared():
    """Each prepared dataset, with its catalog's JSON as profiled (before
    any test refined it)."""
    out = {}
    for name in REFINEMENT_DATASETS:
        data = prepare_dataset(name, seed=0, quick=True)
        out[name] = (data, catalog_json(data.catalog))
    return out


@pytest.mark.parametrize("llm_name", LLM_PROFILES)
@pytest.mark.parametrize("dataset", REFINEMENT_DATASETS)
def test_refinement_matches_old_paths(prepared, dataset, llm_name):
    data, _ = prepared[dataset]
    assert compare(data.train, data.test, data.catalog, llm_name) == []


@pytest.mark.parametrize("llm_name", LLM_PROFILES)
def test_salary_fixture_matches_old_paths(salary_table, llm_name):
    train, test = salary_table.take(range(140)), salary_table.take(range(140, 200))
    catalog = profile_table(train, target="Salary", task_type="regression")
    assert compare(train, test, catalog, llm_name) == []


@pytest.mark.parametrize("llm_name", LLM_PROFILES)
@pytest.mark.parametrize("dataset", REFINEMENT_DATASETS)
def test_input_catalog_unchanged(prepared, dataset, llm_name):
    data, pristine = prepared[dataset]
    refine_catalog(data.train, data.catalog, MockLLM(llm_name, fault_injection=False))
    assert catalog_json(data.catalog) == pristine


@pytest.mark.parametrize("llm_name", LLM_PROFILES)
@pytest.mark.parametrize("dataset", REFINEMENT_DATASETS)
def test_replay_on_refined_split_reproduces_table(prepared, dataset, llm_name):
    data, _ = prepared[dataset]
    result = refine_catalog(
        data.train, data.catalog, MockLLM(llm_name, fault_injection=False)
    )
    assert table_view(result.apply_to(data.train)) == table_view(result.table)
