"""Algorithm 1 — PROFILING(D, tau_1): build a :class:`DataCatalog`.

For every column we extract the schema (name, data type), distinct and
missing percentages, basic statistics (numeric columns), feature type,
embeddings-derived inclusion dependencies / similarities, the correlation
to the target, and a value sample of size ``tau_1`` (all unique values for
categorical columns, per the paper).

Columns are profiled one after another; each column's sampling RNG is
spawned from one ``SeedSequence`` keyed by the column's position, so a
column's samples depend only on ``(seed, position)``.  Embeddings
and value-hash sets flow through the content-fingerprint
:class:`~repro.catalog.cache.ProfileCache`, so the similarity and
inclusion passes (and any re-profiling during refinement) never recompute
them for unchanged column content.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.catalog.cache import ProfileCache, get_default_cache
from repro.catalog.catalog import ColumnProfile, DataCatalog, DatasetInfo
from repro.catalog.embeddings import (
    column_correlation,
    find_inclusion_dependencies,
    pairwise_similarities,
)
from repro.catalog.feature_types import FeatureType, infer_feature_type_heuristic
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.table.column import Column, ColumnKind
from repro.table.table import Table

__all__ = ["profile_table", "profile_dataset", "numeric_statistics"]

DEFAULT_SAMPLES = 10


def spawn_column_rngs(seed: int, n_columns: int) -> list[np.random.Generator]:
    """One independent, deterministic RNG per column position."""
    children = np.random.SeedSequence(seed).spawn(n_columns)
    return [np.random.default_rng(child) for child in children]


def numeric_statistics(column: Column) -> dict[str, float]:
    """min / max / mean / median / std of the present values."""
    values = column.non_missing()
    if values.size == 0:
        return {}
    values = values.astype(np.float64)
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "std": float(values.std()),
    }


def _profile_column(
    column: Column,
    n_rows: int,
    tau_1: int,
    rng: np.random.Generator,
) -> ColumnProfile:
    with get_tracer().span("profile.column", column=column.name):
        return _profile_column_impl(column, n_rows, tau_1, rng)


def _profile_column_impl(
    column: Column,
    n_rows: int,
    tau_1: int,
    rng: np.random.Generator,
) -> ColumnProfile:
    present = column.non_missing().tolist()
    distinct = column.unique()
    distinct_pct = 100.0 * len(distinct) / n_rows if n_rows else 0.0
    missing_pct = 100.0 * column.n_missing / n_rows if n_rows else 0.0
    is_numeric = column.kind is ColumnKind.NUMERIC
    feature_type = infer_feature_type_heuristic(column, distinct_pct / 100.0)
    is_categorical = feature_type in (FeatureType.CATEGORICAL, FeatureType.BOOLEAN)

    if is_categorical:
        samples = list(distinct)  # all unique values, as the paper stores
        categorical_values = list(distinct)
    else:
        categorical_values = []
        if len(present) <= tau_1:
            samples = list(present)
        else:
            picks = rng.choice(len(present), size=tau_1, replace=False)
            samples = [present[i] for i in sorted(picks)]

    if is_numeric and feature_type is not FeatureType.CATEGORICAL:
        statistics: dict = numeric_statistics(column)
    elif is_categorical:
        # per-class frequencies drive the imbalance (rebalancing) rule
        statistics = {"class_counts": list(column.value_counts().values())}
    else:
        statistics = {}
    data_type = {
        ColumnKind.NUMERIC: "number",
        ColumnKind.STRING: "string",
        ColumnKind.BOOLEAN: "boolean",
    }[column.kind]
    return ColumnProfile(
        name=column.name,
        data_type=data_type,
        feature_type=feature_type,
        is_categorical=is_categorical,
        distinct_count=len(distinct),
        distinct_percentage=round(distinct_pct, 4),
        missing_count=column.n_missing,
        missing_percentage=round(missing_pct, 4),
        samples=samples,
        statistics=statistics,
        categorical_values=categorical_values,
    )


def profile_table(
    table: Table,
    target: str,
    task_type: str,
    tau_1: int = DEFAULT_SAMPLES,
    n_tables: int = 1,
    file_path: str = "",
    delimiter: str = ",",
    description: str = "",
    seed: int = 0,
    with_dependencies: bool = True,
    cache: ProfileCache | None = None,
) -> DataCatalog:
    """Profile a single table into a :class:`DataCatalog` (Algorithm 1).

    Each column's RNG is derived from ``(seed, position)``.  ``cache``
    overrides the process-wide embedding/value-hash cache.
    """
    if target not in table:
        raise KeyError(f"target column {target!r} not in table")
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span(
        "profile.table", dataset=table.name, rows=table.n_rows,
        cols=table.n_cols,
    ):
        names = table.column_names
        rngs = spawn_column_rngs(seed, len(names))
        with tracer.span("profile.columns"):
            profiles = [
                _profile_column(table[name], table.n_rows, tau_1, rng)
                for name, rng in zip(names, rngs)
            ]
        if with_dependencies:
            cache_obj = cache if cache is not None else get_default_cache()
            hits_before = cache_obj.hits
            misses_before = cache_obj.misses
            with tracer.span("profile.dependencies"):
                similarities = pairwise_similarities(table, cache=cache)
                inclusion = find_inclusion_dependencies(table, cache=cache)
                target_column = table[target]
                for profile in profiles:
                    profile.similarities = similarities.get(profile.name, [])
                    profile.inclusion_dependencies = inclusion.get(
                        profile.name, []
                    )
                    if profile.name != target:
                        profile.target_correlation = round(
                            column_correlation(
                                table[profile.name], target_column
                            ),
                            4,
                        )
            metrics.inc(
                "profile.cache.hits", cache_obj.hits - hits_before
            )
            metrics.inc(
                "profile.cache.misses", cache_obj.misses - misses_before
            )
        metrics.inc("profile.tables")
        metrics.inc("profile.columns", len(names))
    info = DatasetInfo(
        name=table.name,
        task_type=task_type,
        target=target,
        n_rows=table.n_rows,
        n_cols=table.n_cols,
        n_tables=n_tables,
        file_path=file_path or f"{table.name}.csv",
        delimiter=delimiter,
        description=description,
    )
    return DataCatalog(info, profiles)


def profile_dataset(
    tables: Sequence[Table],
    target: str,
    task_type: str,
    join_plan: Sequence[tuple[str, str, str]] = (),
    tau_1: int = DEFAULT_SAMPLES,
    seed: int = 0,
    description: str = "",
    cache: ProfileCache | None = None,
) -> DataCatalog:
    """Profile a (possibly multi-table) dataset.

    Multi-table datasets are joined into one table first — the paper
    materializes multi-table data into a single table during preparation —
    using ``join_plan`` entries ``(left_table, right_table, key)``.
    """
    from repro.catalog.materialize import join_multi_table

    if not tables:
        raise ValueError("need at least one table")
    if len(tables) == 1:
        unified = tables[0]
    else:
        unified = join_multi_table(list(tables), join_plan)
    return profile_table(
        unified,
        target=target,
        task_type=task_type,
        tau_1=tau_1,
        n_tables=len(tables),
        seed=seed,
        description=description,
        cache=cache,
    )
