"""Tests for Algorithm 1 profiling and the DataCatalog store."""

import json

import numpy as np
import pytest

from repro.catalog.catalog import ColumnProfile, DataCatalog, DatasetInfo
from repro.catalog.feature_types import (
    _BOOLEAN_DOMAIN,
    FeatureType,
    infer_feature_type_from_stats,
    infer_feature_type_heuristic,
)
from repro.catalog.profiler import numeric_statistics, profile_dataset, profile_table
from repro.table.column import Column, ColumnKind
from repro.table.table import Table


class TestNumericStatistics:
    def test_basic_stats(self):
        col = Column("a", [1.0, 2.0, 3.0, None])
        stats = numeric_statistics(col)
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["median"] == 2.0

    def test_empty_column(self):
        assert numeric_statistics(Column("a", [None], kind="numeric")) == {}


class TestProfileTable:
    def test_target_required(self, small_classification_table):
        with pytest.raises(KeyError):
            profile_table(small_classification_table, target="zz", task_type="binary")

    def test_column_coverage(self, classification_catalog):
        assert set(classification_catalog.column_names) == {"x1", "x2", "cat", "label"}

    def test_numeric_feature_typed(self, classification_catalog):
        assert classification_catalog["x2"].feature_type is FeatureType.NUMERICAL

    def test_categorical_feature_typed(self, classification_catalog):
        profile = classification_catalog["cat"]
        assert profile.feature_type is FeatureType.CATEGORICAL
        assert set(profile.categorical_values) == {"A", "B"}

    def test_missing_percentage(self, classification_catalog):
        assert classification_catalog["x1"].missing_percentage == pytest.approx(
            100 * 20 / 300, abs=0.01
        )

    def test_target_correlation_orders_features(self, classification_catalog):
        # x1 drives the label more than the noise-only cat column
        assert (
            classification_catalog["x1"].target_correlation
            > classification_catalog["cat"].target_correlation - 0.3
        )

    def test_class_counts_recorded_for_categorical_target(self, classification_catalog):
        target = classification_catalog.target_profile
        counts = target.statistics.get("class_counts")
        assert counts is not None and sum(counts) == 300

    def test_categorical_samples_are_all_uniques(self, classification_catalog):
        profile = classification_catalog["cat"]
        assert sorted(profile.samples) == sorted(profile.categorical_values)

    def test_numeric_samples_bounded_by_tau(self, small_classification_table):
        catalog = profile_table(
            small_classification_table, target="label", task_type="binary", tau_1=5
        )
        assert len(catalog["x2"].samples) == 5

    def test_constant_column_detected(self):
        t = Table.from_dict({"k": ["c"] * 30, "x": range(30), "y": [0, 1] * 15})
        catalog = profile_table(t, target="y", task_type="binary")
        assert catalog["k"].feature_type is FeatureType.CONSTANT

    def test_id_column_detected(self):
        t = Table.from_dict({
            "id": list(range(100)),
            "x": np.random.default_rng(0).normal(size=100),
            "y": [0, 1] * 50,
        })
        catalog = profile_table(t, target="y", task_type="binary")
        assert catalog["id"].feature_type is FeatureType.ID

    def test_without_dependencies_is_faster_path(self, small_classification_table):
        catalog = profile_table(
            small_classification_table, target="label", task_type="binary",
            with_dependencies=False,
        )
        assert catalog["x1"].target_correlation == 0.0


class TestProfileDataset:
    def test_multi_table_joined_before_profiling(self):
        fact = Table.from_dict({"k": [1, 2, 1], "y": ["a", "b", "a"]}, name="fact")
        dim = Table.from_dict({"k": [1, 2], "v": [10.0, 20.0]}, name="dim")
        catalog = profile_dataset(
            [fact, dim], target="y", task_type="binary",
            join_plan=[("fact", "dim", "k")],
        )
        assert "v" in catalog
        assert catalog.info.n_tables == 2

    def test_single_table(self, small_classification_table):
        catalog = profile_dataset(
            [small_classification_table], target="label", task_type="binary"
        )
        assert catalog.info.n_tables == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            profile_dataset([], target="y", task_type="binary")


class TestDataCatalogStore:
    def test_subset_keeps_target(self, classification_catalog):
        sub = classification_catalog.subset(["x1"])
        assert set(sub.column_names) == {"x1", "label"}

    def test_duplicate_profile_rejected(self):
        info = DatasetInfo("d", "binary", "y", 1, 1)
        profile = ColumnProfile(
            name="y", data_type="string", feature_type=FeatureType.CATEGORICAL,
            is_categorical=True, distinct_count=2, distinct_percentage=100,
            missing_count=0, missing_percentage=0,
        )
        with pytest.raises(ValueError):
            DataCatalog(info, [profile, profile])

    def test_json_roundtrip(self, classification_catalog, tmp_path):
        path = tmp_path / "catalog.json"
        classification_catalog.save(path)
        loaded = DataCatalog.load(path)
        assert loaded.column_names == classification_catalog.column_names
        assert loaded.info.target == "label"
        assert loaded["cat"].feature_type is FeatureType.CATEGORICAL

    def test_to_json_valid(self, classification_catalog):
        parsed = json.loads(classification_catalog.to_json())
        assert parsed["info"]["name"] == "clf"

    def test_getitem_unknown(self, classification_catalog):
        with pytest.raises(KeyError):
            classification_catalog["zz"]

    def test_feature_profiles_exclude_target(self, classification_catalog):
        names = [p.name for p in classification_catalog.feature_profiles()]
        assert "label" not in names


def _full_evidence_type(values, distinct_fraction, is_numeric, n_rows):
    """The heuristic as it was when ``evidence`` held every present cell."""
    present = [v for v in values if v is not None]
    if not present:
        return FeatureType.CONSTANT
    distinct = {str(v) for v in present}
    lowered = {str(v).strip().lower() for v in present}
    return infer_feature_type_from_stats(
        n_present=len(present),
        distinct_count=len(distinct),
        distinct_fraction=distinct_fraction,
        is_numeric=is_numeric,
        n_rows=n_rows,
        all_integer=False,
        in_boolean_domain=not is_numeric and lowered <= _BOOLEAN_DOMAIN,
        evidence=[str(v) for v in present],
    )


class TestFeatureTypeEvidence:
    """The list/sentence detectors read the first 200 present values, so
    stringifying only those must type every column as before."""

    @staticmethod
    def _columns():
        codes = [f"k{i % 7}" for i in range(230)]
        words = [f"w{i}" for i in range(230)]
        lists = [f"x{i % 5}, x{(i + 1) % 5}, x{(i + 2) % 5}" for i in range(120)]
        sentences = [f"the quick fox number {i} jumps" for i in range(120)]
        return {
            "lists_after_200": codes[:205] + lists,
            "sentences_after_200": words[:210] + sentences,
            "sentences_after_200_missing": [None] * 30 + words[:200] + sentences,
            "lists_from_start": lists + codes,
            "lists_inside_the_window": codes[:150] + lists,
            "sentences_from_start": sentences + words,
        }

    def test_same_type_as_full_evidence(self):
        seen = set()
        for name, values in self._columns().items():
            n_rows = len(values)
            present = [v for v in values if v is not None]
            fraction = len(set(present)) / n_rows
            new = infer_feature_type_heuristic(Column(name, values), fraction)
            assert new is _full_evidence_type(values, fraction, False, n_rows), name
            seen.add(new)
        # both detectors fire on the columns that start with their shape
        assert {FeatureType.LIST, FeatureType.SENTENCE} <= seen


def _per_cell_type(column, distinct_fraction):
    """The heuristic as it was when it stringified every present cell."""
    present = column.non_missing().tolist()
    if not present:
        return FeatureType.CONSTANT
    is_numeric = column.kind is ColumnKind.NUMERIC
    distinct = {str(v) for v in present}
    if is_numeric:
        all_integer = len(distinct) > 1 and all(float(v).is_integer() for v in present)
        in_boolean_domain = False
    else:
        all_integer = False
        in_boolean_domain = {str(v).strip().lower() for v in present} <= _BOOLEAN_DOMAIN
    return infer_feature_type_from_stats(
        n_present=len(present),
        distinct_count=len(distinct),
        distinct_fraction=distinct_fraction,
        is_numeric=is_numeric,
        n_rows=len(column),
        all_integer=all_integer,
        in_boolean_domain=in_boolean_domain,
        evidence=[str(v) for v in present[:200]],
    )


class TestFeatureTypeDistinctKeys:
    """Typing reads each distinct value once, keyed the way it renders, so
    it must type every column as the per-cell stringifying version did."""

    @staticmethod
    def _columns():
        hash_equal = np.array([1, True, 1.0, "1", None, 1, True], dtype=object)
        return [
            Column("hash_equal", [1, True, 1.0, "1", None] * 5),
            Column.from_numpy("pool_kept_apart", hash_equal, kind="string"),
            Column.from_numpy("numeric_pool", np.array([1, True, 2.0, None], dtype=object)),
            Column("signed_zeros", [0.0, -0.0, 0.0, None]),
            Column("two_zeros", [0.0, -0.0]),
            Column("infinite", [1.0, float("inf"), 2.0, 3.0]),
            Column("small_int_codes", [1.0, 2.0, 3.0] * 30),
            Column("ids", list(range(100))),
            Column("all_missing", [None, None]),
            Column("all_missing_numeric", [None, None], kind="numeric"),
            Column("booleans", [True, False, None]),
            Column("boolean_tokens", ["yes", "No", "Y ", "t"]),
            Column("categories", ["a", "b", None, "a"] * 20),
            Column("no_rows", [], kind="numeric"),
        ]

    def test_same_type_as_per_cell(self):
        for column in self._columns():
            n = len(column)
            fraction = column.n_distinct / n if n else 0.0
            expected = _per_cell_type(column, fraction)
            assert infer_feature_type_heuristic(column, fraction) is expected, column.name
