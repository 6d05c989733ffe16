"""Tests for LLM-assisted catalog refinement (Section 3.2 / Figures 4-5)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.feature_types import FeatureType
from repro.catalog.materialize import join_multi_table
from repro.catalog.profiler import profile_table
from repro.catalog.refinement import RefinementResult, refine_catalog
from repro.llm.mock import MockLLM
from repro.table.column import ColumnKind
from repro.table.table import Table


@pytest.fixture
def llm():
    return MockLLM("gemini-1.5", fault_injection=False)


@pytest.fixture
def salary_refinement(salary_table, llm):
    catalog = profile_table(salary_table, target="Salary", task_type="regression")
    return refine_catalog(salary_table, catalog, llm)


class TestRefinementWorkflow:
    def test_gender_deduplicated(self, salary_refinement):
        table = salary_refinement.table
        assert set(table["Gender"].unique()) == {"Female", "Male"}

    def test_experience_normalized(self, salary_refinement):
        values = set(salary_refinement.table["Experience"].unique())
        assert "12 Months" not in values
        assert "1 year" in values

    def test_skills_detected_as_list(self, salary_refinement):
        profile = salary_refinement.catalog["Skills"]
        assert profile.feature_type is FeatureType.LIST
        assert profile.list_delimiter == ","

    def test_address_split_into_state_and_zip(self, salary_refinement):
        table = salary_refinement.table
        assert "Address" not in table
        assert "State" in table and "Zip" in table
        assert set(table["State"].unique()) <= {"CA", "TX", "NY"}

    def test_distinct_counts_reduced(self, salary_refinement):
        before = salary_refinement.distinct_before
        after = salary_refinement.distinct_after
        assert after["Gender"] < before["Gender"]
        assert after["Experience"] < before["Experience"]

    def test_operations_logged(self, salary_refinement):
        ops = {op["column"]: op["op"] for op in salary_refinement.operations}
        assert ops["Gender"] == "dedupe_categories"
        assert ops["Skills"] == "list_feature"
        assert ops["Address"] == "composite_split"

    def test_category_mappings_recorded(self, salary_refinement):
        mapping = salary_refinement.category_mappings["Gender"]
        assert mapping["F"] == "Female"

    def test_catalog_refreshed_after_refinement(self, salary_refinement):
        # refreshed catalog reflects the refined table's schema
        assert set(salary_refinement.catalog.column_names) == set(
            salary_refinement.table.column_names
        )

    def test_constant_column_dropped(self, llm):
        t = Table.from_dict({
            "const": ["k"] * 40,
            "x": range(40),
            "y": [0.0, 1.0] * 20,
        })
        catalog = profile_table(t, target="y", task_type="regression")
        result = refine_catalog(t, catalog, llm)
        assert "const" not in result.table

    def test_numeric_strings_converted(self, llm):
        t = Table.from_dict({
            "n": [str(i) for i in range(50)],
            "y": [float(i) for i in range(50)],
        })
        # force the profiler to see n as a string column
        t.set_column(t["n"].astype_string())
        catalog = profile_table(t, target="y", task_type="regression")
        result = refine_catalog(t, catalog, llm)
        assert result.table["n"].kind.value == "numeric"

    def test_input_catalog_unchanged(self, salary_table, llm):
        catalog = profile_table(salary_table, target="Salary", task_type="regression")
        before = json.dumps(catalog.to_dict(), default=str)
        refine_catalog(salary_table, catalog, llm)
        assert json.dumps(catalog.to_dict(), default=str) == before


def _catalog_for(table, target):
    return profile_table(table, target=target, task_type="multiclass")


class TestApplyTo:
    """``apply_to`` replays the logged decisions; it never re-decides."""

    def test_two_row_split_keeps_composite_parts(self, salary_refinement, salary_table):
        # two cells are too few to re-detect the composite, so the
        # recorded spec is what splits them
        out = salary_refinement.apply_to(salary_table.head(2))
        assert "Address" not in out
        assert "State" in out and "Zip" in out
        assert out["State"].to_list() == [
            str(v).split()[-1] for v in salary_table["Address"].to_list()[:2]
        ]

    def test_numeric_looking_dedupe_replays_as_string(self):
        table = Table.from_dict({"code": ["one", "1", "two"], "y": ["a", "b", "a"]})
        result = RefinementResult(
            table=table,
            catalog=_catalog_for(table, "y"),
            operations=[{"column": "code", "op": "dedupe_categories"}],
            category_mappings={"code": {"one": "1", "1": "1", "two": "2"}},
        )
        out = result.apply_to(table)
        assert out["code"].kind is ColumnKind.STRING
        assert out["code"].to_list() == ["1", "1", "2"]


_GENDERS = ["F", "Female", "M", "Male", "female", None]
_STATES = ["CA", "TX", "NY"]


@st.composite
def dirty_tables(draw):
    """Small Figure-1-style tables: messy categories, composites, constants."""
    n = draw(st.integers(min_value=8, max_value=40))
    rows = st.lists(st.integers(min_value=0, max_value=10_000), min_size=n, max_size=n)
    picks = draw(rows)
    zips = draw(rows)
    return Table.from_dict(
        {
            "Gender": [_GENDERS[p % len(_GENDERS)] for p in picks],
            "Address": [f"{1000 + z % 9000} {_STATES[z % 3]}" for z in zips],
            "Count": [str(z % 97) for z in zips],
            "Const": ["k"] * n,
            "y": ["yes" if (p + z) % 3 else "no" for p, z in zip(picks, zips)],
        },
        name="dirty",
    )


@settings(max_examples=25, deadline=None)
@given(table=dirty_tables())
def test_replay_on_refined_split_reproduces_table(table):
    result = refine_catalog(
        table, _catalog_for(table, "y"), MockLLM("gemini-1.5", fault_injection=False)
    )
    replayed = result.apply_to(table)
    assert [(c.name, c.kind, c.to_list()) for c in replayed] == [
        (c.name, c.kind, c.to_list()) for c in result.table
    ]


class TestMaterialize:
    def test_apply_category_mapping(self, salary_refinement):
        # the replay maps every present cell and passes missing ones through
        t = Table.from_dict({"Gender": ["F", "Male", None]})
        out = salary_refinement.apply_to(t)
        assert out["Gender"].to_list() == ["Female", "Male", None]

    def test_join_multi_table_chain(self):
        fact = Table.from_dict({"a_id": [0, 1], "y": ["p", "q"]}, name="fact")
        dim_a = Table.from_dict({"a_id": [0, 1], "va": ["x", "y"]}, name="dim_a")
        dim_b = Table.from_dict({"b_id": [0], "vb": ["z"]}, name="dim_b")
        fact.set_column(Table.from_dict({"b_id": [0, 0]})["b_id"])
        joined = join_multi_table(
            [fact, dim_a, dim_b],
            [("fact", "dim_a", "a_id"), ("fact", "dim_b", "b_id")],
        )
        assert joined.n_rows == 2
        assert "va" in joined and "vb" in joined

    def test_join_requires_plan_for_multi(self):
        a = Table.from_dict({"x": [1]}, name="a")
        b = Table.from_dict({"x": [1]}, name="b")
        with pytest.raises(ValueError):
            join_multi_table([a, b], [])

    def test_single_table_passthrough(self):
        t = Table.from_dict({"x": [1]}, name="only")
        assert join_multi_table([t], []) is t
