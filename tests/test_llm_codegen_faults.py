"""Tests for pipeline code generation and fault injection/repair."""

import pytest

from repro.analysis import analyze_source
from repro.generation.errors import ERROR_TYPES, ErrorGroup
from repro.generation.executor import execute_pipeline_code
from repro.llm.codegen import build_encoding_plan, choose_model, generate_pipeline_code
from repro.llm.faults import (
    choose_error_type,
    inject_fault,
    repair_code,
    should_fail,
    strip_injected_lines,
)
from repro.llm.profiles import get_profile
from repro.table.table import Table


def _payload(task_type="binary", rules=True, rich=True):
    schema = [
        {"name": "num", "data_type": "number", "feature_type": "Numerical",
         **({"missing_percentage": 10.0, "statistics": {"std": 1.0}} if rich else {})},
        {"name": "cat", "data_type": "string", "feature_type": "Categorical",
         **({"distinct_count": 3, "categorical_values": ["a", "b", "c"]} if rich else {})},
        {"name": "skills", "data_type": "string", "feature_type": "List",
         "list_delimiter": ","},
        {"name": "free", "data_type": "string", "feature_type": "Sentence"},
        {"name": "const", "data_type": "string", "feature_type": "Constant"},
        {"name": "y",
         "data_type": "string" if task_type != "regression" else "number",
         "feature_type": "Categorical" if task_type != "regression" else "Numerical",
         "is_target": True},
    ]
    rule_list = []
    if rules:
        rule_list = [
            {"section": "preprocessing", "kind": "impute_missing", "text": "t",
             "params": {"strategy_numeric": "median"}},
            {"section": "model-selection", "kind": "model_selection", "text": "t",
             "params": {"task_type": task_type}},
        ]
    return {
        "task": "pipeline",
        "dataset": {"name": "d", "task_type": task_type, "target": "y",
                    "n_rows": 200, "n_cols": len(schema)},
        "schema": schema,
        "rules": rule_list,
        "subtasks": ["preprocessing", "fe-engineering", "model-selection"],
    }


GPT = get_profile("gpt-4o")


class TestEncodingPlan:
    def test_plan_covers_features(self):
        plan, features, dropped = build_encoding_plan(_payload(), GPT, salt=0)
        assert set(features) == {"num", "cat", "skills", "free"}
        assert "const" in dropped

    def test_list_feature_khot(self):
        plan, _, _ = build_encoding_plan(_payload(), GPT, salt=0)
        assert plan["skills"]["encode"] == "khot"
        assert plan["skills"]["delimiter"] == ","

    def test_sentence_feature_hashed(self):
        plan, _, _ = build_encoding_plan(_payload(), GPT, salt=0)
        assert plan["free"]["encode"] == "hash"

    def test_rich_categorical_onehot(self):
        plan, _, _ = build_encoding_plan(_payload(), GPT, salt=0)
        assert plan["cat"]["encode"] == "onehot"

    def test_poor_categorical_ordinal(self):
        plan, _, _ = build_encoding_plan(_payload(rich=False), GPT, salt=0)
        assert plan["cat"]["encode"] == "ordinal"

    def test_imputation_from_rule(self):
        plan, _, _ = build_encoding_plan(_payload(), GPT, salt=0)
        assert plan["num"]["impute"] == "median"

    def test_missing_feature_type_guessed_from_dtype(self):
        payload = _payload()
        for entry in payload["schema"]:
            entry.pop("feature_type", None)
        plan, features, _ = build_encoding_plan(payload, GPT, salt=0)
        assert plan["cat"]["encode"] in ("ordinal", "onehot")


class TestModelChoice:
    def test_guided_prompt_strong_model(self):
        name, ctor, grid = choose_model(_payload(), GPT, salt=0)
        assert name in ("GradientBoostingClassifier", "RandomForestClassifier",
                        "LogisticRegression")
        assert grid is False  # guided prompts never grid search

    def test_regression_models(self):
        name, _, _ = choose_model(_payload("regression"), GPT, salt=0)
        assert "Regressor" in name or name in ("Ridge", "LinearRegression")

    def test_unguided_llama_sometimes_grid_searches(self):
        llama = get_profile("llama3.1-70b")
        grids = [
            choose_model(_payload(rules=False), llama, salt=s)[2]
            for s in range(40)
        ]
        assert any(grids)


class TestGeneratedCode:
    @pytest.fixture
    def tables(self):
        t = Table.from_dict({
            "num": [1.0, 2.0, None, 4.0] * 25,
            "cat": ["a", "b", "c", "a"] * 25,
            "skills": ["x,y", "y", "x", "z"] * 25,
            "free": ["one two", "three four", "five six", "seven"] * 25,
            "const": ["k"] * 100,
            "y": ["p", "n"] * 50,
        })
        return t.take(range(0, 70)), t.take(range(70, 100))

    def test_clean_code_valid_and_executes(self, tables):
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        assert analyze_source(code).ok
        result = execute_pipeline_code(code, *tables)
        assert result.success, result.error
        assert "test_auc" in result.metrics

    def test_regression_code_reports_r2(self):
        t = Table.from_dict({
            "num": [float(i) for i in range(100)],
            "cat": ["a", "b"] * 50,
            "skills": ["x,y"] * 100,
            "free": ["some text here"] * 100,
            "const": ["k"] * 100,
            "y": [float(i) * 2 for i in range(100)],
        })
        code = generate_pipeline_code(_payload("regression"), GPT, salt=0)
        result = execute_pipeline_code(code, t.take(range(70)), t.take(range(70, 100)))
        assert result.success, result.error
        assert "test_r2" in result.metrics


class TestFaultInjection:
    def test_every_type_has_injector(self):
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        for error_type in ERROR_TYPES.values():
            corrupted = inject_fault(code, error_type, salt=1)
            assert corrupted != code or error_type.name == "nan_in_features"

    @pytest.mark.parametrize("type_name", [
        "stray_prose", "markdown_fence", "broken_indentation",
        "unclosed_bracket", "truncated_code",
    ])
    def test_syntax_faults_break_parsing(self, type_name):
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        corrupted = inject_fault(code, ERROR_TYPES[type_name], salt=0)
        issues = analyze_source(corrupted).pipeline_errors()
        assert issues, f"{type_name} should produce a static issue"
        assert issues[0].group in (ErrorGroup.SE, ErrorGroup.RE)

    @pytest.mark.parametrize("type_name,exception", [
        ("missing_package", "ModuleNotFoundError"),
        ("missing_data_file", "FileNotFoundError"),
        ("wrong_api", "AttributeError"),
        ("undefined_variable", "NameError"),
        ("division_by_zero", "ZeroDivisionError"),
        ("index_out_of_bounds", "IndexError"),
        ("resource_limit", "MemoryError"),
    ])
    def test_runtime_faults_raise_expected_exception(self, type_name, exception):
        t = Table.from_dict({
            "num": [1.0, 2.0, 3.0, 4.0] * 25,
            "cat": ["a", "b", "c", "a"] * 25,
            "skills": ["x,y", "y", "x", "z"] * 25,
            "free": ["one two", "three", "five six", "seven"] * 25,
            "const": ["k"] * 100,
            "y": ["p", "n"] * 50,
        })
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        corrupted = inject_fault(code, ERROR_TYPES[type_name], salt=0)
        result = execute_pipeline_code(corrupted, t.take(range(70)),
                                       t.take(range(70, 100)))
        assert not result.success
        assert ERROR_TYPES[type_name].exception == exception

    def test_unknown_column_fault_raises_keyerror(self):
        t = Table.from_dict({
            "num": [1.0] * 20, "cat": ["a"] * 20, "skills": ["x"] * 20,
            "free": ["t u"] * 20, "const": ["k"] * 20, "y": ["p", "n"] * 10,
        })
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        corrupted = inject_fault(code, ERROR_TYPES["unknown_column"], salt=0)
        result = execute_pipeline_code(corrupted, t, t)
        assert not result.success
        assert result.error.error_type.name == "unknown_column"


class TestRepair:
    @pytest.mark.parametrize("type_name", [
        "stray_prose", "markdown_fence", "missing_package", "wrong_api",
        "undefined_variable", "unknown_column", "division_by_zero",
        "broken_indentation", "unclosed_bracket",
    ])
    def test_repair_restores_valid_code(self, type_name):
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        corrupted = inject_fault(code, ERROR_TYPES[type_name], salt=0)
        fixed = repair_code(corrupted, type_name, payload=_payload(), profile=GPT)
        assert fixed is not None
        assert analyze_source(fixed).ok

    def test_truncated_requires_payload(self):
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        corrupted = inject_fault(code, ERROR_TYPES["truncated_code"], salt=0)
        assert repair_code(corrupted, "truncated_code") is None
        fixed = repair_code(corrupted, "truncated_code",
                            payload=_payload(), profile=GPT)
        assert fixed is not None and "def run_pipeline" in fixed

    def test_strip_injected_lines_removes_markers(self):
        code = generate_pipeline_code(_payload(), GPT, salt=0)
        corrupted = inject_fault(code, ERROR_TYPES["missing_package"], salt=0)
        assert "import xgboost" in corrupted
        assert "import xgboost" not in strip_injected_lines(corrupted)


class TestFailureSampling:
    def test_rate_multiplier_raises_failures(self):
        profile = get_profile("gpt-4o")
        base = sum(should_fail(profile, s) for s in range(300))
        raised = sum(
            should_fail(profile, s, rate_multiplier=2.0) for s in range(300)
        )
        assert raised > base

    def test_error_mix_respected(self):
        llama = get_profile("llama3.1-70b")
        groups = [choose_error_type(llama, s).group for s in range(500)]
        re_share = sum(1 for g in groups if g is ErrorGroup.RE) / len(groups)
        assert re_share > 0.85  # Table 2: 94.6% runtime errors for Llama
