"""Tests for errors taxonomy, validator, executor, KB, cost model, generator."""

import numpy as np
import pytest

from repro.analysis import analyze_source
from repro.generation.cost import CostModel
from repro.generation.errors import (
    ERROR_TYPES,
    ErrorGroup,
    PipelineError,
    classify_exception,
    error_types_in_group,
)
from repro.generation.executor import (
    METRIC_PRIORITY,
    ExecutionResult,
    execute_pipeline_code,
    select_primary_metric,
)
from repro.generation.generator import CatDB, CatDBChain
from repro.generation.knowledge_base import KnowledgeBase
from repro.llm.mock import MockLLM
from repro.ml.model_selection import train_test_split
from repro.table.table import Table


class TestErrorTaxonomy:
    def test_exactly_23_types(self):
        assert len(ERROR_TYPES) == 23

    def test_three_groups_with_expected_sizes(self):
        assert len(error_types_in_group(ErrorGroup.KB)) == 6
        assert len(error_types_in_group(ErrorGroup.SE)) == 6
        assert len(error_types_in_group(ErrorGroup.RE)) == 11

    def test_kb_types_all_patchable(self):
        assert all(e.kb_patchable for e in error_types_in_group(ErrorGroup.KB))

    def test_classify_module_not_found(self):
        error = classify_exception(ModuleNotFoundError("no module named x"))
        assert error.error_type.name == "missing_package"

    def test_classify_keyerror_as_unknown_column(self):
        error = classify_exception(KeyError("no column 'zz'"))
        assert error.error_type.name == "unknown_column"

    def test_classify_valueerror_nan(self):
        error = classify_exception(ValueError("input contains NaN"))
        assert error.error_type.name == "nan_in_features"

    def test_classify_valueerror_shape(self):
        error = classify_exception(ValueError("shape mismatch (3,2) vs (3,4)"))
        assert error.error_type.name == "shape_mismatch"

    def test_classify_unknown_falls_back(self):
        error = classify_exception(OSError("weird"))
        assert error.error_type.name == "no_convergence"

    def test_render_includes_line(self):
        error = PipelineError(ERROR_TYPES["wrong_api"], "boom", line=7)
        assert "(line 7)" in error.render()


def _error_types(code: str) -> list[str]:
    return [e.error_type.name for e in analyze_source(code).pipeline_errors()]


class TestValidator:
    def test_clean_code(self):
        code = "import numpy as np\n\ndef run_pipeline(train, test):\n    return {}\n"
        assert analyze_source(code).ok

    def test_markdown_fence_detected(self):
        assert _error_types("```python\nx = 1\n```")[0] == "markdown_fence"

    def test_stray_prose_detected(self):
        types = _error_types(
            "Here is the code you asked for today\ndef run_pipeline(train, test):\n    return {}"
        )
        assert types[0] == "stray_prose"

    def test_indentation_detected(self):
        assert _error_types("def f():\n return 1\n  x = 2\n")[0] == "broken_indentation"

    def test_missing_import_detected(self):
        code = "def run_pipeline(train, test):\n    return {'x': np.zeros(1)}\n"
        assert "missing_import" in _error_types(code)

    def test_missing_entrypoint_detected(self):
        assert "truncated_code" in _error_types("x = 1\n")

    def test_comprehension_targets_not_flagged(self):
        code = (
            "def run_pipeline(train, test):\n"
            "    names = [c for c in train.column_names]\n"
            "    return {'n': len(names)}\n"
        )
        assert analyze_source(code).ok


class TestExecutor:
    def _tables(self):
        t = Table.from_dict({"x": [1.0, 2.0] * 20, "y": ["a", "b"] * 20})
        return t.take(range(30)), t.take(range(30, 40))

    def test_success(self):
        code = (
            "def run_pipeline(train, test):\n"
            "    return {'test_accuracy': 0.9, 'train_accuracy': 1.0}\n"
        )
        result = execute_pipeline_code(code, *self._tables())
        assert result.success
        assert result.primary_metric == 0.9

    def test_exception_classified_with_line(self):
        code = (
            "def run_pipeline(train, test):\n"
            "    x = 1\n"
            "    raise AttributeError('no method foo')\n"
        )
        result = execute_pipeline_code(code, *self._tables())
        assert not result.success
        assert result.error.error_type.name == "wrong_api"
        assert result.error.line == 3

    def test_missing_entrypoint(self):
        result = execute_pipeline_code("x = 1\n", *self._tables())
        assert not result.success

    def test_non_dict_result_rejected(self):
        result = execute_pipeline_code(
            "def run_pipeline(train, test):\n    return 42\n", *self._tables()
        )
        assert not result.success

    def test_nan_metric_flagged_as_semantic_error(self):
        code = (
            "def run_pipeline(train, test):\n"
            "    return {'test_accuracy': float('nan')}\n"
        )
        result = execute_pipeline_code(code, *self._tables())
        assert not result.success
        assert result.error.error_type.name == "no_convergence"

    def test_out_of_range_metric_flagged(self):
        code = (
            "def run_pipeline(train, test):\n"
            "    return {'test_accuracy': 1.7}\n"
        )
        assert not execute_pipeline_code(code, *self._tables()).success

    def test_syntax_error_classified(self):
        result = execute_pipeline_code("def broken(:\n", *self._tables())
        assert not result.success
        assert result.error.group in (ErrorGroup.SE,)


class TestPrimaryMetric:
    """The documented headline-metric ordering: auc > r2 > accuracy,
    unless a known task type reorders it."""

    ALL = {"test_auc": 0.8, "test_r2": 0.6, "test_accuracy": 0.7}

    def test_priority_is_documented_order(self):
        assert METRIC_PRIORITY == ("test_auc", "test_r2", "test_accuracy")

    def test_auc_wins_without_task_type(self):
        assert select_primary_metric(self.ALL) == 0.8
        assert ExecutionResult(True, metrics=dict(self.ALL)).primary_metric == 0.8

    def test_regression_prefers_r2(self):
        assert select_primary_metric(self.ALL, "regression") == 0.6
        result = ExecutionResult(True, metrics=dict(self.ALL))
        assert result.primary_metric_for("regression") == 0.6

    def test_classification_prefers_auc_then_accuracy(self):
        assert select_primary_metric(self.ALL, "binary") == 0.8
        no_auc = {"test_accuracy": 0.7, "test_r2": 0.6}
        assert select_primary_metric(no_auc, "multiclass") == 0.7

    def test_accuracy_only(self):
        assert select_primary_metric({"test_accuracy": 0.7}) == 0.7

    def test_missing_metrics_return_none(self):
        assert select_primary_metric({}) is None
        assert select_primary_metric({"train_accuracy": 1.0}) is None
        assert ExecutionResult(True, metrics={"model": "RF"}).primary_metric is None

    def test_unknown_task_type_falls_back_to_priority(self):
        assert select_primary_metric(self.ALL, "clustering") == 0.8


class TestKnowledgeBase:
    def test_patch_removes_bad_import(self):
        kb = KnowledgeBase()
        code = "import xgboost\nx = 1\n"
        error = classify_exception(ModuleNotFoundError("No module named 'xgboost'"))
        entry = kb.find_patch(error, code)
        assert entry is not None
        assert "xgboost" not in entry.patch(code)

    def test_no_match_for_unknown_error(self):
        kb = KnowledgeBase()
        error = classify_exception(KeyError("column"))
        assert kb.find_patch(error, "x = 1") is None

    def test_trace_recording_and_distribution(self):
        kb = KnowledgeBase()
        error_re = PipelineError(ERROR_TYPES["unknown_column"], "m")
        error_kb = PipelineError(ERROR_TYPES["missing_package"], "m")
        for _ in range(3):
            kb.record("d", "gemini-1.5", error_re, "llm")
        kb.record("d", "gemini-1.5", error_kb, "kb")
        dist = kb.group_distribution("gemini-1.5")
        assert dist["RE"] == 75.0
        assert dist["KB"] == 25.0

    def test_type_distribution_sorted(self):
        kb = KnowledgeBase()
        for _ in range(2):
            kb.record("d", "m", PipelineError(ERROR_TYPES["wrong_api"], "m"))
        kb.record("d", "m", PipelineError(ERROR_TYPES["unknown_column"], "m"))
        dist = kb.type_distribution()
        assert list(dist)[0] == "wrong_api"

    def test_register_custom_entry(self):
        from repro.generation.knowledge_base import KnowledgeBaseEntry

        kb = KnowledgeBase(entries=[])
        kb.register(KnowledgeBaseEntry(
            name="custom", error_types=("wrong_api",), signature=r"badcall",
            patch=lambda code: code.replace("badcall", "predict"),
        ))
        error = PipelineError(ERROR_TYPES["wrong_api"], "m")
        entry = kb.find_patch(error, "model.badcall(X)")
        assert entry.patch("model.badcall(X)") == "model.predict(X)"


class TestCostModel:
    def test_equation_one_decomposition(self):
        cost = CostModel()
        cost.record("pipeline", "single", 100, 50)
        cost.record("error", "single", 80, 40, attempt=0)
        cost.record("error", "single", 80, 40, attempt=1)
        assert cost.gamma == 1
        assert cost.n_error_prompts == 2
        assert cost.pipeline_cost() == 150
        assert cost.error_cost() == 240
        assert cost.total_cost() == 390
        assert cost.total_tokens == 390

    def test_section_decomposition_equation_two(self):
        cost = CostModel()
        cost.record("pipeline", "preprocessing", 10, 5)
        cost.record("pipeline", "fe-engineering", 20, 5)
        cost.record("pipeline", "model-selection", 30, 5)
        sections = cost.cost_by_section()
        assert sections["preprocessing"] == 15
        assert sections["model-selection"] == 35

    def test_usd_cost(self):
        cost = CostModel()
        cost.record("pipeline", "single", 1000, 1000)
        assert cost.usd_cost(0.001, 0.002) == pytest.approx(0.003)


@pytest.fixture(scope="module")
def generation_setup():
    rng = np.random.default_rng(0)
    n = 240
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    x1[rng.choice(n, 15, replace=False)] = np.nan
    label = np.where(np.nan_to_num(x1) + x2 > 0, "pos", "neg")
    t = Table.from_dict({
        "x1": x1, "x2": x2,
        "cat": np.where(x2 > 0, "hi", "lo"),
        "label": label,
    }, name="gen")
    labels = [str(v) for v in t["label"]]
    train, test = train_test_split(t, test_size=0.3, random_state=0, stratify=labels)
    from repro.catalog.profiler import profile_table

    catalog = profile_table(t, target="label", task_type="binary")
    return train, test, catalog


class TestCatDBGenerator:
    def test_clean_generation_succeeds(self, generation_setup):
        train, test, catalog = generation_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        report = CatDB(llm).generate(train, test, catalog)
        assert report.success
        assert report.metrics["test_auc"] > 0.7
        assert report.cost.gamma == 1
        assert report.errors == []
        assert not report.fallback_used

    def test_faulty_generation_recovers(self, generation_setup):
        train, test, catalog = generation_setup
        recovered = 0
        for seed in range(6):
            llm = MockLLM("llama3.1-70b", seed=seed)
            report = CatDB(llm, max_fix_attempts=5).generate(
                train, test, catalog, iteration=seed
            )
            assert report.success
            if report.errors:
                recovered += 1
        assert recovered >= 1  # at least one run hit and survived an error

    def test_kb_disabled_routes_to_llm(self, generation_setup):
        train, test, catalog = generation_setup
        # find a seed whose fault is KB-patchable, then compare paths
        for seed in range(40):
            probe = MockLLM("gemini-1.5", seed=seed)
            with_kb = CatDB(probe, max_fix_attempts=5).generate(
                train, test, catalog
            )
            if with_kb.kb_fixes > 0:
                no_kb_llm = MockLLM("gemini-1.5", seed=seed)
                without_kb = CatDB(
                    no_kb_llm, max_fix_attempts=6, use_knowledge_base=False
                ).generate(train, test, catalog)
                assert without_kb.kb_fixes == 0
                assert without_kb.llm_fixes >= 1
                return
        pytest.skip("no KB-patchable fault sampled in 40 seeds")

    def test_report_accounting_consistent(self, generation_setup):
        train, test, catalog = generation_setup
        llm = MockLLM("gpt-4o", seed=1)
        report = CatDB(llm).generate(train, test, catalog)
        assert report.total_tokens == llm.usage.total_tokens
        assert report.end_to_end_seconds >= report.generation_seconds

    def test_combination_controls_prompt(self, generation_setup):
        train, test, catalog = generation_setup
        lean = CatDB(MockLLM("gpt-4o", fault_injection=False), combination=1)
        rich = CatDB(MockLLM("gpt-4o", fault_injection=False), combination=11)
        lean_report = lean.generate(train, test, catalog)
        rich_report = rich.generate(train, test, catalog)
        assert rich_report.cost.prompt_tokens > lean_report.cost.prompt_tokens


class TestCatDBChainGenerator:
    def test_chain_succeeds(self, generation_setup):
        train, test, catalog = generation_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        report = CatDBChain(llm, beta=2).generate(train, test, catalog)
        assert report.success
        assert report.variant == "catdb-chain"
        # beta=2: 2 preprocessing + 2 fe + 1 model-selection prompts
        assert report.cost.gamma == 5

    def test_chain_sections_tracked(self, generation_setup):
        train, test, catalog = generation_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        report = CatDBChain(llm, beta=2).generate(train, test, catalog)
        sections = report.cost.cost_by_section()
        assert "preprocessing" in sections
        assert "model-selection" in sections

    def test_chain_requires_beta_two(self, generation_setup):
        with pytest.raises(ValueError):
            CatDBChain(MockLLM("gpt-4o"), beta=1)

    def test_chain_costs_more_than_single(self, generation_setup):
        train, test, catalog = generation_setup
        single = CatDB(MockLLM("gpt-4o", fault_injection=False)).generate(
            train, test, catalog
        )
        chain = CatDBChain(
            MockLLM("gpt-4o", fault_injection=False), beta=2
        ).generate(train, test, catalog)
        assert chain.total_tokens > single.total_tokens
