"""Smoke tests for the experiment drivers (tiny configurations)."""

import pytest

from repro.experiments import (
    fig9_profiling,
    fig10_metadata,
    fig11_iterations,
    fig12_cost_runtime,
    fig13_tokens,
    fig14_robustness,
    table2_errors,
    table4_refinement,
    table5_accuracy,
    table6_runtime,
    table7_single_iteration,
    table8_runtime,
)
from repro.experiments.common import (
    format_table,
    metric_str,
    prepare_dataset,
    run_catdb,
    run_system,
)


class TestCommon:
    def test_prepare_dataset_split_and_catalog(self):
        prepared = prepare_dataset("cmc", quick=True)
        assert prepared.train.n_rows + prepared.test.n_rows == 700
        assert prepared.catalog.info.target == "method"
        assert prepared.meta["paper_cells"] == 1_473 * 10

    def test_run_catdb_on_prepared(self):
        prepared = prepare_dataset("diabetes", quick=True)
        report = run_catdb(prepared, fault_injection=False)
        assert report.success

    def test_run_system_validates_llm_baseline_name(self):
        prepared = prepare_dataset("wifi", quick=True)
        with pytest.raises(ValueError):
            run_system(prepared, "gpt-agent")

    def test_run_system_validates_automl_name(self):
        prepared = prepare_dataset("wifi", quick=True)
        with pytest.raises(ValueError):
            run_system(prepared, "tpot", time_budget_seconds=8.0)

    def test_metric_str(self):
        assert metric_str(0.912) == "91.2"
        assert metric_str(None) == "N/A"
        assert metric_str(0.5, failure="OOM") == "OOM"

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [3, 4]], title="T")
        assert out.startswith("T\n")
        assert "bb" in out


class TestDrivers:
    def test_fig9(self):
        result = fig9_profiling.run(datasets=["wifi", "cmc"])
        assert len(result.rows) == 2
        assert "Figure 9" in result.render()

    def test_fig10(self):
        result = fig10_metadata.run(
            datasets=("wifi",), llms=("gpt-4o",),
            combinations=(1, 11), topk_values=(3,),
        )
        assert len(result.combination_rows) == 2
        assert result.chain_rows
        assert "Figure 10" in result.render()

    def test_table4(self):
        result = table4_refinement.run(datasets=("wifi",))
        assert result.rows
        assert "Table 4" in result.render()

    def test_table5(self):
        result = table5_accuracy.run(
            datasets=("wifi",), automl_tools=("flaml",), automl_budget=3.0,
        )
        systems = {r["system"] for r in result.rows}
        assert "catdb-original" in systems and "catdb-refined" in systems
        assert "clean+flaml" in systems
        assert "Table 5" in result.render()

    def test_table6(self):
        result = table6_runtime.run(datasets=("wifi",))
        systems = {r["system"] for r in result.rows}
        assert "cleaning" in systems and "augmentation" in systems
        assert "Table 6" in result.render()

    def test_fig11_and_fig12(self):
        source = fig11_iterations.run(
            datasets=("diabetes",), llms=("gpt-4o",),
            systems=("catdb", "aide"), iterations=2,
        )
        assert len(source.runs) == 4
        assert "Figure 11" in source.render()
        fig12 = fig12_cost_runtime.run(source=source)
        totals = fig12.totals()
        assert {t["system"] for t in totals} == {"catdb", "aide"}
        assert "Figure 12" in fig12.render()

    def test_table7(self):
        result = table7_single_iteration.run(
            datasets=("cmc",), llms=("gpt-4o",), max_fix_attempts=3,
        )
        assert result.cell("cmc", "gpt-4o", "catdb") is not None
        assert result.cell("cmc", None, "autosklearn") is not None
        assert "Table 7" in result.render()

    def test_fig13(self):
        result = fig13_tokens.run(
            datasets=("wifi",), llms=("gpt-4o",), systems=("catdb",),
        )
        assert result.tokens_for("wifi", "gpt-4o", "catdb") > 0
        assert "Figure 13" in result.render()

    def test_table8(self):
        result = table8_runtime.run(datasets=("wifi",), llms=("gpt-4o",))
        summary = result.summary()
        assert any(s["system"] == "catdb" for s in summary)
        assert "Table 8" in result.render()

    def test_fig14(self):
        result = fig14_robustness.run(
            datasets=("utility",), corruptions=("outliers",),
            ratios=(0.0, 0.05), automl_tools=("flaml",),
            automl_budget=3.0, include_caafe=False,
        )
        series = result.series("utility", "outliers", "catdb")
        assert [r for r, _ in series] == [0.0, 0.05]
        assert "Figure 14" in result.render()

    def test_table2(self):
        result = table2_errors.run(
            datasets=("wifi", "cmc"), llms=("llama3.1-70b",), iterations=3,
        )
        assert result.n_requests["llama3.1-70b"] > 0
        assert "Table 2" in result.render()
        dist = result.group_distribution("llama3.1-70b")
        assert abs(sum(dist.values()) - 100.0) < 0.1 or sum(dist.values()) == 0.0
