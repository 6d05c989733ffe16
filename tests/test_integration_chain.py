"""Integration tests for the chain workflow and cross-module behaviour."""

import numpy as np
import pytest

from repro.catalog.profiler import profile_table
from repro.generation.generator import CatDB, CatDBChain
from repro.llm.mock import MockLLM
from repro.ml.model_selection import train_test_split
from repro.prompt.rules import SECTION_FE, SECTION_MODEL, SECTION_PREPROCESSING
from repro.table.table import Table


def _features_of(code: str) -> list[str]:
    """Extract the FEATURES list literal from generated pipeline code."""
    import ast

    tree = ast.parse(code)
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "FEATURES"
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    raise AssertionError("no FEATURES assignment in generated code")


@pytest.fixture(scope="module")
def wide_setup():
    rng = np.random.default_rng(0)
    n = 300
    data = {f"f{i}": rng.normal(size=n) for i in range(12)}
    data["cat_a"] = rng.choice(["x", "y"], size=n).tolist()
    data["cat_b"] = rng.choice(["p", "q", "r"], size=n).tolist()
    score = data["f0"] + data["f1"]
    data["y"] = np.where(score > 0, "pos", "neg").tolist()
    t = Table.from_dict(data, name="wide")
    labels = [str(v) for v in t["y"]]
    train, test = train_test_split(t, test_size=0.3, random_state=0,
                                   stratify=labels)
    catalog = profile_table(t, target="y", task_type="binary")
    return train, test, catalog


class TestChainIntegration:
    def test_final_pipeline_covers_all_chunks(self, wide_setup):
        train, test, catalog = wide_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        report = CatDBChain(llm, beta=3).generate(train, test, catalog)
        assert report.success
        # the final code's FEATURES list spans columns from every chunk
        features = _features_of(report.code)
        assert len(features) >= 12  # nearly all 14 features survive chunking
        assert "cat_a" in features and "f0" in features and "f11" in features

    def test_chain_uses_more_interactions_for_more_beta(self, wide_setup):
        train, test, catalog = wide_setup
        gammas = []
        for beta in (2, 3):
            llm = MockLLM("gpt-4o", fault_injection=False)
            report = CatDBChain(llm, beta=beta).generate(train, test, catalog)
            gammas.append(report.cost.gamma)
        assert gammas == [5, 7]

    def test_chain_handles_faults(self, wide_setup):
        train, test, catalog = wide_setup
        for seed in range(3):
            llm = MockLLM("llama3.1-70b", seed=seed, error_rate_multiplier=2.0)
            report = CatDBChain(llm, beta=2, max_fix_attempts=4).generate(
                train, test, catalog, iteration=seed
            )
            assert report.success

    def test_alpha_and_chain_compose(self, wide_setup):
        train, test, catalog = wide_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        report = CatDBChain(llm, beta=2, alpha=6).generate(train, test, catalog)
        assert report.success
        assert len(_features_of(report.code)) <= 6


class TestEndToEndArtifacts:
    def test_generated_code_replays_identically(self, wide_setup):
        """The reported pipeline re-executes to the reported metrics."""
        from repro.generation.executor import execute_pipeline_code

        train, test, catalog = wide_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        report = CatDB(llm).generate(train, test, catalog)

        replay = execute_pipeline_code(report.code, train, test)
        assert replay.success
        assert replay.metrics["test_auc"] == pytest.approx(
            report.metrics["test_auc"]
        )

    def test_reloaded_catalog_rebuilds_same_prompt(self, wide_setup, tmp_path):
        from repro.catalog.catalog import DataCatalog
        from repro.prompt.builder import build_prompt_plan

        _train, _test, catalog = wide_setup
        path = tmp_path / "catalog.json"
        catalog.save(path)
        reloaded = DataCatalog.load(path)
        original_prompt = build_prompt_plan(catalog, beta=1).single.text
        reloaded_prompt = build_prompt_plan(reloaded, beta=1).single.text
        assert original_prompt == reloaded_prompt


class TestChainFewFeatures:
    """A chain plan keeps only non-empty chunks, so a cleaned catalog with
    one feature column (or none) yields fewer chunks than ``beta``; the
    chain must still run its steps instead of treating the plan as a
    single prompt."""

    @staticmethod
    def _setup(data):
        t = Table.from_dict(data, name="few")
        labels = [str(v) for v in t["y"]]
        train, test = train_test_split(t, test_size=0.3, random_state=0,
                                       stratify=labels)
        return train, test, profile_table(t, target="y", task_type="binary")

    @pytest.mark.parametrize("beta", [2, 3])
    def test_one_feature(self, beta):
        rng = np.random.default_rng(0)
        x = rng.normal(size=120)
        train, test, catalog = self._setup(
            {"x": x, "y": np.where(x > 0, "pos", "neg").tolist()}
        )
        report = CatDBChain(MockLLM("gpt-4o", seed=0), beta=beta).generate(
            train, test, catalog
        )
        assert report.success
        assert not report.fallback_used
        sections = [i.section for i in report.cost.interactions
                    if i.role == "pipeline"]
        assert sections == [SECTION_PREPROCESSING, SECTION_FE, SECTION_MODEL]

    def test_constant_feature_only(self):
        rng = np.random.default_rng(0)
        train, test, catalog = self._setup({
            "c": [1.0] * 120,
            "y": rng.choice(["pos", "neg"], size=120).tolist(),
        })
        report = CatDBChain(MockLLM("gpt-4o", seed=0), beta=2).generate(
            train, test, catalog
        )
        # the constant column is cleaned away: only the model step is left
        sections = [i.section for i in report.cost.interactions
                    if i.role == "pipeline"]
        assert sections == [SECTION_MODEL]
        assert report.code
