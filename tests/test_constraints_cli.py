"""Tests for library-constraint enforcement and the CLI."""

import ast

import pytest

from repro.analysis.rules import AnalysisContext, run_rules
from repro.cli import build_parser, main
from repro.generation import LibraryPolicy
from repro.generation.generator import CatDB, GenerationReport
from repro.llm.mock import MockLLM


def check_imports(code, policy):
    """The ``library-policy`` rule's findings (none for unparseable code)."""
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return []
    return run_rules(AnalysisContext(code, tree), (policy,))


def enforce_policy(code, policy):
    """What the generators do to each completion: (code, findings left)."""
    report = GenerationReport(dataset="d", llm="gpt-4o", variant="catdb")
    generator = CatDB(MockLLM("gpt-4o"), library_policy=policy)
    return generator._enforce_policy(report, code), report.library_violations


def _module(finding):
    return finding.details["module"]


class TestLibraryPolicy:
    def test_default_allows_repro_and_numpy(self):
        policy = LibraryPolicy()
        assert policy.permits("repro.ml")
        assert policy.permits("numpy")

    def test_default_blocks_unknown(self):
        policy = LibraryPolicy()
        assert not policy.permits("torch")

    def test_disallowed_overrides_allowlist(self):
        policy = LibraryPolicy(disallowed=frozenset({"scipy"}))
        assert not policy.permits("scipy.stats")

    def test_allowlist_none_permits_everything_not_disallowed(self):
        policy = LibraryPolicy(allowed=None, disallowed=frozenset({"torch"}))
        assert policy.permits("anything")
        assert not policy.permits("torch.nn")


class TestCheckImports:
    def test_clean_code(self):
        code = "import numpy as np\nfrom repro.ml import Ridge\n"
        assert check_imports(code, LibraryPolicy()) == []

    def test_violations_reported_with_lines(self):
        code = "import numpy\nimport xgboost\n"
        violations = check_imports(code, LibraryPolicy())
        assert len(violations) == 1
        assert _module(violations[0]) == "xgboost"
        assert violations[0].line == 2

    def test_from_import_checked(self):
        code = "from sklearn.ensemble import RandomForestClassifier\n"
        violations = check_imports(code, LibraryPolicy())
        assert _module(violations[0]).startswith("sklearn")

    def test_syntax_error_no_crash(self):
        assert check_imports("def broken(:", LibraryPolicy()) == []


class TestEnforcePolicy:
    def test_rewritable_import_dropped(self):
        code = "import xgboost\nx = 1\n"
        fixed, remaining = enforce_policy(code, LibraryPolicy())
        assert remaining == []
        assert "xgboost" not in fixed
        assert "x = 1" in fixed

    def test_from_import_repointed(self):
        code = "from pandas import read_csv\n"
        fixed, remaining = enforce_policy(code, LibraryPolicy())
        assert remaining == []
        assert "repro.table" in fixed

    def test_unrewritable_violation_remains(self):
        code = "import torch\n"
        fixed, remaining = enforce_policy(code, LibraryPolicy())
        assert len(remaining) == 1
        assert _module(remaining[0]) == "torch"

    def test_rewrite_disabled(self):
        code = "import xgboost\n"
        _fixed, remaining = enforce_policy(
            code, LibraryPolicy(rewrite=False)
        )
        assert len(remaining) == 1

    def test_multi_name_import_drops_only_the_violating_alias(self):
        code = "import numpy as np, xgboost\nx = np.zeros(2)\n"
        fixed, remaining = enforce_policy(code, LibraryPolicy())
        assert remaining == []
        assert fixed == "import numpy as np\nx = np.zeros(2)\n"
        exec(compile(fixed, "<policy>", "exec"), {})

    @pytest.mark.parametrize("code, expected", [
        ("def f():\n    import xgboost\n",
         "def f():\n    pass\n"),
        ("try:\n    import lightgbm\nexcept ImportError:\n    pass\n",
         "try:\n    pass\nexcept ImportError:\n    pass\n"),
    ])
    def test_sole_import_in_a_block_becomes_pass(self, code, expected):
        fixed, remaining = enforce_policy(code, LibraryPolicy())
        assert remaining == []
        assert fixed == expected
        ast.parse(fixed)

    def test_findings_come_from_the_rule_engine(self):
        (finding,) = check_imports("import torch\n", LibraryPolicy())
        assert finding.rule_id == "library-policy"
        assert finding.error_type == "missing_package"
        assert finding.details["reason"] == "not allowlisted"


class TestGeneratorIntegration:
    def test_policy_threads_through_catdb(self, small_classification_table,
                                          classification_catalog):
        from repro.generation.generator import CatDB
        from repro.llm.mock import MockLLM
        from repro.ml.model_selection import train_test_split

        train, test = train_test_split(
            small_classification_table, test_size=0.3, random_state=0
        )
        generator = CatDB(
            MockLLM("gpt-4o", fault_injection=False),
            library_policy=LibraryPolicy(),
        )
        report = generator.generate(train, test, classification_catalog)
        assert report.success
        assert report.library_violations == []


class TestCli:
    def test_datasets_lists_20(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "wifi" in out and "house_sales" in out
        assert len(out.strip().splitlines()) == 21  # header + 20 rows

    def test_profile(self, capsys):
        assert main(["profile", "wifi"]) == 0
        out = capsys.readouterr().out
        assert "Constant" in out
        assert "*target*" in out

    def test_generate(self, capsys):
        code = main(["generate", "diabetes", "--rows", "300", "--seed", "1"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "results:" in out

    def test_generate_show_code(self, capsys):
        main(["generate", "diabetes", "--rows", "300", "--show-code"])
        out = capsys.readouterr().out
        assert "def run_pipeline" in out

    def test_experiment_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestResultsSummary:
    def test_coverage_keys(self):
        from repro.experiments.summary import EXPECTED_ARTIFACTS, coverage

        have = coverage("nonexistent-dir")
        assert set(have) == set(EXPECTED_ARTIFACTS)
        assert not any(have.values())

    def test_collate_with_results(self, tmp_path):
        from repro.experiments.summary import collate_results

        (tmp_path / "fig09_profiling.txt").write_text("FAKE FIG9 TABLE\n")
        (tmp_path / "ablation_custom.txt").write_text("FAKE ABLATION\n")
        report = collate_results(tmp_path)
        assert "FAKE FIG9 TABLE" in report
        assert "FAKE ABLATION" in report
        assert "not yet regenerated" in report  # the missing artifacts

    def test_cli_results(self, capsys):
        from repro.cli import main

        assert main(["results", "--dir", "benchmarks/results"]) == 0
        out = capsys.readouterr().out
        assert "Regenerated paper artifacts" in out
