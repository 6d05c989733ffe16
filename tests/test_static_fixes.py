"""Tests for the deterministic auto-fix tier (repro.analysis.fixes).

Per-fixer unit tests, the three contract properties (every fix parses,
fixing is idempotent, clean code is never changed), and the repair-loop
integration: a stub LLM that always returns statically-dirty code must
end with a successful execution *without* an LLM repair round-trip, for
several distinct finding classes.
"""

import ast

import numpy as np
import pytest

from repro.analysis import analyze_source
from repro.analysis.fixes import (
    FixTarget,
    _import_line_for,
    autofix,
    fix_error,
    fix_target,
)
from repro.analysis.pipeline_rules import KNOWN_LIBRARY_SYMBOLS
from repro.analysis.rules import AnalysisContext, run_rules
from repro.catalog.profiler import profile_table
from repro.cli import main
from repro.generation import LibraryPolicy
from repro.generation.errors import ERROR_TYPES, PipelineError
from repro.generation.generator import CatDB
from repro.llm import faults
from repro.llm.base import LLMClient, LLMResponse
from repro.llm.mock import MockLLM
from repro.ml.model_selection import train_test_split
from repro.table.table import Table


def _fix(code: str, error_type: str, line: int | None = None,
         rule_id: str | None = None):
    return fix_target(
        code, FixTarget(error_type=error_type, line=line, rule_id=rule_id)
    )


class TestFixers:
    def test_markdown_fence_stripped(self):
        dirty = "```python\ndef run_pipeline(train, test):\n    return {}\n```"
        result = _fix(dirty, "markdown_fence")
        assert result.changed and "```" not in result.code

    def test_stray_prose_dropped(self):
        dirty = (
            "Here is the complete pipeline implementing your requirements:\n"
            "def run_pipeline(train, test):\n    return {}\n"
        )
        result = _fix(dirty, "stray_prose", line=1)
        assert result.changed and "Here is" not in result.code

    def test_indentation_realigned(self):
        dirty = (
            "def run_pipeline(train, test):\n"
            "    x = 1\n"
            "  y = 2\n"
            "    return {}\n"
        )
        result = _fix(dirty, "broken_indentation", line=3)
        assert result.changed
        assert "    y = 2" in result.code.split("\n")

    def test_bracket_closed(self):
        dirty = "def run_pipeline(train, test):\n    model = make(1, 2\n"
        result = _fix(dirty, "unclosed_bracket")
        assert result.changed and "make(1, 2)" in result.code

    def test_missing_np_import_inserted(self):
        dirty = (
            "def run_pipeline(train, test):\n"
            "    return {'a': float(np.mean([1.0]))}\n"
        )
        result = _fix(dirty, "missing_import")
        assert "import numpy as np" in result.code
        assert analyze_source(result.code).ok

    def test_missing_ml_symbol_import_inserted(self):
        dirty = (
            "def run_pipeline(train, test):\n"
            "    model = RandomForestClassifier(random_state=0)\n"
            "    return {}\n"
        )
        result = _fix(dirty, "missing_import")
        assert "from repro.ml import RandomForestClassifier" in result.code

    def test_env_get_replaced_with_default(self):
        dirty = (
            "import os\n"
            "def run_pipeline(train, test):\n"
            "    root = os.environ.get('WORKSPACE', '/tmp')\n"
            "    return {}\n"
        )
        result = _fix(dirty, "env_variable", line=3)
        assert result.changed and "root = '/tmp'" in result.code

    def test_env_item_access_removed(self):
        dirty = (
            "import os\n"
            "def run_pipeline(train, test):\n"
            "    ws = os.environ['CATDB_WORKSPACE']\n"
            "    return {}\n"
        )
        result = _fix(dirty, "env_variable", line=3)
        assert result.changed and "os.environ" not in result.code

    def test_banned_line_dropped(self):
        dirty = (
            "def run_pipeline(train, test):\n"
            "    cache = open('/data/schema.json')\n"
            "    return {}\n"
        )
        result = _fix(dirty, "missing_data_file", line=2, rule_id="banned-api")
        assert result.changed and "open(" not in result.code

    def test_wrong_api_from_other_rule_not_dropped(self):
        # a signature mismatch is not a mechanical line-drop: dropping
        # the flagged call would silently change behavior
        dirty = (
            "from repro.ml import Ridge\n"
            "def run_pipeline(train, test):\n"
            "    model = Ridge(wrongness=3)\n"
            "    return {}\n"
        )
        result = _fix(dirty, "wrong_api", line=3, rule_id="signature")
        assert not result.changed

    def test_policy_import_rewritten_for_policy_findings_only(self):
        dirty = "import numpy as np\nfrom sklearn.linear_model import Ridge\n"
        ctx = AnalysisContext(dirty, ast.parse(dirty))
        (finding,) = run_rules(ctx, (LibraryPolicy(),))
        target = FixTarget(
            finding.error_type, finding.message, finding.line, finding.rule_id
        )
        result = fix_target(dirty, target)
        assert result.code == "import numpy as np\nfrom repro.ml import Ridge\n"
        assert result.applied[0].fixer_id == "rewrite-policy-import"
        # a runtime ModuleNotFoundError is missing_package too: it stays
        # with the knowledge base, whatever its message says
        runtime = FixTarget(finding.error_type, finding.message, finding.line)
        assert not fix_target(dirty, runtime).changed
        error = PipelineError(
            ERROR_TYPES["missing_package"], finding.message, line=finding.line
        )
        assert not fix_error(dirty, error).changed

    def test_every_known_symbol_has_an_import_that_runs(self):
        for symbol in sorted(KNOWN_LIBRARY_SYMBOLS):
            line = _import_line_for(symbol)
            assert line is not None, symbol
            namespace: dict = {}
            exec(compile(line, "<import>", "exec"), namespace)
            assert symbol in namespace, (symbol, line)

    def test_seed_pinned(self):
        dirty = (
            "import numpy as np\n"
            "def run_pipeline(train, test):\n"
            "    rng = np.random.default_rng()\n"
            "    model = M(random_state=None)\n"
            "    return {}\n"
        )
        result = _fix(dirty, "no_convergence")
        assert "default_rng(0)" in result.code
        assert "random_state=0" in result.code

    def test_entry_point_wrapped(self):
        dirty = (
            "def build_model(train, test):\n"
            "    return {}\n"
        )
        result = _fix(dirty, "truncated_code")
        assert "def run_pipeline(train, test):" in result.code
        assert "return build_model(train, test)" in result.code

    def test_unknown_error_type_untouched(self):
        code = "def run_pipeline(train, test):\n    return {}\n"
        result = _fix(code, "shape_mismatch")
        assert not result.changed and result.code == code


@pytest.fixture(scope="module")
def clean_pipeline_code():
    rng = np.random.default_rng(0)
    n = 240
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    label = np.where(x1 + x2 > 0, "pos", "neg")
    t = Table.from_dict({
        "x1": x1, "x2": x2,
        "cat": np.where(x2 > 0, "hi", "lo"),
        "label": label,
    }, name="fixes")
    labels = [str(v) for v in t["label"]]
    train, test = train_test_split(
        t, test_size=0.3, random_state=0, stratify=labels
    )
    catalog = profile_table(t, target="label", task_type="binary")
    llm = MockLLM("gpt-4o", fault_injection=False)
    report = CatDB(llm).generate(train, test, catalog)
    assert report.success
    return report.code, train, test, catalog


#: SE/semantic fault classes whose injected form the static tier can
#: repair mechanically (no LLM, no knowledge base)
_FIXABLE_FAULTS = (
    "markdown_fence",
    "stray_prose",
    "broken_indentation",
    "missing_import",
    "missing_data_file",
    "env_variable",
)


class TestAutofixProperties:
    @pytest.mark.parametrize("fault", _FIXABLE_FAULTS)
    def test_output_parses_and_is_clean(self, clean_pipeline_code, fault):
        code, *_ = clean_pipeline_code
        dirty = faults._INJECTORS[fault](code, 3)
        result = autofix(dirty)
        assert result.changed, fault
        report = analyze_source(result.code)
        assert not report.syntax_error, fault
        assert report.ok, (fault, [f.message for f in report.errors()])

    @pytest.mark.parametrize("fault", _FIXABLE_FAULTS)
    def test_idempotent(self, clean_pipeline_code, fault):
        code, *_ = clean_pipeline_code
        dirty = faults._INJECTORS[fault](code, 3)
        once = autofix(dirty)
        twice = autofix(once.code)
        assert twice.code == once.code, fault
        assert not twice.changed, fault

    def test_clean_code_never_changed(self, clean_pipeline_code):
        code, *_ = clean_pipeline_code
        result = autofix(code)
        assert not result.changed
        assert result.code == code


class _StubLLM(LLMClient):
    """Always returns the same (dirty) pipeline code."""

    def __init__(self, code: str) -> None:
        self.model = "stub"
        self.code = code

    def complete(self, prompt, **kwargs):
        return LLMResponse(
            content=f"<CODE>{self.code}</CODE>",
            prompt_tokens=10, completion_tokens=10, model=self.model,
        )


class TestRepairLoopIntegration:
    @pytest.mark.parametrize(
        "fault", ("markdown_fence", "missing_import", "env_variable")
    )
    def test_static_tier_repairs_and_executes(
        self, clean_pipeline_code, fault
    ):
        # three distinct finding classes repaired without any LLM fix:
        # the run succeeds, the fix counters tick, no fallback needed
        code, train, test, catalog = clean_pipeline_code
        dirty = faults._INJECTORS[fault](code, 3)
        gen = CatDB(_StubLLM(dirty), use_knowledge_base=False)
        report = gen.generate(train, test, catalog)
        assert report.success and not report.fallback_used, fault
        assert report.static_fixes >= 1, fault
        assert report.llm_fixes_avoided >= 1, fault
        assert report.llm_fixes == 0, fault

    def test_fix_classes_recorded(self, clean_pipeline_code):
        code, train, test, catalog = clean_pipeline_code
        dirty = faults._INJECTORS["missing_import"](code, 3)
        gen = CatDB(_StubLLM(dirty), use_knowledge_base=False)
        report = gen.generate(train, test, catalog)
        assert report.static_fix_types.get("missing_import", 0) >= 1


class TestLintFixCLI:
    def test_lint_fix_rewrites_files(self, tmp_path, capsys):
        target = tmp_path / "pipe.py"
        target.write_text(
            "def run_pipeline(train, test):\n"
            "    return {'a': float(np.mean([1.0]))}\n",
            encoding="utf-8",
        )
        rc = main(["lint", str(tmp_path), "--profile", "pipeline", "--fix"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fix: " in out
        fixed = target.read_text(encoding="utf-8")
        assert "import numpy as np" in fixed
        assert analyze_source(fixed).ok

    def test_lint_fix_leaves_clean_files_alone(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        source = (
            "import numpy as np\n"
            "def run_pipeline(train, test):\n"
            "    return {'a': float(np.mean([1.0]))}\n"
        )
        target.write_text(source, encoding="utf-8")
        rc = main(["lint", str(tmp_path), "--profile", "pipeline", "--fix"])
        assert rc == 0
        assert target.read_text(encoding="utf-8") == source
