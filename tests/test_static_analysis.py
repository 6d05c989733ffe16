"""Tests for the scope-aware static analyzer (repro.analysis).

Covers: the scope-chain name resolver (one regression per binding form
the old flat walk missed), syntax-error classification, every pipeline
rule positive + negative, the repo self-lint profile with its
lock-reentry (breaker-deadlock) fixture, and the execution-skip audit (statically-dirty code never reaches
``execute_pipeline_code``).
"""

import ast
import gc
import sys
import threading

import numpy as np
import pytest

from repro.analysis import (
    PROFILES,
    RuleConfig,
    Severity,
    analyze_source,
    lint_paths,
    scope_table,
    undefined_uses,
)
from repro.analysis.engine import _classify_syntax_error
from repro.analysis.rules import STDLIB_GLOBAL_RNG_FNS, parse_source
from repro.catalog.profiler import profile_table
from repro.generation.generator import CatDB
from repro.llm import faults
from repro.llm.base import LLMClient, LLMResponse
from repro.llm.mock import MockLLM
from repro.ml.model_selection import train_test_split
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.table.table import Table


def _undefined(code: str) -> set[str]:
    return {name for name, _ in undefined_uses(scope_table(ast.parse(code)))}


def _error_rules(code: str, profile: str = "pipeline") -> set[str]:
    return {f.rule_id for f in analyze_source(code, profile=profile).errors()}


PIPELINE_STUB = "\ndef run_pipeline(train, test):\n    return {}\n"

GLOBAL_IMPORT_PIPELINE = (
    "def _setup():\n"
    "    global np\n"
    "    import numpy as np\n"
    "\n"
    "def run_pipeline(train, test):\n"
    "    _setup()\n"
    "    return {\"x\": float(np.zeros(1)[0])}\n"
)


class TestScopeResolver:
    def test_walrus_binds_in_enclosing_scope(self):
        code = "if (n := 10) > 5:\n    print(n)\nprint(n)"
        assert _undefined(code) == set()

    def test_walrus_inside_comprehension_escapes(self):
        # per PEP 572 the := target binds in the containing scope
        code = "values = [y for x in range(3) if (y := x * 2) > 0]\nprint(y)"
        assert _undefined(code) == set()

    def test_annassign_with_value_binds(self):
        assert _undefined("x: int = 1\nprint(x)") == set()

    def test_annassign_without_value_binds(self):
        # flow-insensitive: an annotated declaration counts as a binding
        assert _undefined("x: int\nprint(x)") == set()

    def test_lambda_parameters_bound_inside_only(self):
        assert _undefined("f = lambda a, b=1, *args, **kw: a + b") == set()
        # the parameter is NOT visible outside the lambda
        assert _undefined("f = lambda a: a\nprint(a)") == {"a"}

    def test_match_captures_bind(self):
        code = (
            "match point:\n"
            "    case {'x': x, **rest}:\n"
            "        print(x, rest)\n"
            "    case [first, *others] as whole:\n"
            "        print(first, others, whole)\n"
        )
        undefined = _undefined(code)
        assert undefined == {"point"}

    def test_comprehension_target_does_not_leak(self):
        code = "values = [i * 2 for i in range(3)]\nprint(i)"
        assert _undefined(code) == {"i"}

    def test_function_local_invisible_at_module_level(self):
        # the old flat walk treated np as defined everywhere
        code = "def helper():\n    np = object()\n    return np\nprint(np)"
        assert _undefined(code) == {"np"}

    def test_class_body_names_invisible_to_methods(self):
        code = (
            "class C:\n"
            "    attr = 1\n"
            "    def m(self):\n"
            "        return attr\n"
        )
        assert _undefined(code) == {"attr"}

    def test_class_body_names_visible_in_body(self):
        code = "class C:\n    attr = 1\n    other = attr + 1\n"
        assert _undefined(code) == set()

    def test_global_declaration_resolves_to_module(self):
        code = (
            "counter = 0\n"
            "def bump():\n"
            "    global counter\n"
            "    counter += 1\n"
        )
        assert _undefined(code) == set()

    def test_nonlocal_resolves_to_enclosing_function(self):
        code = (
            "def outer():\n"
            "    state = 0\n"
            "    def inner():\n"
            "        nonlocal state\n"
            "        state += 1\n"
            "    return inner\n"
        )
        assert _undefined(code) == set()

    def test_for_tuple_target_binds_all_names(self):
        assert _undefined("for k, (a, b) in items():\n    print(k, a, b)") == {"items"}

    def test_except_handler_and_with_bind(self):
        code = (
            "try:\n    pass\nexcept ValueError as exc:\n    print(exc)\n"
            "with open('x') as fh:\n    print(fh)\n"
        )
        assert _undefined(code) == set()

    def test_closure_reads_enclosing_scope(self):
        code = (
            "def outer():\n"
            "    seed = 3\n"
            "    def inner():\n"
            "        return seed\n"
            "    return inner\n"
        )
        assert _undefined(code) == set()

    def test_dotted_import_binds_root(self):
        assert _undefined("import os.path\nprint(os.path.join('a'))") == set()

    def test_default_resolved_in_enclosing_scope(self):
        # a default is evaluated where the def runs, not inside the body
        code = (
            "def f(x=np.zeros(1)):\n"
            "    import numpy as np\n"
            "    return x\n"
        )
        assert _undefined(code) == {"np"}

    def test_class_body_names_invisible_in_comprehension(self):
        code = "class C:\n    a = 1\n    b = [a for _ in range(3)]\n"
        assert _undefined(code) == {"a"}

    def test_global_bound_in_function_resolves_everywhere(self):
        assert _undefined(GLOBAL_IMPORT_PIPELINE) == set()
        scopes = {s.name: s for s in scope_table(ast.parse(GLOBAL_IMPORT_PIPELINE)).scopes}
        assert "np" in scopes["<module>"].bindings
        assert "np" not in scopes["_setup"].bindings

    def test_nonlocal_binding_recorded_in_enclosing_function(self):
        code = (
            "def outer():\n"
            "    state = None\n"
            "    def inner():\n"
            "        nonlocal state\n"
            "        import numpy as state\n"
            "    inner()\n"
            "    def reader():\n"
            "        return state\n"
            "    return reader\n"
        )
        assert _undefined(code) == set()
        scopes = {s.name: s for s in scope_table(ast.parse(code)).scopes}
        assert "state" in scopes["outer"].bindings
        assert "state" not in scopes["inner"].bindings


class TestSyntaxClassification:
    def _classify(self, code: str) -> str:
        with pytest.raises(SyntaxError) as excinfo:
            ast.parse(code)
        return _classify_syntax_error(code, excinfo.value)

    def test_prose_line_is_stray_prose(self):
        code = "Here is the pipeline you asked for today\nx = 1"
        assert self._classify(code) == "stray_prose"

    def test_non_prose_failure_is_truncated_code(self):
        # the old implementation's dead fallthrough returned stray_prose
        # for everything; a half-written statement is truncation
        assert self._classify("def broken(:\n    pass") == "truncated_code"

    def test_markdown_fence(self):
        assert self._classify("```python\nx = 1\n```") == "markdown_fence"

    def test_indentation(self):
        assert self._classify("def f():\nreturn 1") in (
            "broken_indentation", "truncated_code",
        )
        assert self._classify("def f():\n        x = 1\n      y = 2") == (
            "broken_indentation"
        )

    def test_mid_statement_truncation(self):
        code = "def run_pipeline(train, test):\n    model = Ridge("
        assert self._classify(code) == "truncated_code"

    def test_analyze_source_reports_syntax_error(self):
        report = analyze_source("```python\nx = 1")
        assert report.syntax_error
        error = report.first_error()
        assert error is not None and error.error_type.name == "markdown_fence"


class TestPipelineRules:
    def test_entry_point_missing(self):
        report = analyze_source("x = 1\n")
        assert any(
            f.rule_id == "entry-point" and f.error_type == "truncated_code"
            for f in report.errors()
        )

    def test_entry_point_wrong_arity(self):
        assert "entry-point" in _error_rules("def run_pipeline(train):\n    pass\n")

    def test_entry_point_ok(self):
        assert "entry-point" not in _error_rules(PIPELINE_STUB)

    def test_missing_import_known_symbol(self):
        code = "def run_pipeline(train, test):\n    return np.mean([1.0])\n"
        report = analyze_source(code)
        assert any(
            f.rule_id == "missing-import" and f.error_type == "missing_import"
            for f in report.errors()
        )

    def test_unknown_name_stays_runtime(self):
        # arbitrary undefined identifiers are runtime NameErrors (RE),
        # not static missing-imports — the paper's SE-vs-RE split
        code = "def run_pipeline(train, test):\n    return vectoriser.fit(train)\n"
        assert "missing-import" not in _error_rules(code)

    def test_missing_import_satisfied_by_import(self):
        code = "import numpy as np" + PIPELINE_STUB
        assert "missing-import" not in _error_rules(code)

    def test_global_import_in_helper_is_not_missing(self):
        # the helper binds np at module scope through its global
        # declaration; the pipeline runs cleanly
        report = analyze_source(GLOBAL_IMPORT_PIPELINE)
        assert report.ok, report.findings

    @pytest.mark.parametrize("snippet,error_type", [
        ("eval('1 + 1')", "wrong_api"),
        ("open('/data/file.csv')", "missing_data_file"),
        ("import os\nos.system('ls')", "wrong_api"),
        ("import os\nos.environ['HOME']", "env_variable"),
        ("import os\nos.getenv('HOME')", "env_variable"),
        ("import subprocess", "wrong_api"),
        ("import urllib.request", "wrong_api"),
    ])
    def test_banned_api_positive(self, snippet, error_type):
        code = snippet + PIPELINE_STUB
        report = analyze_source(code)
        matches = [f for f in report.errors() if f.rule_id == "banned-api"]
        assert matches and matches[0].error_type == error_type

    def test_banned_api_negative(self):
        code = "import numpy as np\nimport os.path" + PIPELINE_STUB
        assert "banned-api" not in _error_rules(code)

    def test_leakage_fit_on_test(self):
        code = (
            "def run_pipeline(train, test):\n"
            "    vec = TableVectorizer()\n"
            "    vec.fit(test)\n"
            "    return {}\n"
        )
        report = analyze_source(code)
        assert any(
            f.rule_id == "data-leakage" and f.error_type == "task_mismatch"
            for f in report.errors()
        )

    def test_leakage_fit_on_concatenated_split(self):
        code = (
            "import numpy as np\n"
            "def run_pipeline(train, test):\n"
            "    full = np.concatenate([train, test])\n"
            "    scaler = StandardScaler()\n"
            "    scaler.fit(full)\n"
            "    return {}\n"
        )
        assert "data-leakage" in _error_rules(code)

    def test_leakage_target_in_features(self):
        code = (
            "TARGET = 'label'\n"
            "FEATURES = ['x1', 'label']\n"
        ) + PIPELINE_STUB
        assert "data-leakage" in _error_rules(code)

    def test_leakage_negative_fit_on_train(self):
        code = (
            "TARGET = 'label'\n"
            "FEATURES = ['x1', 'x2']\n"
            "def run_pipeline(train, test):\n"
            "    vec = TableVectorizer()\n"
            "    vec.fit_transform(train)\n"
            "    vec.transform(test)\n"
            "    return {}\n"
        )
        assert "data-leakage" not in _error_rules(code)

    def test_nondeterminism_global_rng_warns(self):
        code = (
            "import numpy as np\n"
            "import random\n"
            "def run_pipeline(train, test):\n"
            "    noise = np.random.rand(10)\n"
            "    pick = random.choice([1, 2])\n"
            "    rng = np.random.default_rng()\n"
            "    return {}\n"
        )
        report = analyze_source(code)
        warnings = [f for f in report.warnings() if f.rule_id == "nondeterminism"]
        assert len(warnings) == 3
        # warnings never gate: the report is still statically clean
        assert report.ok

    def test_nondeterminism_random_state_none(self):
        code = (
            "from repro.ml import RandomForestClassifier\n"
            "def run_pipeline(train, test):\n"
            "    model = RandomForestClassifier(random_state=None)\n"
            "    return {}\n"
        )
        report = analyze_source(code)
        assert any(f.rule_id == "nondeterminism" for f in report.warnings())

    def test_nondeterminism_negative_seeded(self):
        code = (
            "import numpy as np\n"
            "from repro.ml import RandomForestClassifier\n"
            "def run_pipeline(train, test):\n"
            "    rng = np.random.default_rng(0)\n"
            "    model = RandomForestClassifier(random_state=0)\n"
            "    return {}\n"
        )
        assert not analyze_source(code).findings

    def test_signature_unexpected_keyword(self):
        code = (
            "from repro.ml import Ridge\n"
            "def run_pipeline(train, test):\n"
            "    model = Ridge(wrongness=3)\n"
            "    return {}\n"
        )
        report = analyze_source(code)
        matches = [f for f in report.errors() if f.rule_id == "signature"]
        assert matches and matches[0].error_type == "wrong_api"
        assert "wrongness" in matches[0].message

    def test_signature_missing_method(self):
        code = (
            "from repro.ml import Ridge\n"
            "def run_pipeline(train, test):\n"
            "    model = Ridge()\n"
            "    model.run_inference(test)\n"
            "    return {}\n"
        )
        assert "signature" in _error_rules(code)

    def test_signature_guarded_call_suppressed(self):
        # generated pipelines probe predict_proba inside try/except
        # (AttributeError, ValueError) — runtime-guarded, not a finding
        code = (
            "from repro.ml import Ridge\n"
            "def run_pipeline(train, test):\n"
            "    model = Ridge()\n"
            "    try:\n"
            "        model.predict_proba(test)\n"
            "    except (AttributeError, ValueError):\n"
            "        pass\n"
            "    return {}\n"
        )
        assert "signature" not in _error_rules(code)

    def test_signature_contextlib_suppress_guards(self):
        # with contextlib.suppress(AttributeError): is the same runtime
        # guard as try/except AttributeError
        code = (
            "import contextlib\n"
            "from repro.ml import Ridge\n"
            "def run_pipeline(train, test):\n"
            "    model = Ridge()\n"
            "    with contextlib.suppress(AttributeError):\n"
            "        model.predict_proba(test)\n"
            "    return {}\n"
        )
        assert "signature" not in _error_rules(code)

    def test_signature_suppress_unrelated_exception_no_guard(self):
        # suppressing an unrelated exception does not excuse the call
        code = (
            "import contextlib\n"
            "from repro.ml import Ridge\n"
            "def run_pipeline(train, test):\n"
            "    model = Ridge()\n"
            "    with contextlib.suppress(ZeroDivisionError):\n"
            "        model.run_inference(test)\n"
            "    return {}\n"
        )
        assert "signature" in _error_rules(code)

    def test_signature_negative_valid_call(self):
        code = (
            "from repro.ml import Ridge\n"
            "def run_pipeline(train, test):\n"
            "    model = Ridge(alpha=1.0)\n"
            "    model.fit(train, test)\n"
            "    return {}\n"
        )
        assert "signature" not in _error_rules(code)

    def test_rule_config_disable_and_severity(self):
        code = "def run_pipeline(train):\n    pass\n"
        config = RuleConfig(enabled={"entry-point": False})
        assert not analyze_source(code, config=config).findings
        config = RuleConfig(severities={"entry-point": Severity.WARNING})
        report = analyze_source(code, config=config)
        assert not report.errors() and report.warnings()

    def test_profiles_registered(self):
        assert set(PROFILES) == {"pipeline", "repo"}


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
    }, name="static")
    labels = [str(v) for v in t["label"]]
    train, test = train_test_split(t, test_size=0.3, random_state=0, stratify=labels)
    catalog = profile_table(t, target="label", task_type="binary")
    return train, test, catalog


class TestGeneratedCorpus:
    def test_clean_generations_have_zero_error_findings(self, generation_setup):
        train, test, catalog = generation_setup
        for model in ("gpt-4o", "gemini-1.5", "llama3.1-70b"):
            for seed in range(3):
                llm = MockLLM(model, seed=seed, fault_injection=False)
                report = CatDB(llm).generate(train, test, catalog)
                assert report.success
                analysis = analyze_source(report.code)
                assert analysis.errors() == [], (model, seed)
                assert report.static_exec_skipped == 0

    def test_every_se_injector_caught_without_executing(self, generation_setup):
        train, test, catalog = generation_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        clean = CatDB(llm).generate(train, test, catalog).code
        se_faults = {
            "markdown_fence", "stray_prose", "broken_indentation",
            "unclosed_bracket", "missing_import", "truncated_code",
        }
        for name in se_faults:
            dirty = faults._INJECTORS[name](clean, 3)
            report = analyze_source(dirty)
            error = report.first_error()
            assert error is not None, name
            assert error.group.value == "SE", name

    def test_semantic_injectors_caught(self, generation_setup):
        train, test, catalog = generation_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        clean = CatDB(llm).generate(train, test, catalog).code
        for name, expected in [
            ("wrong_api", "wrong_api"),
            ("missing_data_file", "missing_data_file"),
            ("env_variable", "env_variable"),
        ]:
            dirty = faults._INJECTORS[name](clean, 3)
            error = analyze_source(dirty).first_error()
            assert error is not None and error.error_type.name == expected, name

    def test_kb_package_faults_stay_runtime(self, generation_setup):
        # `import xgboost` must NOT be a static finding: it is a runtime
        # ModuleNotFoundError the knowledge base patches after execution
        train, test, catalog = generation_setup
        llm = MockLLM("gpt-4o", fault_injection=False)
        clean = CatDB(llm).generate(train, test, catalog).code
        for name in ("missing_package", "package_version"):
            dirty = faults._INJECTORS[name](clean, 3)
            assert analyze_source(dirty).ok, name


class _DirtyLLM(LLMClient):
    """Always returns statically-dirty code (missing import of np)."""

    DIRTY = (
        "def run_pipeline(train, test):\n"
        "    return {'train_accuracy': float(np.mean([1.0]))}\n"
    )

    def __init__(self) -> None:
        self.model = "dirty-stub"
        self.calls = 0

    def complete(self, prompt, **kwargs):
        self.calls += 1
        return LLMResponse(
            content=f"<CODE>{self.DIRTY}</CODE>",
            prompt_tokens=10, completion_tokens=10, model=self.model,
        )


class TestExecSkipAudit:
    def test_dirty_code_never_reaches_executor(
        self, generation_setup, monkeypatch
    ):
        train, test, catalog = generation_setup
        executed: list[str] = []
        import repro.generation.generator as generator_module

        real_execute = generator_module.execute_pipeline_code

        def recording_execute(code, *args, **kwargs):
            executed.append(code)
            return real_execute(code, *args, **kwargs)

        monkeypatch.setattr(
            generator_module, "execute_pipeline_code", recording_execute
        )
        llm = _DirtyLLM()
        # static_fix off: this audit pins the pure gate-and-regenerate
        # path (with the fix tier on, the missing import is simply fixed
        # — covered by test_static_fix_repairs_dirty_code below)
        gen = CatDB(llm, max_fix_attempts=3, static_fix=False)
        report = gen.generate(train, test, catalog)
        # every dirty candidate was gated statically: zero executions of
        # the dirty code, one exec skip per inspection
        assert all(_DirtyLLM.DIRTY.strip() not in code for code in executed)
        assert report.static_exec_skipped >= gen.max_fix_attempts
        # the run still ends well via the deterministic fallback
        assert report.fallback_used and report.success

    def test_static_fix_repairs_dirty_code(self, generation_setup, monkeypatch):
        train, test, catalog = generation_setup
        executed: list[str] = []
        import repro.generation.generator as generator_module

        real_execute = generator_module.execute_pipeline_code

        def recording_execute(code, *args, **kwargs):
            executed.append(code)
            return real_execute(code, *args, **kwargs)

        monkeypatch.setattr(
            generator_module, "execute_pipeline_code", recording_execute
        )
        llm = _DirtyLLM()
        gen = CatDB(llm, max_fix_attempts=3)
        report = gen.generate(train, test, catalog)
        # the deterministic tier inserted the missing import: one static
        # fix, no LLM repair round-trip, and the repaired code executed
        assert report.static_fixes >= 1
        assert report.llm_fixes_avoided >= 1
        assert report.static_fix_types.get("missing_import", 0) >= 1
        assert report.llm_fixes == 0
        assert not report.fallback_used and report.success
        assert any("import numpy as np" in code for code in executed)
        # the raw dirty code itself still never executed
        assert all(
            "import numpy as np" in code
            for code in executed
            if _DirtyLLM.DIRTY.strip() in code
        )

    def test_static_gate_off_reproduces_execute_path(
        self, generation_setup, monkeypatch
    ):
        train, test, catalog = generation_setup
        executed: list[str] = []
        import repro.generation.generator as generator_module

        real_execute = generator_module.execute_pipeline_code

        def recording_execute(code, *args, **kwargs):
            executed.append(code)
            return real_execute(code, *args, **kwargs)

        monkeypatch.setattr(
            generator_module, "execute_pipeline_code", recording_execute
        )
        gen = CatDB(_DirtyLLM(), max_fix_attempts=1, static_gate=False)
        report = gen.generate(train, test, catalog)
        assert any(_DirtyLLM.DIRTY.strip() in code for code in executed)
        assert report.static_exec_skipped == 0

    def test_metrics_counters(self, generation_setup):
        train, test, catalog = generation_setup
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            gen = CatDB(_DirtyLLM(), max_fix_attempts=2, static_fix=False)
            gen.generate(train, test, catalog)
        finally:
            set_metrics(previous)
        assert registry.counter_value("static.exec_skipped") >= 2
        assert registry.counter_value(
            "static.findings", rule="missing-import"
        ) >= 2

    def test_static_fix_metrics_counters(self, generation_setup):
        train, test, catalog = generation_setup
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            gen = CatDB(_DirtyLLM(), max_fix_attempts=3)
            gen.generate(train, test, catalog)
        finally:
            set_metrics(previous)
        assert registry.counter_value(
            "repair.static_fixes", type="missing_import"
        ) >= 1
        assert registry.counter_value("repair.llm_fixes_avoided") >= 1

    def test_static_gate_keeps_clean_runs_bit_identical(self, generation_setup):
        train, test, catalog = generation_setup
        on = CatDB(MockLLM("gpt-4o", fault_injection=False))
        off = CatDB(MockLLM("gpt-4o", fault_injection=False), static_gate=False)
        assert (
            on.generate(train, test, catalog).code
            == off.generate(train, test, catalog).code
        )


BUGGY_BREAKER = '''
import threading

class Breaker:
    def __init__(self):
        self._lock = threading.Lock()
        self._failures = 0

    def failure_rate(self):
        with self._lock:
            return self._failures / 10

    def before_call(self):
        with self._lock:
            if self.failure_rate() > 0.5:
                raise RuntimeError("open")
'''


class TestRepoProfile:
    def test_breaker_reentry_flagged(self):
        report = analyze_source(BUGGY_BREAKER, profile="repo")
        matches = [f for f in report.errors() if f.rule_id == "lock-reentry"]
        assert matches and "failure_rate" in matches[0].message

    def test_locked_helper_pattern_clean(self):
        fixed = BUGGY_BREAKER.replace(
            "self.failure_rate()", "self._failure_rate_locked()"
        ) + (
            "\n    def _failure_rate_locked(self):\n"
            "        return self._failures / 10\n"
        )
        assert analyze_source(fixed, profile="repo").ok

    def test_rlock_not_flagged(self):
        code = BUGGY_BREAKER.replace("threading.Lock()", "threading.RLock()")
        assert analyze_source(code, profile="repo").ok

    def test_unseeded_random_flagged(self):
        code = "import numpy as np\nnoise = np.random.rand(5)\n"
        assert "unseeded-random" in _error_rules(code, profile="repo")
        seeded = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert analyze_source(seeded, profile="repo").ok

    @pytest.mark.parametrize("name", sorted(STDLIB_GLOBAL_RNG_FNS))
    def test_both_rng_rules_flag_every_stdlib_global(self, name):
        # one table feeds both profiles: a name one rule misses would let
        # global draws through the other's gate (the sets had drifted)
        for code in (f"import random\nx = random.{name}()\n",
                     f"from random import {name}\nx = {name}()\n"):
            repo = analyze_source(code, profile="repo").errors()
            assert [f.message for f in repo] == [
                f"stdlib global RNG call 'random.{name}' "
                "(thread a seeded Generator instead)"
            ]
            pipeline = [f for f in analyze_source(code).warnings()
                        if f.rule_id == "nondeterminism"]
            assert [f.message for f in pipeline] == [
                f"call to stdlib global RNG 'random.{name}' "
                "(unseeded; results will not reproduce)"
            ]

    def test_rng_state_save_restore_not_flagged(self):
        code = "import random\nstate = random.getstate()\nrandom.setstate(state)\n"
        assert analyze_source(code, profile="repo").ok

    def test_wall_clock_warns(self):
        code = "import time\nstamp = time.time()\n"
        report = analyze_source(code, profile="repo")
        assert any(f.rule_id == "wall-clock" for f in report.warnings())
        # monotonic timers are the sanctioned alternative
        ok = "import time\nstart = time.monotonic()\nd = time.perf_counter()\n"
        assert not analyze_source(ok, profile="repo").findings

    def test_per_row_iteration_flagged(self):
        code = (
            "def f(table):\n"
            "    out = []\n"
            "    for i in range(table.n_rows):\n"
            "        out.append(table.row(i))\n"
            "    return out\n"
        )
        report = analyze_source(code, profile="repo")
        assert any(
            f.rule_id == "per-row-iteration" for f in report.warnings()
        )

    def test_per_row_len_subscript_flagged(self):
        code = (
            "def f(values):\n"
            "    total = 0\n"
            "    for i in range(len(values)):\n"
            "        total += values[i]\n"
            "    return total\n"
        )
        report = analyze_source(code, profile="repo")
        assert any(
            f.rule_id == "per-row-iteration" for f in report.warnings()
        )

    def test_per_row_len_without_subscript_clean(self):
        code = (
            "def f(values):\n"
            "    for i in range(len(values)):\n"
            "        print(i)\n"
        )
        report = analyze_source(code, profile="repo")
        assert not any(
            f.rule_id == "per-row-iteration" for f in report.findings
        )

    def test_per_row_pragma_suppresses(self):
        code = (
            "def f(table):\n"
            "    for i in range(table.n_rows):  # repro: allow-per-row\n"
            "        table.row(i)\n"
        )
        report = analyze_source(code, profile="repo")
        assert not any(
            f.rule_id == "per-row-iteration" for f in report.findings
        )

    def test_src_repro_lints_clean(self):
        reports = lint_paths(["src/repro"], profile="repo")
        errors = [f for r in reports for f in r.errors()]
        assert errors == [], [f.render() for f in errors]


class TestLintCli:
    def test_lint_src_repro_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "src/repro", "--profile", "repo"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BUGGY_BREAKER)
        from repro.cli import main

        assert main(["lint", str(tmp_path), "--profile", "repo"]) == 1
        assert "lock-reentry" in capsys.readouterr().out

    def test_lint_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        from repro.cli import main

        assert main([
            "lint", str(tmp_path), "--profile", "repo", "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["findings"][0]["rule_id"] == "unseeded-random"

    def test_lint_no_files(self, tmp_path):
        from repro.cli import main

        assert main(["lint", str(tmp_path)]) == 2


def test_parse_source_is_safe_across_threads():
    # a gc callback runs Python code inside collections, which lets the
    # interpreter switch threads in the middle of an AST conversion
    source = "\n".join(
        f"def f{i}(a, b):\n    return [x + {i} for x in (a, b) if x]"
        for i in range(300)
    )
    errors: list[SystemError] = []

    def on_collect(phase, info):
        sum(range(50))

    def parse_repeatedly():
        try:
            for _ in range(10):
                parse_source(source)
        except SystemError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=parse_repeatedly) for _ in range(4)]
    interval = sys.getswitchinterval()
    gc.callbacks.append(on_collect)
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        gc.callbacks.remove(on_collect)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
