"""Tests for the flow-sensitive layer: CFG construction, reaching
definitions / definite assignment (use-before-def), the provenance-taint
lattice behind the alias-aware leakage rule, and the catalog-grounded
schema rules.

The alias corpus at the bottom pins the cases the old name-substring
heuristic could not see (renamed parameters, aliases, branch- and
loop-carried provenance, split unpacking).
"""

import ast

import numpy as np
import pytest

from repro.analysis import analyze_source
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import Taint, analyze_dataflow
from repro.catalog.profiler import profile_table
from repro.table.table import Table


def _cfg_of(code: str):
    return build_cfg(ast.parse(code).body)


def _flow(code: str):
    return analyze_dataflow(ast.parse(code))


def _scope(flow, name):
    return next(s for s in flow.scopes if s.name == name)


def _error_rules(code: str, catalog=None) -> set[str]:
    report = analyze_source(code, catalog=catalog)
    return {f.rule_id for f in report.errors()}


def _all_rules(code: str, catalog=None) -> set[str]:
    report = analyze_source(code, catalog=catalog)
    return {f.rule_id for f in report.findings}


class TestCFGConstruction:
    def test_straight_line(self):
        cfg = _cfg_of("a = 1\nb = a\n")
        kinds = [n.kind for n in cfg]
        assert kinds.count("stmt") == 2
        assert cfg.exit.index in cfg.reachable()

    def test_if_merges(self):
        cfg = _cfg_of("if c:\n    x = 1\nelse:\n    x = 2\ny = x\n")
        test = next(n for n in cfg if n.kind == "test")
        assert len(test.succs) == 2

    def test_while_else_edges(self):
        cfg = _cfg_of(
            "while c:\n    body()\nelse:\n    done()\nafter()\n"
        )
        head = next(n for n in cfg if n.kind == "test")
        body = next(
            n for n in cfg
            if n.kind == "stmt" and "body" in ast.dump(n.stmt)
        )
        done = next(
            n for n in cfg
            if n.kind == "stmt" and "done" in ast.dump(n.stmt)
        )
        # back edge, and the else clause hangs off the loop head
        assert head.index in cfg.nodes[body.index].succs
        assert done.index in head.succs

    def test_while_break_skips_else(self):
        cfg = _cfg_of(
            "while c:\n    break\nelse:\n    done()\nafter()\n"
        )
        brk = next(
            n for n in cfg
            if n.kind == "stmt" and isinstance(n.stmt, ast.Break)
        )
        after = next(
            n for n in cfg
            if n.kind == "stmt" and "after" in ast.dump(n.stmt)
        )
        assert after.index in brk.succs

    def test_try_body_reaches_each_handler(self):
        cfg = _cfg_of(
            "try:\n    a = f()\n    b = g()\n"
            "except ValueError:\n    h1()\n"
            "except KeyError:\n    h2()\n"
        )
        handlers = [n for n in cfg if n.kind == "except"]
        assert len(handlers) == 2
        stmts = [
            n for n in cfg
            if n.kind == "stmt" and isinstance(n.stmt, ast.Assign)
        ]
        for handler in handlers:
            for stmt in stmts:
                assert handler.index in stmt.succs
            # pre-try state can also raise straight into the handler
            assert cfg.entry.index in cfg.nodes[handler.index].preds

    def test_nested_try_finally(self):
        cfg = _cfg_of(
            "try:\n"
            "    try:\n"
            "        x = f()\n"
            "    finally:\n"
            "        inner()\n"
            "except Exception:\n"
            "    outer()\n"
            "tail()\n"
        )
        # the finally body sits on the normal path to the tail, and the
        # outer handler is reachable from inside the inner try
        tail = next(
            n for n in cfg
            if n.kind == "stmt" and "tail" in ast.dump(n.stmt)
        )
        inner = next(
            n for n in cfg
            if n.kind == "stmt" and "inner" in ast.dump(n.stmt)
        )
        handler = next(n for n in cfg if n.kind == "except")
        assert tail.index in cfg.reachable()
        assert tail.index in inner.succs
        assign = next(
            n for n in cfg
            if n.kind == "stmt" and isinstance(n.stmt, ast.Assign)
        )
        assert handler.index in assign.succs

    def test_match_without_wildcard_falls_through(self):
        cfg = _cfg_of(
            "match p:\n"
            "    case 1:\n        a()\n"
            "    case 2:\n        b()\n"
            "after()\n"
        )
        subject = next(n for n in cfg if n.kind == "test")
        after = next(
            n for n in cfg
            if n.kind == "stmt" and "after" in ast.dump(n.stmt)
        )
        assert after.index in subject.succs  # no case may match

    def test_match_wildcard_is_complete(self):
        cfg = _cfg_of(
            "match p:\n"
            "    case 1:\n        a()\n"
            "    case _:\n        b()\n"
            "after()\n"
        )
        subject = next(n for n in cfg if n.kind == "test")
        after = next(
            n for n in cfg
            if n.kind == "stmt" and "after" in ast.dump(n.stmt)
        )
        # the wildcard case guarantees one arm runs
        assert after.index not in subject.succs

    def test_with_binds_item(self):
        cfg = _cfg_of("with open(p) as fh:\n    fh.read()\n")
        item = next(n for n in cfg if n.kind == "withitem")
        assert isinstance(item.binds, ast.Name) and item.binds.id == "fh"

    def test_return_ends_flow(self):
        cfg = build_cfg(
            ast.parse(
                "def f():\n    return 1\n    dead()\n"
            ).body[0].body,
            "f",
        )
        dead = [
            n for n in cfg
            if n.kind == "stmt" and n.stmt is not None
            and "dead" in ast.dump(n.stmt)
        ]
        assert not dead  # unreachable tail is not even materialized

    def test_one_cfg_per_function_scope(self):
        tree = ast.parse(
            "def f():\n    pass\n\nclass C:\n    def m(self):\n        pass\n"
        )
        names = [scope.cfg.name for scope in analyze_dataflow(tree).scopes]
        assert names == ["<module>", "f", "m"]


class TestUseBeforeDef:
    def test_definite(self):
        flow = _flow("print(x)\nx = 1\n")
        (ubd,) = flow.use_before_def
        assert ubd.name == "x" and ubd.definite

    def test_branch_dependent_is_maybe(self):
        flow = _flow("if c:\n    x = 1\nprint(x)\nc = 1\n")
        ubd = next(u for u in flow.use_before_def if u.name == "x")
        assert not ubd.definite

    def test_both_branches_bind_is_clean(self):
        flow = _flow(
            "c = 1\nif c:\n    x = 1\nelse:\n    x = 2\nprint(x)\n"
        )
        assert not [u for u in flow.use_before_def if u.name == "x"]

    def test_try_finally_stays_precise(self):
        # no handlers: the finally body always runs after the full try
        # body, so x IS definitely assigned — no spurious maybe-finding
        flow = _flow(
            "try:\n    x = f()\nfinally:\n    print(x)\nf = None\n"
        )
        assert not [u for u in flow.use_before_def if u.name == "x"]

    def test_except_path_is_maybe(self):
        flow = _flow(
            "try:\n    x = f()\nexcept Exception:\n    pass\n"
            "print(x)\nf = None\n"
        )
        ubd = next(u for u in flow.use_before_def if u.name == "x")
        assert not ubd.definite

    def test_loop_carried_binding_is_maybe(self):
        flow = _flow("for i in rng:\n    print(total)\n    total = i\nrng = []\n")
        ubd = next(u for u in flow.use_before_def if u.name == "total")
        assert not ubd.definite

    def test_foreign_names_not_candidates(self):
        # a name never bound in the scope is a runtime NameError (or a
        # global), not a flow finding
        flow = _flow("print(undefined_thing)\n")
        assert not flow.use_before_def

    def test_walrus_is_a_binding(self):
        flow = _flow("if (n := 3) > 2:\n    print(n)\n")
        assert not flow.use_before_def

    def test_rule_severity_split(self):
        definite = (
            "def run_pipeline(train, test):\n"
            "    model.fit(train)\n"
            "    model = object()\n"
            "    return {}\n"
        )
        report = analyze_source(definite)
        assert "use-before-def" in {f.rule_id for f in report.errors()}
        maybe = (
            "def run_pipeline(train, test):\n"
            "    if len(train) > 1:\n"
            "        model = object()\n"
            "    model.fit(train)\n"
            "    return {}\n"
        )
        report = analyze_source(maybe)
        assert "branch-use-before-def" in {f.rule_id for f in report.warnings()}


class TestTaintLattice:
    def test_join_is_or(self):
        assert Taint.TRAIN | Taint.TEST is Taint.WHOLE
        assert (Taint.UNKNOWN | Taint.TRAIN) is Taint.TRAIN

    def test_run_pipeline_positional_seeding(self):
        flow = _flow(
            "def run_pipeline(a_split, b_split):\n"
            "    m = object()\n"
            "    m.fit(b_split)\n"
        )
        (fit,) = flow.fit_calls
        assert fit.worst() is Taint.TEST

    def test_concat_makes_whole(self):
        flow = _flow(
            "def run_pipeline(train, test):\n"
            "    full = concat(train, test)\n"
            "    scaler.fit(full)\n"
            "    scaler = object()\n"
            "    concat = None\n"
        )
        fit = next(f for f in flow.fit_calls)
        assert fit.worst() is Taint.WHOLE

    def test_split_unpack_provenance(self):
        flow = _flow(
            "a, b = train_test_split(data)\n"
            "m.fit(b)\n"
        )
        (fit,) = flow.fit_calls
        assert fit.worst() is Taint.TEST

    def test_subscript_weak_update(self):
        # writing a test-derived column into train makes train suspect
        flow = _flow(
            "def run_pipeline(train, test):\n"
            "    train['leak'] = test['y']\n"
            "    m.fit(train)\n"
        )
        (fit,) = flow.fit_calls
        assert fit.worst() is Taint.WHOLE

    def test_subscript_taints_recorded(self):
        flow = _flow(
            "def run_pipeline(train, test):\n"
            "    x = train['col']\n"
        )
        assert Taint.TRAIN in flow.subscript_taints.values()


#: alias/branch leakage shapes invisible to a name-substring heuristic:
#: none of the fitted expressions contains "test" in its name
_ALIAS_LEAKS = {
    "renamed-params": (
        "def run_pipeline(tr_part, holdout):\n"
        "    scaler = object()\n"
        "    scaler.fit(holdout)\n"
        "    return {}\n"
    ),
    "simple-alias": (
        "def run_pipeline(train, test):\n"
        "    eval_df = test\n"
        "    scaler = object()\n"
        "    scaler.fit(eval_df)\n"
        "    return {}\n"
    ),
    "two-level-alias": (
        "def run_pipeline(train, test):\n"
        "    a = test\n"
        "    b = a\n"
        "    scaler = object()\n"
        "    scaler.fit(b)\n"
        "    return {}\n"
    ),
    "branch-alias": (
        "def run_pipeline(train, test):\n"
        "    data = train\n"
        "    if len(test) > 10:\n"
        "        data = test\n"
        "    scaler = object()\n"
        "    scaler.fit(data)\n"
        "    return {}\n"
    ),
    "split-unpack": (
        "def run_pipeline(train, test):\n"
        "    a, b = train_test_split(train)\n"
        "    merged = concat(a, b, test)\n"
        "    scaler = object()\n"
        "    scaler.fit(merged)\n"
        "    concat = None\n"
        "    return {}\n"
    ),
    "loop-carried": (
        "def run_pipeline(train, test):\n"
        "    acc = train\n"
        "    for part in (train, test):\n"
        "        acc = combine(acc, part)\n"
        "    scaler = object()\n"
        "    scaler.fit(acc)\n"
        "    combine = None\n"
        "    return {}\n"
    ),
}


class TestAliasLeakageCorpus:
    @pytest.mark.parametrize("name", sorted(_ALIAS_LEAKS))
    def test_alias_case_flagged(self, name):
        assert "data-leakage" in _error_rules(_ALIAS_LEAKS[name]), name

    @pytest.mark.parametrize("name", sorted(_ALIAS_LEAKS))
    def test_alias_case_misses_name_heuristic(self, name):
        # the fitted argument never carries a test-ish *name*: confirm
        # each case is invisible to a substring check on the call text
        code = _ALIAS_LEAKS[name]
        tree = ast.parse(code)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fit"
            ):
                for arg in node.args:
                    assert not any(
                        "test" in n.id.lower()
                        for n in ast.walk(arg)
                        if isinstance(n, ast.Name)
                    ), name

    def test_fit_on_train_alias_is_clean(self):
        clean = (
            "def run_pipeline(train, test):\n"
            "    X = train\n"
            "    scaler = object()\n"
            "    scaler.fit(X)\n"
            "    return {}\n"
        )
        assert "data-leakage" not in _all_rules(clean)

    def test_transform_on_test_is_clean(self):
        clean = (
            "def run_pipeline(train, test):\n"
            "    scaler = object()\n"
            "    scaler.fit(train)\n"
            "    out = scaler.transform(test)\n"
            "    return {}\n"
        )
        assert "data-leakage" not in _all_rules(clean)


@pytest.fixture(scope="module")
def schema_catalog():
    rng = np.random.default_rng(0)
    n = 60
    t = Table.from_dict({
        "age": rng.integers(18, 80, size=n).astype(float),
        "city": np.where(rng.normal(size=n) > 0, "north", "south"),
        "income": rng.normal(50_000, 10_000, size=n),
        "label": np.where(rng.normal(size=n) > 0, "yes", "no"),
    }, name="schema")
    return profile_table(t, target="label", task_type="binary")


class TestSchemaRules:
    def test_unknown_column_flagged_with_suggestion(self, schema_catalog):
        code = (
            "def run_pipeline(train, test):\n"
            "    x = train['agee']\n"
            "    return {}\n"
        )
        report = analyze_source(code, catalog=schema_catalog)
        finding = next(
            f for f in report.errors() if f.rule_id == "schema-column"
        )
        assert "did you mean 'age'" in finding.message

    def test_features_entry_checked(self, schema_catalog):
        code = (
            "FEATURES = ['age', 'cityy']\n"
            "def run_pipeline(train, test):\n"
            "    return {}\n"
        )
        assert "schema-column" in _error_rules(code, schema_catalog)

    def test_locally_created_column_ok(self, schema_catalog):
        code = (
            "def run_pipeline(train, test):\n"
            "    train['derived'] = train['age']\n"
            "    x = train['derived']\n"
            "    return {}\n"
        )
        assert "schema-column" not in _all_rules(code, schema_catalog)

    def test_plain_dict_subscripts_ignored(self, schema_catalog):
        code = (
            "def run_pipeline(train, test):\n"
            "    metrics = {'train_accuracy': 1.0}\n"
            "    return metrics['train_accuracy']\n"
        )
        assert "schema-column" not in _all_rules(code, schema_catalog)

    def test_untainted_subscripts_ignored(self, schema_catalog):
        code = "conf = load()\nx = conf['not_a_column']\nload = None\n"
        assert "schema-column" not in _all_rules(code, schema_catalog)

    def test_target_in_features_flagged(self, schema_catalog):
        code = (
            "FEATURES = ['age', 'label']\n"
            "def run_pipeline(train, test):\n"
            "    return {}\n"
        )
        report = analyze_source(code, catalog=schema_catalog)
        assert any(
            f.rule_id == "schema-target" and f.error_type == "task_mismatch"
            for f in report.errors()
        )

    def test_bogus_target_constant_flagged(self, schema_catalog):
        code = "TARGET = 'labl'\n"
        report = analyze_source(code, catalog=schema_catalog)
        finding = next(
            f for f in report.errors() if f.rule_id == "schema-target"
        )
        assert "did you mean 'label'" in finding.message

    def test_string_column_arithmetic_flagged(self, schema_catalog):
        code = (
            "def run_pipeline(train, test):\n"
            "    x = train['city'] * 2\n"
            "    return {}\n"
        )
        assert "schema-dtype" in _error_rules(code, schema_catalog)

    def test_numeric_column_vs_string_constant(self, schema_catalog):
        code = (
            "def run_pipeline(train, test):\n"
            "    mask = train['age'] > 'old'\n"
            "    return {}\n"
        )
        assert "schema-dtype" in _error_rules(code, schema_catalog)

    def test_compatible_ops_clean(self, schema_catalog):
        code = (
            "def run_pipeline(train, test):\n"
            "    x = train['income'] / 1000\n"
            "    mask = train['age'] > 40\n"
            "    keep = train['city'] == 'north'\n"
            "    return {}\n"
        )
        assert not _error_rules(code, schema_catalog)

    def test_no_catalog_no_findings(self):
        code = (
            "def run_pipeline(train, test):\n"
            "    x = train['whatever'] * 2\n"
            "    return {}\n"
        )
        rules = _all_rules(code)
        assert not rules & {"schema-column", "schema-target", "schema-dtype"}


class TestAnalyzerPerformance:
    def test_flow_sensitive_pass_is_fast(self, schema_catalog):
        # the CI micro-benchmark gates the p50; this is the coarse local
        # guard — a representative pipeline must analyze well under the
        # 15 ms budget even with the catalog rules on
        import time

        code = (
            "import numpy as np\n"
            "FEATURES = ['age', 'city', 'income']\n"
            "TARGET = 'label'\n"
            "def run_pipeline(train, test):\n"
            "    tr = train\n"
            "    scaler = Scaler()\n"
            "    scaler.fit(np.asarray(tr['income']))\n"
            "    for col in FEATURES:\n"
            "        pass\n"
            "    if len(test) > 10:\n"
            "        holdout = test\n"
            "    else:\n"
            "        holdout = test\n"
            "    preds = scaler.transform(np.asarray(holdout['income']))\n"
            "    metrics = {'test_accuracy': float(len(preds))}\n"
            "    return metrics\n"
            "class Scaler:\n"
            "    def fit(self, x):\n"
            "        return self\n"
            "    def transform(self, x):\n"
            "        return x\n"
        )
        analyze_source(code, catalog=schema_catalog)  # warm up imports
        start = time.perf_counter()
        rounds = 20
        for _ in range(rounds):
            analyze_source(code, catalog=schema_catalog)
        per_pass_ms = (time.perf_counter() - start) * 1000 / rounds
        assert per_pass_ms < 15, f"{per_pass_ms:.2f} ms per analysis pass"
