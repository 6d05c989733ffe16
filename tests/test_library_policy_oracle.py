"""Oracle: the library policy through the rule engine vs the old line rewriter.

The reference below is the standalone import walk and line rewriter the
policy used before it became the ``library-policy`` rule and the
``rewrite-policy-import`` fixer.  Over the simulated LLM's pipelines,
every fault-injected variant of them, and hand-written cases, the rule
engine path must give the same code and the same remaining violations.
The two exceptions are the rewriter's known defects, which the fixer
repairs: a multi-name ``import`` lost its allowed aliases, and an import
that was the only statement in a block left code that no longer parsed.
There the new code must parse and keep every name the policy allows.
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.rules import AnalysisContext, run_rules
from repro.generation import LibraryPolicy
from repro.generation.errors import ERROR_TYPES
from repro.generation.generator import CatDB, GenerationReport
from repro.llm.codegen import generate_pipeline_code
from repro.llm.faults import inject_fault
from repro.llm.mock import MockLLM
from repro.llm.profiles import get_profile

# ---------------------------------------------------------------------------
# reference: the policy's former standalone implementation
# ---------------------------------------------------------------------------

_REF_REWRITES = {
    "xgboost": "repro.ml",
    "lightgbm": "repro.ml",
    "catboost": "repro.ml",
    "sklearn": "repro.ml",
    "pandas": "repro.table",
}


def _ref_imports_of(code):
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.module, node.lineno))
    return found


def ref_check_imports(code, policy):
    return [
        (module, line) for module, line in _ref_imports_of(code)
        if not policy.permits(module)
    ]


def ref_enforce_policy(code, policy):
    violations = ref_check_imports(code, policy)
    if not violations or not policy.rewrite:
        return code, violations
    lines = code.split("\n")
    remaining = []
    for module, line in violations:
        replacement = _REF_REWRITES.get(module.split(".")[0])
        replacement_ok = replacement is not None and policy.permits(replacement)
        index = line - 1
        if replacement_ok and 0 <= index < len(lines):
            stripped = lines[index].lstrip()
            if stripped.startswith("import "):
                lines[index] = ""
            else:
                lines[index] = lines[index].replace(module, replacement)
        else:
            remaining.append((module, line))
    return "\n".join(lines), remaining


# ---------------------------------------------------------------------------
# the path under test: the generators' rule + fixer loop
# ---------------------------------------------------------------------------


def new_check_imports(code, policy):
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return []
    findings = run_rules(AnalysisContext(code, tree), (policy,))
    return [(f.details["module"], f.line) for f in findings]


def new_enforce_policy(code, policy):
    report = GenerationReport(dataset="d", llm="gpt-4o", variant="catdb")
    generator = CatDB(MockLLM("gpt-4o"), library_policy=policy)
    fixed = generator._enforce_policy(report, code)
    return fixed, [(f.details["module"], f.line) for f in report.library_violations]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

POLICIES = {
    "default": LibraryPolicy(),
    "deny-torch": LibraryPolicy(allowed=None, disallowed=frozenset({"torch"})),
    "no-rewrite": LibraryPolicy(rewrite=False),
    "deny-repro": LibraryPolicy(disallowed=frozenset({"repro"})),
}


def _payload(task_type):
    target_type = "number" if task_type == "regression" else "string"
    schema = [
        {"name": "num", "data_type": "number", "feature_type": "Numerical",
         "missing_percentage": 10.0, "statistics": {"std": 1.0}},
        {"name": "cat", "data_type": "string", "feature_type": "Categorical",
         "distinct_count": 3, "categorical_values": ["a", "b", "c"]},
        {"name": "skills", "data_type": "string", "feature_type": "List",
         "list_delimiter": ","},
        {"name": "free", "data_type": "string", "feature_type": "Sentence"},
        {"name": "y", "data_type": target_type,
         "feature_type": "Numerical" if task_type == "regression" else "Categorical",
         "is_target": True},
    ]
    rules = [
        {"section": "preprocessing", "kind": "impute_missing", "text": "t",
         "params": {"strategy_numeric": "median"}},
        {"section": "preprocessing", "kind": "augment_small", "text": "t",
         "params": {}},
        {"section": "model-selection", "kind": "model_selection", "text": "t",
         "params": {"task_type": task_type}},
    ]
    return {
        "task": "pipeline",
        "dataset": {"name": "d", "task_type": task_type, "target": "y",
                    "n_rows": 200, "n_cols": len(schema)},
        "schema": schema,
        "rules": rules,
        "subtasks": ["preprocessing", "fe-engineering", "model-selection"],
    }


def _corpus():
    corpus = []
    for task_type, profile in (
        ("binary", "gpt-4o"), ("multiclass", "gemini-1.5"),
        ("regression", "llama3.1-70b"),
    ):
        code = generate_pipeline_code(
            _payload(task_type), get_profile(profile), salt=0
        )
        corpus.append(code)
        for error_type in ERROR_TYPES.values():
            for salt in range(3):
                corpus.append(inject_fault(code, error_type, salt=salt))
    return corpus


HAND_CASES = [
    "import numpy as np\nfrom repro.ml import Ridge\n",
    "import numpy\nimport xgboost\n",
    "from sklearn.ensemble import RandomForestClassifier\n",
    "def broken(:",
    "import xgboost\nx = 1\n",
    "from pandas import read_csv\n",
    "import torch\n",
    "import xgboost as xgb\nimport torch.nn as nn\nfrom catboost import CatBoostClassifier\n",
    "def f():\n    from lightgbm import LGBMClassifier\n    return LGBMClassifier\n",
    "import xgboost, lightgbm\n",
]

#: the rewriter's two defects: alias loss and code that no longer parses
DEFECT_CASES = [
    "import numpy as np, xgboost\nx = np.zeros(2)\n",
    "def f():\n    import xgboost\n",
    "try:\n    import lightgbm\nexcept ImportError:\n    pass\n",
]


def _allowed_bindings(code, policy):
    """(module, bound name) of every import the policy permits."""
    bound = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Import):
            bound.update(
                (a.name, a.asname or a.name.split(".")[0])
                for a in node.names if policy.permits(a.name)
            )
        elif isinstance(node, ast.ImportFrom) and node.module:
            if policy.permits(node.module):
                bound.update(
                    (node.module, a.asname or a.name) for a in node.names
                )
    return bound


def _parses(code):
    try:
        ast.parse(code)
    except SyntaxError:
        return False
    return True


def _reference_is_defective(code, ref_code, policy):
    if not _parses(code):
        return False  # nothing to check, nothing rewritten
    if not _parses(ref_code):
        return True
    return not _allowed_bindings(code, policy) <= _allowed_bindings(ref_code, policy)


CORPUS = _corpus() + HAND_CASES + DEFECT_CASES


@pytest.fixture(scope="module", params=sorted(POLICIES))
def outcomes(request):
    """Per corpus entry: (code, reference check, new check,
    reference enforce, new enforce) under one policy."""
    policy = POLICIES[request.param]
    return request.param, [
        (
            code,
            sorted(ref_check_imports(code, policy)),
            sorted(new_check_imports(code, policy)),
            ref_enforce_policy(code, policy),
            new_enforce_policy(code, policy),
        )
        for code in CORPUS
    ]


class TestPolicyOracle:
    def test_check_matches_reference(self, outcomes):
        _name, rows = outcomes
        for code, ref_check, new_check, _ref, _new in rows:
            assert new_check == ref_check, code

    def test_enforce_matches_reference(self, outcomes):
        name, rows = outcomes
        policy = POLICIES[name]
        defective = []
        for code, _rc, _nc, (ref_code, ref_left), (new_code, new_left) in rows:
            assert sorted(new_left) == sorted(ref_left), code
            if _reference_is_defective(code, ref_code, policy):
                defective.append(code)
                ast.parse(new_code)
                assert _allowed_bindings(code, policy) <= _allowed_bindings(
                    new_code, policy
                ), code
            else:
                assert new_code == ref_code, code
        # the defects show only in the cases written for them
        assert all(code in DEFECT_CASES for code in defective)
        if name == "default":
            assert defective == DEFECT_CASES

    def test_corpus_exercises_rewrites_and_remainders(self, outcomes):
        name, rows = outcomes
        rewritten = sum(new[0] != code for code, _rc, _nc, _ref, new in rows)
        remaining = sum(bool(new[1]) for _code, _rc, _nc, _ref, new in rows)
        # (rewritten, left with violations): 9 injected missing packages
        # plus the hand cases rewrite; denying repro flags every pipeline
        # that still parses after its fault
        at_least = {
            "default": (19, 1),
            "deny-torch": (0, 2),
            "no-rewrite": (0, 19),
            "deny-repro": (0, 150),
        }[name]
        assert rewritten >= at_least[0] and remaining >= at_least[1]
        if name != "default":
            assert rewritten == 0
