"""ML-pipeline rules: what generated code must not do.

These rules run over every candidate pipeline before execution
(profile ``"pipeline"``).  Error-severity findings carry a taxonomy
``error_type`` so the repair loop treats them exactly like an observed
failure — crucially *without* paying ``execute_pipeline_code``:

- ``entry-point``      — the ``run_pipeline(train, test)`` contract
- ``missing-import``   — known library symbols used but never bound
  (resolved through the scope chain, not a flat name walk)
- ``banned-api``       — ``eval``/``exec``, filesystem, environment,
  process, and network access in generated code
- ``data-leakage``     — transformers/estimators fitted on test data or
  on train+test mixtures; the target column listed as a feature
- ``nondeterminism``   — unseeded global RNGs, ``random_state=None``
- ``signature``        — calls into the known ``repro.ml`` surface that
  cannot bind (wrong keyword, impossible arity, missing method)

``library-policy`` is opt-in and not part of :data:`PIPELINE_RULES`: a
:class:`LibraryPolicy` *is* that rule, and the generators run it on each
completion only when they are given one (the allow/deny lists the paper
names as future work in Section 4.3).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.dataflow import Taint, undefined_uses
from repro.analysis.rules import (
    AnalysisContext,
    Finding,
    Severity,
    global_rng_call,
)
from repro.analysis.signatures import (
    check_call,
    check_method_call,
    signature_table,
)

__all__ = [
    "KNOWN_LIBRARY_SYMBOLS",
    "EntryPointRule",
    "MissingImportRule",
    "BannedApiRule",
    "DataLeakageRule",
    "UseBeforeDefRule",
    "BranchUseBeforeDefRule",
    "NondeterminismRule",
    "SignatureRule",
    "PIPELINE_RULES",
    "LibraryPolicy",
    "POLICY_REWRITE_RE",
]

#: symbols whose undefined use is statically attributable to a lost import
#: (an arbitrary undefined identifier stays a runtime NameError — the
#: paper's SE-vs-RE split)
KNOWN_LIBRARY_SYMBOLS = frozenset({
    "np", "numpy", "scipy", "networkx",
    "TableVectorizer", "ColumnSelector", "Pipeline",
    "RandomForestClassifier", "RandomForestRegressor",
    "GradientBoostingClassifier", "GradientBoostingRegressor",
    "DecisionTreeClassifier", "DecisionTreeRegressor",
    "LogisticRegression", "LinearRegression", "Ridge",
    "GaussianNB", "KNeighborsClassifier", "KNeighborsRegressor", "TabPFNProxy",
    "LinearSVC",
    "GridSearchCV", "RandomizedSearchCV", "train_test_split", "cross_val_score",
    "accuracy_score", "roc_auc_score", "r2_score", "f1_score", "log_loss",
    "SimpleImputer", "StandardScaler", "MinMaxScaler", "RobustScaler",
    "OneHotEncoder", "OrdinalEncoder", "LabelEncoder", "KHotEncoder",
    "FeatureHasher", "QuantileClipper",
    "oversample_minority", "gaussian_augment", "drop_missing_rows",
    "Table", "Column", "read_csv", "write_csv",
})


class EntryPointRule:
    """The script must define ``run_pipeline(train, test)`` at top level."""

    id = "entry-point"
    description = "script must define run_pipeline(train, test)"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        entry = next(
            (
                node for node in ctx.tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "run_pipeline"
            ),
            None,
        )
        if entry is None:
            yield Finding(
                rule_id=self.id,
                severity=self.default_severity,
                message="script does not define run_pipeline(train, test)",
                error_type="truncated_code",
            )
            return
        n_positional = len(entry.args.posonlyargs) + len(entry.args.args)
        accepts_two = n_positional >= 2 or entry.args.vararg is not None
        if not accepts_two:
            yield Finding(
                rule_id=self.id,
                severity=self.default_severity,
                message="run_pipeline must accept (train, test) "
                        f"but takes {n_positional} argument(s)",
                line=entry.lineno,
                error_type="truncated_code",
            )


class MissingImportRule:
    """Known library symbols used but resolvable to no binding."""

    id = "missing-import"
    description = "a used library symbol is never imported or defined"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        seen: set[str] = set()
        for name, lineno in undefined_uses(ctx.dataflow.table):
            if name not in KNOWN_LIBRARY_SYMBOLS or name in seen:
                continue
            seen.add(name)
            yield Finding(
                rule_id=self.id,
                severity=self.default_severity,
                message=f"name {name!r} is used but never imported or defined",
                line=lineno,
                error_type="missing_import",
            )


#: builtins a generated pipeline has no business calling
_BANNED_BUILTINS = {
    "eval", "exec", "compile", "__import__", "input", "breakpoint",
    "exit", "quit",
}

#: module roots whose import alone is banned in generated code
_BANNED_IMPORTS = {
    "subprocess", "socket", "urllib", "requests", "http", "ftplib",
    "telnetlib", "ctypes",
}

#: dotted call prefixes that spawn processes / touch the filesystem
_BANNED_CALL_PREFIXES = (
    "os.system", "os.popen", "os.spawn", "os.exec", "os.remove",
    "os.unlink", "os.rmdir", "shutil.rmtree", "subprocess.",
    "socket.", "urllib.", "requests.", "http.",
)


class BannedApiRule:
    """Dynamic execution, filesystem, environment, process, network access.

    ``open`` and ``os.environ`` map onto their KB-patchable taxonomy
    types (``missing_data_file`` / ``env_variable``) so the knowledge
    base still patches them locally; everything else surfaces as
    ``wrong_api``.
    """

    id = "banned-api"
    description = "generated code calls an API banned in the sandbox"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Subscript):
                dotted = ctx.dotted_name(node.value)
                if dotted == "os.environ":
                    yield self._finding(
                        "environment access 'os.environ[...]' in generated code",
                        node.lineno, "env_variable",
                    )

    def _check_import(
        self, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        else:
            roots = [(node.module or "").split(".")[0]]
        for root in roots:
            if root in _BANNED_IMPORTS:
                yield self._finding(
                    f"import of banned module {root!r} in generated code",
                    node.lineno, "wrong_api",
                )

    def _check_call(self, ctx: AnalysisContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                yield self._finding(
                    "file access 'open(...)' in generated code "
                    "(pipelines receive their data as arguments)",
                    node.lineno, "missing_data_file",
                )
            elif func.id in _BANNED_BUILTINS:
                yield self._finding(
                    f"call to banned builtin {func.id!r} in generated code",
                    node.lineno, "wrong_api",
                )
            return
        dotted = ctx.dotted_name(func)
        if dotted is None:
            return
        if dotted in ("os.getenv", "os.environ.get"):
            yield self._finding(
                f"environment access {dotted!r} in generated code",
                node.lineno, "env_variable",
            )
            return
        for prefix in _BANNED_CALL_PREFIXES:
            if dotted == prefix.rstrip(".") or dotted.startswith(prefix):
                yield self._finding(
                    f"call to banned API {dotted!r} in generated code",
                    node.lineno, "wrong_api",
                )
                return

    def _finding(self, message: str, line: int, error_type: str) -> Finding:
        return Finding(
            rule_id=self.id,
            severity=self.default_severity,
            message=message,
            line=line,
            error_type=error_type,
        )


def _expr_label(expr: ast.AST) -> str:
    if isinstance(expr, ast.Name):
        return repr(expr.id)
    try:
        rendered = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on real ASTs
        return "the argument"
    if len(rendered) > 40:
        rendered = rendered[:37] + "..."
    return repr(rendered)


class DataLeakageRule:
    """Test data must never reach a ``fit``; the target is not a feature.

    Backed by the flow-sensitive provenance taint in
    :mod:`repro.analysis.dataflow`: an argument whose abstract value is
    TEST-tainted (directly, through an alias chain, or only on some
    branch) or WHOLE-tainted (a train+test mixture, e.g. concatenated
    before the split) is flagged — name spelling no longer matters.
    """

    id = "data-leakage"
    description = "estimator/transformer fitted on test or pre-split data"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for fit in ctx.dataflow.fit_calls:
            for arg, taint in fit.args:
                if taint is Taint.TEST:
                    yield Finding(
                        rule_id=self.id,
                        severity=self.default_severity,
                        message=f".{fit.method}() called on test data "
                                f"{_expr_label(arg)} "
                                "(fit on train only, then transform test)",
                        line=fit.lineno,
                        error_type="task_mismatch",
                    )
                    break
                if taint is Taint.WHOLE:
                    yield Finding(
                        rule_id=self.id,
                        severity=self.default_severity,
                        message=f".{fit.method}() called on {_expr_label(arg)}, "
                                "which mixes train and test data "
                                "(fit before the split leaks)",
                        line=fit.lineno,
                        error_type="task_mismatch",
                    )
                    break
        yield from self._target_in_features(ctx)

    def _target_in_features(self, ctx: AnalysisContext) -> Iterator[Finding]:
        target_value: str | None = None
        features: tuple[list[str], int] | None = None
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            name_node = node.targets[0]
            if not isinstance(name_node, ast.Name):
                continue
            if name_node.id == "TARGET" and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str):
                    target_value = node.value.value
            elif name_node.id == "FEATURES" and isinstance(node.value, ast.List):
                values = [
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                features = (values, node.lineno)
        if target_value is not None and features is not None:
            values, lineno = features
            if target_value in values:
                yield Finding(
                    rule_id=self.id,
                    severity=self.default_severity,
                    message=f"target column {target_value!r} is listed in FEATURES "
                            "(the label leaks into the design matrix)",
                    line=lineno,
                    error_type="task_mismatch",
                )


class UseBeforeDefRule:
    """A scope-local name read before *any* binding can reach it.

    Only names that are bound somewhere in the same scope qualify — a
    name never bound anywhere stays a runtime ``NameError`` (the SE/RE
    split: an unknown identifier is not statically attributable, a
    mis-ordered local is).  Reaching definitions over the CFG make this
    path-sensitive: a definition inside a loop body reaches later uses
    via the back edge, one inside a dead branch does not.
    """

    id = "use-before-def"
    description = "local name used before any assignment on every path"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for use in ctx.dataflow.use_before_def:
            if not use.definite:
                continue
            where = (
                "at module level" if use.scope == "<module>"
                else f"in {use.scope}()"
            )
            yield Finding(
                rule_id=self.id,
                severity=self.default_severity,
                message=f"name {use.name!r} is used before assignment {where} "
                        "(no definition reaches this use on any path)",
                line=use.lineno,
                col=use.col,
                error_type="undefined_variable",
            )


class BranchUseBeforeDefRule:
    """A name bound on some paths but read where a path skips the binding.

    Advisory: the unbound path may be impossible at runtime (e.g. a loop
    guaranteed to run), so this stays a warning rather than gating.
    """

    id = "branch-use-before-def"
    description = "local name may be unbound on some execution path"
    default_severity = Severity.WARNING

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for use in ctx.dataflow.use_before_def:
            if use.definite:
                continue
            where = (
                "at module level" if use.scope == "<module>"
                else f"in {use.scope}()"
            )
            yield Finding(
                rule_id=self.id,
                severity=self.default_severity,
                message=f"name {use.name!r} may be unbound {where} "
                        "(a branch, loop or except path skips its assignment)",
                line=use.lineno,
                col=use.col,
                error_type="undefined_variable",
            )


_NONDETERMINISM_MESSAGES = {
    "np-unseeded": "numpy.random.default_rng() without a seed is "
                   "nondeterministic",
    "np-global": "call to numpy global RNG 'np.random.{}' "
                 "(use a seeded default_rng(seed) instead)",
    "stdlib": "call to stdlib global RNG 'random.{}' "
              "(unseeded; results will not reproduce)",
}


class NondeterminismRule:
    """Unseeded randomness makes repair loops and soaks unreproducible."""

    id = "nondeterminism"
    description = "unseeded RNG use in generated code"
    default_severity = Severity.WARNING

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            hit = global_rng_call(ctx, node)
            if hit is not None:
                kind, name = hit
                yield self._finding(
                    _NONDETERMINISM_MESSAGES[kind].format(name), node.lineno
                )
            yield from self._check_random_state_none(ctx, node)

    def _check_random_state_none(
        self, ctx: AnalysisContext, node: ast.Call
    ) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Name):
            return
        origin = ctx.import_aliases.get(node.func.id, "")
        if not origin.startswith("repro.ml"):
            return
        name = origin.rsplit(".", 1)[-1]
        if name not in signature_table():
            return
        for kw in node.keywords:
            if (
                kw.arg == "random_state"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is None
            ):
                yield self._finding(
                    f"{name}(random_state=None) draws fresh entropy per run",
                    node.lineno,
                )

    def _finding(self, message: str, line: int) -> Finding:
        return Finding(
            rule_id=self.id,
            severity=self.default_severity,
            message=message,
            line=line,
            error_type="no_convergence",
        )


#: exception names whose handlers make a call site runtime-guarded —
#: a statically-dubious call inside such a try block is intentional
_GUARD_EXCEPTIONS = {
    "AttributeError", "TypeError", "ValueError", "Exception", "BaseException",
}


class SignatureRule:
    """Calls into the known ``repro.ml`` surface must bind statically."""

    id = "signature"
    description = "call cannot bind against the known repro.ml signature"
    default_severity = Severity.ERROR

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        guarded = self._guarded_nodes(ctx)
        inferred = self._inferred_types(ctx)
        for node in ctx.walk():
            if not isinstance(node, ast.Call) or id(node) in guarded:
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = self._ml_name(ctx, func.id)
                if name is None:
                    continue
                message = check_call(name, node)
                if message is not None:
                    yield self._finding(f"{name}(...): {message}", node.lineno)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                class_name = inferred.get(func.value.id)
                if class_name is None:
                    continue
                message = check_method_call(class_name, func.attr, node)
                if message is not None:
                    yield self._finding(
                        f"{func.value.id}.{func.attr}(...): {message}", node.lineno
                    )

    @staticmethod
    def _ml_name(ctx: AnalysisContext, local_name: str) -> str | None:
        origin = ctx.import_aliases.get(local_name)
        if origin is None or not origin.startswith("repro."):
            return None
        name = origin.rsplit(".", 1)[-1]
        return name if name in signature_table() else None

    def _inferred_types(self, ctx: AnalysisContext) -> dict[str, str]:
        """Map local var -> repro.ml class for ``var = ClassName(...)``.

        A name assigned twice with conflicting inferences (or to anything
        that is not a known-constructor call) becomes unknown — the check
        must never fire on a variable it cannot pin down.
        """
        inferred: dict[str, str | None] = {}
        for node in ctx.walk():
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            class_name: str | None = None
            if isinstance(node.value, ast.Call) and isinstance(
                node.value.func, ast.Name
            ):
                candidate = self._ml_name(ctx, node.value.func.id)
                import inspect as _inspect
                import repro.ml as _ml

                if candidate is not None and _inspect.isclass(
                    getattr(_ml, candidate, None)
                ):
                    class_name = candidate
            if target.id in inferred and inferred[target.id] != class_name:
                inferred[target.id] = None
            else:
                inferred[target.id] = class_name
        return {k: v for k, v in inferred.items() if v is not None}

    @staticmethod
    def _guarded_nodes(ctx: AnalysisContext) -> set[int]:
        """ids of Call nodes inside runtime-guarded blocks.

        Two guard shapes count: ``try`` bodies whose handlers catch a
        broad exception, and ``with contextlib.suppress(...)`` bodies
        suppressing one (``suppress`` resolved through import aliases).
        """
        guarded: set[int] = set()

        def guard_body(body: list[ast.stmt]) -> None:
            for stmt in body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        guarded.add(id(sub))

        for node in ctx.walk():
            if isinstance(node, ast.Try):
                names: set[str] = set()
                bare = False
                for handler in node.handlers:
                    if handler.type is None:
                        bare = True
                    else:
                        for sub in ast.walk(handler.type):
                            if isinstance(sub, ast.Name):
                                names.add(sub.id)
                if bare or names & _GUARD_EXCEPTIONS:
                    guard_body(node.body)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if not isinstance(expr, ast.Call):
                        continue
                    dotted = ctx.dotted_name(expr.func)
                    if dotted != "contextlib.suppress":
                        continue
                    suppressed = {
                        sub.id
                        for arg in expr.args
                        for sub in ast.walk(arg)
                        if isinstance(sub, ast.Name)
                    }
                    if suppressed & _GUARD_EXCEPTIONS:
                        guard_body(node.body)
                        break
        return guarded

    def _finding(self, message: str, line: int) -> Finding:
        return Finding(
            rule_id=self.id,
            severity=self.default_severity,
            message=message,
            line=line,
            error_type="wrong_api",
        )


#: the full pre-execution gate for generated pipelines
PIPELINE_RULES = (
    EntryPointRule(),
    MissingImportRule(),
    BannedApiRule(),
    DataLeakageRule(),
    UseBeforeDefRule(),
    BranchUseBeforeDefRule(),
    NondeterminismRule(),
    SignatureRule(),
)


_DEFAULT_ALLOWED = frozenset({"repro", "numpy", "scipy", "networkx", "math", "json"})

#: approved stand-ins for commonly requested external packages
_REWRITES = {
    "xgboost": "repro.ml",
    "lightgbm": "repro.ml",
    "catboost": "repro.ml",
    "sklearn": "repro.ml",
    "pandas": "repro.table",
}

#: parses the stand-in out of a ``library-policy`` finding's message
#: (the ``rewrite-policy-import`` fixer's input; see ``_finding``)
POLICY_REWRITE_RE = re.compile(
    r"import of '(?P<module>[\w.]+)' .*; rewrite to '(?P<replacement>[\w.]+)'$"
)


@dataclass
class LibraryPolicy:
    """Compliance policy for generated code, run as the ``library-policy`` rule.

    ``allowed`` is an allowlist of top-level modules (None disables the
    allowlist); ``disallowed`` is always enforced on top of it.  With
    ``rewrite`` on, a violating import of a package that has an approved
    stand-in says so in its message, and the ``rewrite-policy-import``
    fixer re-points it.
    """

    allowed: frozenset[str] | None = _DEFAULT_ALLOWED
    disallowed: frozenset[str] = frozenset()
    rewrite: bool = True

    id = "library-policy"
    description = "generated code imports a library the policy does not permit"
    default_severity = Severity.ERROR

    def permits(self, module: str) -> bool:
        top = module.split(".")[0]
        if top in self.disallowed:
            return False
        return self.allowed is None or top in self.allowed

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if not self.permits(module):
                    yield self._finding(module, node.lineno)

    def _finding(self, module: str, line: int) -> Finding:
        top = module.split(".")[0]
        reason = "disallowed" if top in self.disallowed else "not allowlisted"
        message = f"import of {module!r} is {reason} by the library policy"
        replacement = _REWRITES.get(top)
        if self.rewrite and replacement is not None and self.permits(replacement):
            message += f"; rewrite to {replacement!r}"
        return Finding(
            rule_id=self.id,
            severity=self.default_severity,
            message=message,
            line=line,
            error_type="missing_package",
            details={"module": module, "reason": reason},
        )
