"""Name resolution and flow-sensitive dataflow over the statement CFG.

One walk of the module (:func:`scope_table`) builds the whole scope
table — module, function, lambda, class and comprehension scopes, each
with its parent link, flow-insensitive bindings, ``global``/``nonlocal``
declarations and ``Load`` uses — together with the CFG of every module
and function body and the per-node binding/use facts the fixpoints
read.  Resolution follows Python's rules: class-body names are invisible
to code nested in the class, ``global`` jumps to module scope and
``nonlocal`` to the nearest enclosing function, a walrus inside a
comprehension binds in the enclosing non-comprehension scope, and
decorators, defaults and annotations evaluate in the enclosing scope.
:func:`undefined_uses` answers "is this name bound anywhere visible"
for the missing-import rule and its fixer.

Three classic analyses then run per graphed scope, all as worklist
fixpoints over :mod:`repro.analysis.cfg` graphs:

- **Reaching definitions** (may, forward): which assignments of a name
  can reach each program point.  Def-use chains fall out directly.
- **Definite assignment** (must, forward): which names are bound on
  *every* path into a program point.  A use with no reaching definition
  is a *definite* use-before-def; a use that is reached by some
  definition but is not definitely assigned is a *branch-dependent*
  (maybe) use-before-def.
- **Provenance taint**: an abstract interpretation over the lattice

  ::

      UNKNOWN (⊥)  <  TRAIN, TEST  <  WHOLE (⊤ = TRAIN|TEST)

  seeded from ``run_pipeline``'s positional parameters (first = train
  split, second = test split) and from train/test-ish parameter names,
  then propagated through assignments (including tuple unpacking and
  ``train_test_split``-style splitters), column subscripts, augmented
  assignment, ``for``/``with`` bindings, and method calls (a call result
  joins its receiver's and arguments' taints).  Unlike the old
  name-substring heuristic, aliases (``full = concat(train, test)``,
  ``X = test``) carry their provenance wherever they flow.

Every ``.fit`` / ``.fit_transform`` / ``.partial_fit`` call site is
recorded with the taint of each argument so the leakage rule can flag
estimators fitted on test-tainted or whole-dataset-tainted data, and the
taint of every constant-key column subscript's base is recorded for the
catalog-grounded schema rules.

Name-based fallback: a name with no tracked binding still gets TRAIN /
TEST taint from the ``train``/``test`` naming convention, so everything
the old heuristic caught is still caught.
"""

from __future__ import annotations

import ast
import builtins
import enum
from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, CFGNode, build_cfg

__all__ = [
    "Taint",
    "FitCall",
    "UseBeforeDef",
    "Scope",
    "ScopeTable",
    "ScopeFlow",
    "ModuleDataflow",
    "analyze_dataflow",
    "scope_table",
    "undefined_uses",
    "is_trainish",
    "is_testish",
]


class Taint(enum.IntFlag):
    """Dataset-provenance lattice; join is bitwise OR."""

    UNKNOWN = 0
    TRAIN = 1
    TEST = 2
    WHOLE = 3  # TRAIN | TEST

    def describe(self) -> str:
        return {0: "unknown", 1: "train", 2: "test", 3: "train+test"}[int(self)]


_FIT_METHODS = frozenset({"fit", "fit_transform", "partial_fit"})

_MODULE_DUNDERS = frozenset(
    {"__name__", "__file__", "__doc__", "__spec__", "__loader__", "__package__"}
)


def is_testish(name: str) -> bool:
    low = name.lower()
    return low == "test" or low.startswith("test_") or low.endswith("_test")


def is_trainish(name: str) -> bool:
    low = name.lower()
    return low == "train" or low.startswith("train_") or low.endswith("_train")


def _heuristic_taint(name: str) -> Taint:
    if is_trainish(name):
        return Taint.TRAIN
    if is_testish(name):
        return Taint.TEST
    return Taint.UNKNOWN


@dataclass(frozen=True)
class UseBeforeDef:
    """A load of a scope-local name before any (or every) binding."""

    name: str
    lineno: int
    col: int
    definite: bool  # True: unbound on every path; False: on some path
    scope: str


@dataclass(frozen=True)
class FitCall:
    """A ``.fit``-family call with the provenance of each argument."""

    method: str
    lineno: int
    col: int
    call: ast.Call = field(repr=False)
    receiver: Taint = Taint.UNKNOWN
    args: tuple[tuple[ast.expr, Taint], ...] = ()

    def worst(self) -> Taint:
        out = Taint.UNKNOWN
        for _, taint in self.args:
            out |= taint
        return out


@dataclass
class ScopeFlow:
    """Per-scope analysis results (module body or one function body)."""

    name: str
    cfg: CFG
    params: tuple[str, ...]
    bindings: frozenset[str]
    # node index -> set of (name, defining node index); entry-index pairs
    # stand for parameter bindings
    reach_in: dict[int, set[tuple[str, int]]] = field(default_factory=dict)
    # (name, use node index) -> defining node indices that reach the use
    def_use: dict[tuple[str, int], frozenset[int]] = field(default_factory=dict)
    taint_in: dict[int, dict[str, Taint]] = field(default_factory=dict)


@dataclass
class ModuleDataflow:
    """Whole-module results, aggregated across scopes."""

    table: ScopeTable
    scopes: list[ScopeFlow] = field(default_factory=list)
    fit_calls: list[FitCall] = field(default_factory=list)
    use_before_def: list[UseBeforeDef] = field(default_factory=list)
    # id(ast.Subscript) -> taint of the subscripted base expression
    subscript_taints: dict[int, Taint] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the scope table: one walk over every scope
# ---------------------------------------------------------------------------

MODULE = "module"
FUNCTION = "function"
LAMBDA = "lambda"
CLASS = "class"
COMPREHENSION = "comprehension"

_BUILTIN_NAMES = frozenset(dir(builtins)) | {
    "__file__", "__doc__", "__name__", "__builtins__",
}


@dataclass
class _NodeFacts:
    """What one CFG node binds, deletes and reads in its own scope."""

    gens: list[str] = field(default_factory=list)
    dels: list[str] = field(default_factory=list)
    uses: list[ast.Name] = field(default_factory=list)
    walrus: set[str] = field(default_factory=set)


@dataclass(eq=False)
class Scope:
    """One lexical scope: module, function, lambda, class or comprehension.

    ``bindings`` is flow-insensitive: every name bound anywhere in the
    scope, a bare ``x: int`` included.  A name a nested function declares
    ``global`` (``nonlocal``) and then binds is recorded here in the
    module (enclosing function) scope, where Python binds it.  Module and
    function scopes also carry their CFG and per-node facts, which the
    fixpoints read.
    """

    kind: str
    name: str
    parent: Scope | None = None
    node: ast.AST | None = None
    bindings: set[str] = field(default_factory=set)
    declared: dict[str, str] = field(default_factory=dict)  # "global"/"nonlocal"
    cfg: CFG | None = None
    facts: dict[int, _NodeFacts] = field(default_factory=dict)


def _nonlocal_owner(scope: Scope, name: str) -> Scope | None:
    """The nearest enclosing function scope that binds ``name``."""
    current = scope.parent
    while current is not None:
        if current.kind in (FUNCTION, LAMBDA) and name in current.bindings:
            return current
        current = current.parent
    return None


@dataclass
class ScopeTable:
    """Every scope of a module (walk order, module first) and every read."""

    scopes: list[Scope]
    uses: list[tuple[ast.Name, Scope]]

    @property
    def module(self) -> Scope:
        return self.scopes[0]

    def resolves(self, name: str, scope: Scope) -> bool:
        """True when ``name`` read in ``scope`` is bound somewhere visible."""
        if name in _BUILTIN_NAMES:
            return True
        current: Scope | None = scope
        immediate = True
        while current is not None:
            # a class body's names are visible only to code directly in
            # the body, never to functions/comprehensions nested inside it
            if current.kind != CLASS or immediate:
                declared = current.declared.get(name)
                if declared == "global":
                    return name in self.module.bindings
                if declared == "nonlocal":
                    return _nonlocal_owner(current, name) is not None
                if name in current.bindings:
                    return True
            immediate = False
            current = current.parent
        return False


def undefined_uses(table: ScopeTable) -> list[tuple[str, int]]:
    """Every ``(name, lineno)`` read that resolves to no visible binding.

    Flow-insensitive by design: a name bound anywhere in a visible scope
    counts as defined (use-before-assignment is the fixpoints' job, and
    an arbitrary unknown name stays a runtime error).
    """
    return [
        (use.id, use.lineno)
        for use, scope in table.uses
        if not table.resolves(use.id, scope)
    ]


def _anchor(node: CFGNode) -> ast.AST | None:
    """The AST part a CFG node evaluates (its key in the walk)."""
    if node.kind == "stmt":
        return node.stmt
    if node.kind == "except":
        return node.handler
    if node.kind == "case":
        return node.binds
    return node.expr  # test / withitem (None on entry/exit)


class _Frame:
    """The walk's position in one scope: which CFG node is being read."""

    __slots__ = ("scope", "anchors", "facts")

    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        self.anchors: dict[int, _NodeFacts] = {}
        self.facts: _NodeFacts | None = None
        for node in scope.cfg or ():
            scope.facts[node.index] = facts = _NodeFacts()
            part = _anchor(node)
            if part is not None:
                self.anchors[id(part)] = facts


class _ScopeBuilder(ast.NodeVisitor):
    """Grows the scope tree, the module/function CFGs and their facts.

    Every binding and read is recorded once, in the scope Python puts
    it in, and — inside a module or function body — on the CFG node
    that evaluates it.  Statements the CFG leaves out (dead code after
    a ``return``) still count for the flow-insensitive table.
    """

    def __init__(self, tree: ast.Module) -> None:
        module = Scope(MODULE, "<module>", cfg=build_cfg(tree.body, "<module>"))
        self.scopes = [module]
        self.uses: list[tuple[ast.Name, Scope]] = []
        self.frames = [_Frame(module)]

    # -- helpers -------------------------------------------------------
    @property
    def frame(self) -> _Frame:
        return self.frames[-1]

    def _at(self, part: ast.AST) -> None:
        self.frame.facts = self.frame.anchors.get(id(part))

    def _push(
        self,
        kind: str,
        name: str,
        node: ast.AST,
        body: list[ast.stmt] | None = None,
    ) -> None:
        cfg = None if body is None else build_cfg(body, name)
        scope = Scope(kind, name, parent=self.frame.scope, node=node, cfg=cfg)
        self.scopes.append(scope)
        self.frames.append(_Frame(scope))

    def _pop(self) -> None:
        self.frames.pop()

    def _bind(self, name: str, frame: _Frame | None = None) -> None:
        frame = frame or self.frame
        scope = frame.scope
        owner = scope
        declared = scope.declared.get(name)
        if declared == "global":
            owner = self.scopes[0]
        elif declared == "nonlocal":
            owner = _nonlocal_owner(scope, name) or scope
        owner.bindings.add(name)
        if frame.facts is not None:
            frame.facts.gens.append(name)

    def _use(self, node: ast.Name) -> None:
        self.uses.append((node, self.frame.scope))
        if self.frame.facts is not None:
            self.frame.facts.uses.append(node)

    def _visit_all(self, nodes: list) -> None:
        for node in nodes:
            self.visit(node)

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.stmt):
            self._at(node)
        super().visit(node)

    # -- scope-introducing nodes ---------------------------------------
    def _visit_defaults(self, args: ast.arguments) -> None:
        self._visit_all(args.defaults)
        self._visit_all([d for d in args.kw_defaults if d is not None])

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._bind(node.name)
        # decorators, defaults and annotations evaluate in the enclosing scope
        self._visit_all(node.decorator_list)
        self._visit_defaults(node.args)
        for arg in _arguments(node.args):
            if arg.annotation is not None:
                self.visit(arg.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        self._push(FUNCTION, node.name, node, node.body)
        self.frame.scope.bindings.update(_param_names(node))
        self._visit_all(node.body)
        self._pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_defaults(node.args)
        self._push(LAMBDA, "<lambda>", node)
        self.frame.scope.bindings.update(a.arg for a in _arguments(node.args))
        self.visit(node.body)
        self._pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._bind(node.name)
        self._visit_all(node.decorator_list)
        self._visit_all(node.bases)
        self._visit_all([kw.value for kw in node.keywords])
        self._push(CLASS, node.name, node)
        self._visit_all(node.body)
        self._pop()

    def _visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        # the first generator's iterable evaluates in the enclosing scope
        self.visit(node.generators[0].iter)
        self._push(COMPREHENSION, "<comp>", node)
        for i, gen in enumerate(node.generators):
            if i:
                self.visit(gen.iter)
            self.visit(gen.target)
            self._visit_all(gen.ifs)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self._pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- statements split across CFG nodes -----------------------------
    def _visit_branch(self, node: ast.If | ast.While) -> None:
        self._at(node.test)
        self.visit(node.test)
        self._visit_all(node.body)
        self._visit_all(node.orelse)

    visit_If = _visit_branch
    visit_While = _visit_branch

    def _visit_for(self, node: ast.For | ast.AsyncFor) -> None:
        self._at(node.iter)
        self.visit(node.iter)
        self.visit(node.target)
        self._visit_all(node.body)
        self._visit_all(node.orelse)

    visit_For = _visit_for
    visit_AsyncFor = _visit_for

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            self._at(item.context_expr)
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self._visit_all(node.body)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        self._at(node)
        if node.type is not None:
            self.visit(node.type)
        if node.name:
            self._bind(node.name)
        self._visit_all(node.body)

    def visit_Match(self, node: ast.Match) -> None:
        self._at(node.subject)
        self.visit(node.subject)
        for case in node.cases:
            self._at(case.pattern)
            self.visit(case.pattern)
            if case.guard is not None:
                self.visit(case.guard)
            self._visit_all(case.body)

    # -- binding statements and expressions ----------------------------
    # targets go through visit_Name (Store binds, Del unbinds);
    # ``obj[k] = x`` binds nothing but reads ``obj`` and ``k``
    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        self._visit_all(node.targets)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # x += 1 reads x, then rebinds it
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self._use(node.target)
        self.visit(node.target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.annotation)
        if node.value is not None:
            self.visit(node.value)
        if node.value is None and isinstance(node.target, ast.Name):
            # a bare declaration binds for scoping but assigns nothing
            self.frame.scope.bindings.add(node.target.id)
        else:
            self.visit(node.target)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self.visit(node.value)
        # PEP 572: the target binds in the scope containing the
        # comprehension chain
        frame = next(
            f for f in reversed(self.frames) if f.scope.kind != COMPREHENSION
        )
        self._bind(node.target.id, frame)
        if frame.facts is not None:
            frame.facts.walrus.add(node.target.id)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._bind((alias.asname or alias.name).split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name != "*":
                self._bind(alias.asname or alias.name)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.frame.scope.declared[name] = "global"

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        for name in node.names:
            self.frame.scope.declared[name] = "nonlocal"

    def visit_MatchAs(self, node: ast.MatchAs) -> None:
        if node.pattern is not None:
            self.visit(node.pattern)
        if node.name is not None:
            self._bind(node.name)

    def visit_MatchStar(self, node: ast.MatchStar) -> None:
        if node.name is not None:
            self._bind(node.name)

    def visit_MatchMapping(self, node: ast.MatchMapping) -> None:
        self._visit_all(node.keys)
        self._visit_all(node.patterns)
        if node.rest is not None:
            self._bind(node.rest)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(node)
        elif isinstance(node.ctx, ast.Del):
            self.frame.scope.bindings.add(node.id)
            if self.frame.facts is not None:
                self.frame.facts.dels.append(node.id)
        else:
            self._bind(node.id)


def scope_table(tree: ast.Module) -> ScopeTable:
    """Walk a parsed module once: every scope, binding, read and CFG."""
    builder = _ScopeBuilder(tree)
    builder._visit_all(tree.body)
    return ScopeTable(builder.scopes, builder.uses)


# ---------------------------------------------------------------------------
# reaching definitions + definite assignment
# ---------------------------------------------------------------------------


def _reaching_definitions(
    cfg: CFG, params: tuple[str, ...], facts: dict[int, _NodeFacts]
) -> dict[int, set[tuple[str, int]]]:
    entry = cfg.entry.index
    out_sets: dict[int, set[tuple[str, int]]] = {
        n.index: set() for n in cfg
    }
    out_sets[entry] = {(p, entry) for p in params}
    in_sets: dict[int, set[tuple[str, int]]] = {n.index: set() for n in cfg}
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for idx in order:
            if idx == entry:
                continue
            node = cfg.nodes[idx]
            new_in: set[tuple[str, int]] = set()
            for p in node.preds:
                new_in |= out_sets[p]
            gens, dels = facts[idx].gens, facts[idx].dels
            killed = set(gens) | set(dels)
            new_out = {d for d in new_in if d[0] not in killed}
            new_out |= {(name, idx) for name in gens}
            if new_in != in_sets[idx] or new_out != out_sets[idx]:
                in_sets[idx] = new_in
                out_sets[idx] = new_out
                changed = True
    return in_sets


def _definite_assignment(
    cfg: CFG, params: tuple[str, ...], facts: dict[int, _NodeFacts]
) -> dict[int, set[str] | None]:
    """Must-analysis: names bound on every path into each node.

    ``None`` stands for TOP ("all names") on not-yet-visited nodes.
    """
    entry = cfg.entry.index
    bound_out: dict[int, set[str] | None] = {n.index: None for n in cfg}
    bound_in: dict[int, set[str] | None] = {n.index: None for n in cfg}
    bound_out[entry] = set(params)
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for idx in order:
            if idx == entry:
                continue
            node = cfg.nodes[idx]
            new_in: set[str] | None = None
            for p in node.preds:
                prev = bound_out[p]
                if prev is None:
                    continue
                new_in = set(prev) if new_in is None else (new_in & prev)
            if new_in is None:
                continue  # no processed predecessor yet
            gens, dels = facts[idx].gens, facts[idx].dels
            new_out = (new_in - set(dels)) | set(gens)
            if new_in != bound_in[idx] or new_out != bound_out[idx]:
                bound_in[idx] = new_in
                bound_out[idx] = new_out
                changed = True
    return bound_in


# ---------------------------------------------------------------------------
# taint abstract interpretation
# ---------------------------------------------------------------------------


def _splitter_name(func: ast.expr, import_aliases: dict[str, str]) -> bool:
    """Does this call target look like a train/test splitter?"""
    if isinstance(func, ast.Name):
        dotted = import_aliases.get(func.id, func.id)
        return dotted.split(".")[-1] == "train_test_split"
    if isinstance(func, ast.Attribute):
        return func.attr == "train_test_split"
    return False


class _TaintInterp:
    """One transfer-function evaluator; optionally records results."""

    def __init__(
        self,
        import_aliases: dict[str, str],
        facts: dict[int, _NodeFacts],
        record: ModuleDataflow | None = None,
    ) -> None:
        self.import_aliases = import_aliases
        self.facts = facts
        self.record = record

    # -- expressions ----------------------------------------------------
    def eval(self, expr: ast.expr | None, env: dict[str, Taint]) -> Taint:
        if expr is None:
            return Taint.UNKNOWN
        if isinstance(expr, ast.Name):
            taint = env.get(expr.id, Taint.UNKNOWN)
            if taint is Taint.UNKNOWN:
                taint = _heuristic_taint(expr.id)
            return taint
        if isinstance(expr, ast.Constant):
            return Taint.UNKNOWN
        if isinstance(expr, ast.Subscript):
            base = self.eval(expr.value, env)
            self.eval(expr.slice, env)
            if self.record is not None:
                self.record.subscript_taints[id(expr)] = base
            return base
        if isinstance(expr, ast.Attribute):
            return self.eval(expr.value, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Lambda):
            return Taint.UNKNOWN
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            taint = Taint.UNKNOWN
            for gen in expr.generators:
                taint |= self.eval(gen.iter, env)
            return taint
        # generic: join over child expressions
        taint = Taint.UNKNOWN
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taint |= self.eval(child, env)
            elif isinstance(child, ast.keyword):
                taint |= self.eval(child.value, env)
        return taint

    def _eval_call(self, call: ast.Call, env: dict[str, Taint]) -> Taint:
        receiver = Taint.UNKNOWN
        if isinstance(call.func, ast.Attribute):
            receiver = self.eval(call.func.value, env)
        arg_taints: list[tuple[ast.expr, Taint]] = []
        for arg in call.args:
            target = arg.value if isinstance(arg, ast.Starred) else arg
            arg_taints.append((target, self.eval(target, env)))
        for kw in call.keywords:
            arg_taints.append((kw.value, self.eval(kw.value, env)))
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _FIT_METHODS
            and self.record is not None
        ):
            self.record.fit_calls.append(
                FitCall(
                    method=call.func.attr,
                    lineno=call.lineno,
                    col=call.col_offset,
                    call=call,
                    receiver=receiver,
                    args=tuple(arg_taints),
                )
            )
        result = receiver
        for _, taint in arg_taints:
            result |= taint
        return result

    # -- assignment helpers ---------------------------------------------
    def _bind_target(
        self, target: ast.expr, taint: Taint, env: dict[str, Taint]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint, env)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint, env)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # weak update: train["col"] = f(test) makes train suspect
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                prior = env.get(base.id, _heuristic_taint(base.id))
                env[base.id] = prior | taint

    def _assign(
        self,
        targets: list[ast.expr],
        value: ast.expr,
        env: dict[str, Taint],
    ) -> None:
        value_taint = self.eval(value, env)
        for target in targets:
            if (
                isinstance(target, (ast.Tuple, ast.List))
                and isinstance(value, ast.Call)
                and _splitter_name(value.func, self.import_aliases)
            ):
                self._bind_split(target, value_taint, env)
            elif isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                value, (ast.Tuple, ast.List)
            ) and len(target.elts) == len(value.elts):
                for t_elt, v_elt in zip(target.elts, value.elts):
                    self._bind_target(t_elt, self.eval(v_elt, env), env)
            else:
                self._bind_target(target, value_taint, env)

    def _bind_split(
        self,
        target: ast.Tuple | ast.List,
        input_taint: Taint,
        env: dict[str, Taint],
    ) -> None:
        """``a, b[, c, d] = train_test_split(X[, y])`` provenance."""
        n = len(target.elts)
        if input_taint in (Taint.UNKNOWN, Taint.WHOLE) and n in (2, 4):
            pattern = [Taint.TRAIN, Taint.TEST] * (n // 2)
            if n == 4:
                pattern = [Taint.TRAIN, Taint.TEST, Taint.TRAIN, Taint.TEST]
            for elt, taint in zip(target.elts, pattern):
                self._bind_target(elt, taint, env)
        else:
            for elt in target.elts:
                self._bind_target(elt, input_taint, env)

    # -- node transfer --------------------------------------------------
    def transfer(self, node: CFGNode, env: dict[str, Taint]) -> dict[str, Taint]:
        env = dict(env)
        if node.kind == "stmt" and node.stmt is not None:
            stmt = node.stmt
            if isinstance(stmt, ast.Assign):
                self._assign(stmt.targets, stmt.value, env)
            elif isinstance(stmt, ast.AugAssign):
                taint = self.eval(stmt.value, env)
                if isinstance(stmt.target, ast.Name):
                    prior = env.get(
                        stmt.target.id, _heuristic_taint(stmt.target.id)
                    )
                    env[stmt.target.id] = prior | taint
                else:
                    self._bind_target(stmt.target, taint, env)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._assign([stmt.target], stmt.value, env)
            elif isinstance(stmt, ast.Delete):
                for name in self.facts[node.index].dels:
                    env.pop(name, None)
            elif isinstance(
                stmt,
                (
                    ast.Import,
                    ast.ImportFrom,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                for name in self.facts[node.index].gens:
                    env[name] = Taint.UNKNOWN
            elif isinstance(stmt, ast.Expr):
                self.eval(stmt.value, env)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                self.eval(stmt.value, env)
            elif isinstance(stmt, ast.Assert):
                self.eval(stmt.test, env)
            elif isinstance(stmt, ast.Raise):
                if stmt.exc is not None:
                    self.eval(stmt.exc, env)
        elif node.kind == "test":
            taint = self.eval(node.expr, env)
            if node.binds is not None:  # for-loop head: target <- iter
                self._bind_target(node.binds, taint, env)  # type: ignore[arg-type]
        elif node.kind == "withitem":
            taint = self.eval(node.expr, env)
            if node.binds is not None:
                self._bind_target(node.binds, taint, env)  # type: ignore[arg-type]
        elif node.kind == "except":
            self.eval(node.expr, env)
            if node.handler is not None and node.handler.name:
                env[node.handler.name] = Taint.UNKNOWN
        elif node.kind == "case":
            self.eval(node.expr, env)
            for name in self.facts[node.index].gens:
                env[name] = Taint.UNKNOWN
        return env


def _join_envs(envs: list[dict[str, Taint]]) -> dict[str, Taint]:
    out: dict[str, Taint] = {}
    for env in envs:
        for name, taint in env.items():
            out[name] = out.get(name, Taint.UNKNOWN) | taint
    return out


def _taint_fixpoint(
    cfg: CFG,
    seed: dict[str, Taint],
    interp: _TaintInterp,
) -> dict[int, dict[str, Taint]]:
    entry = cfg.entry.index
    out_envs: dict[int, dict[str, Taint]] = {n.index: {} for n in cfg}
    in_envs: dict[int, dict[str, Taint]] = {n.index: {} for n in cfg}
    out_envs[entry] = dict(seed)
    order = cfg.rpo()
    changed = True
    iterations = 0
    max_iterations = max(8, 2 * len(cfg))
    while changed and iterations < max_iterations:
        changed = False
        iterations += 1
        for idx in order:
            if idx == entry:
                continue
            node = cfg.nodes[idx]
            new_in = _join_envs([out_envs[p] for p in node.preds])
            new_out = interp.transfer(node, new_in)
            if new_in != in_envs[idx] or new_out != out_envs[idx]:
                in_envs[idx] = new_in
                out_envs[idx] = new_out
                changed = True
    return in_envs


# ---------------------------------------------------------------------------
# scope orchestration
# ---------------------------------------------------------------------------


def _arguments(args: ast.arguments) -> list[ast.arg]:
    out = args.posonlyargs + args.args
    if args.vararg:
        out.append(args.vararg)
    out.extend(args.kwonlyargs)
    if args.kwarg:
        out.append(args.kwarg)
    return out


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    return tuple(a.arg for a in _arguments(func.args))


def _seed_taints(
    scope_node: ast.AST | None,
) -> dict[str, Taint]:
    """Entry taint environment for one scope."""
    if scope_node is None:
        return {}
    assert isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef))
    seed: dict[str, Taint] = {}
    positional = [
        a.arg for a in scope_node.args.posonlyargs + scope_node.args.args
    ]
    if scope_node.name == "run_pipeline" and len(positional) >= 2:
        # the pipeline contract: run_pipeline(train, test) — positional
        # order defines provenance even when the params are renamed
        seed[positional[0]] = Taint.TRAIN
        seed[positional[1]] = Taint.TEST
    for name in _param_names(scope_node):
        if name not in seed:
            taint = _heuristic_taint(name)
            if taint is not Taint.UNKNOWN:
                seed[name] = taint
    return seed


def _scope_use_before_def(
    flow: ScopeFlow,
    cfg: CFG,
    reach_in: dict[int, set[tuple[str, int]]],
    bound_in: dict[int, set[str] | None],
    candidates: frozenset[str],
    facts: dict[int, _NodeFacts],
    result: ModuleDataflow,
) -> None:
    reachable = cfg.reachable()
    for node in cfg:
        if node.index not in reachable:
            continue
        uses = facts[node.index].uses
        walrus_set = facts[node.index].walrus
        seen_here: set[str] = set()
        for use in uses:
            name = use.id
            if name not in candidates or name in walrus_set:
                continue
            if name in seen_here:
                continue
            reaching = {
                d for (n, d) in reach_in.get(node.index, set()) if n == name
            }
            flow.def_use[(name, node.index)] = frozenset(reaching)
            if not reaching:
                seen_here.add(name)
                result.use_before_def.append(
                    UseBeforeDef(
                        name=name,
                        lineno=use.lineno,
                        col=use.col_offset,
                        definite=True,
                        scope=flow.name,
                    )
                )
                continue
            bound = bound_in.get(node.index)
            if bound is not None and name not in bound:
                seen_here.add(name)
                result.use_before_def.append(
                    UseBeforeDef(
                        name=name,
                        lineno=use.lineno,
                        col=use.col_offset,
                        definite=False,
                        scope=flow.name,
                    )
                )


def analyze_dataflow(
    tree: ast.Module,
    import_aliases: dict[str, str] | None = None,
) -> ModuleDataflow:
    """Run all per-scope analyses over a parsed module."""
    aliases = import_aliases or {}
    table = scope_table(tree)
    result = ModuleDataflow(table)
    for scope in table.scopes:
        cfg, facts = scope.cfg, scope.facts
        if cfg is None:
            continue  # class, lambda and comprehension scopes are not graphed
        params = () if scope.node is None else _param_names(scope.node)  # type: ignore[arg-type]

        # names bound anywhere in this scope = use-before-def candidates
        all_gens: set[str] = set(params)
        for fact in facts.values():
            all_gens.update(fact.gens)
        candidates = frozenset(all_gens - set(scope.declared) - _MODULE_DUNDERS)

        reach_in = _reaching_definitions(cfg, params, facts)
        bound_in = _definite_assignment(cfg, params, facts)
        taint_in = _taint_fixpoint(
            cfg, _seed_taints(scope.node), _TaintInterp(aliases, facts)
        )

        flow = ScopeFlow(
            name=cfg.name,
            cfg=cfg,
            params=params,
            bindings=candidates,
            reach_in=reach_in,
            taint_in=taint_in,
        )
        _scope_use_before_def(
            flow, cfg, reach_in, bound_in, candidates, facts, result
        )

        # final recording pass with the fixpoint IN environments
        recorder = _TaintInterp(aliases, facts, record=result)
        reachable = cfg.reachable()
        for node in cfg:
            if node.index in reachable and node.kind not in ("entry", "exit"):
                recorder.transfer(node, taint_in.get(node.index, {}))

        result.scopes.append(flow)
    return result
