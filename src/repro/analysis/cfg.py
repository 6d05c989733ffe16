"""Statement-level control-flow graphs for the flow-sensitive analyzer.

A :class:`CFG` holds one node per *simple* statement plus synthetic nodes
for the points where control can diverge: ``entry``/``exit`` markers, loop
and branch tests, ``except`` handler entries, ``with`` item binders, and
``match`` case binders.  Compound statements (``if``/``while``/``for``/
``try``/``with``/``match``) are decomposed into their parts; nested
function and class definitions are treated as atomic statements in the
enclosing graph (their bodies get graphs of their own, built by the
scope walk in :mod:`repro.analysis.dataflow`).

Edge semantics:

- ``if``: test node branches to both arms (or straight past when there is
  no ``else``); arms merge at the successor statement.
- ``while``/``for``: a loop-head test node with a back edge from the body,
  a fall-through edge into the ``else`` clause (or past the loop), and
  ``break``/``continue`` edges to the loop exit/head.
- ``try``: every statement in the ``try`` body — and the program point
  just before it — gets an edge to each handler entry, modelling "an
  exception may fire anywhere inside".  ``finally`` bodies sit on every
  normal exit path.
- ``with``: one binder node per item, then the body.
- ``match``: the subject node fans out to one binder node per case and
  also falls through directly (no case matched, no wildcard guaranteed).
- ``return``/``raise`` jump to the synthetic exit (``raise`` additionally
  targets active handlers); ``break``/``continue`` jump within the
  innermost loop.
- short-circuit expressions (``and``/``or``/ternary) stay inside a single
  node: the analyses downstream are statement-granular.

The graph is deliberately conservative: extra edges (e.g. a ``while
True`` fall-through) only make downstream may-analyses weaker, never
unsound.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["CFG", "CFGNode", "build_cfg"]


@dataclass
class CFGNode:
    """One program point.

    ``kind`` is ``"entry"``, ``"exit"``, ``"stmt"`` (a whole simple
    statement in ``stmt``), ``"test"`` (only ``expr`` evaluates here),
    ``"except"`` (handler entry; ``handler`` carries the AST node so the
    bound name is visible), ``"withitem"`` or ``"case"`` (binder nodes;
    ``expr`` evaluates, ``binds`` is the bound target/pattern).
    """

    index: int
    kind: str
    stmt: ast.stmt | None = None
    expr: ast.expr | None = None
    binds: ast.AST | None = None
    handler: ast.excepthandler | None = None
    lineno: int = 0
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CFGNode({self.index}, {self.kind!r}, line={self.lineno})"


class CFG:
    """Control-flow graph over one scope body (module or function)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: list[CFGNode] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")

    # -- construction ---------------------------------------------------
    def _new(self, kind: str, **payload: object) -> CFGNode:
        node = CFGNode(index=len(self.nodes), kind=kind, **payload)  # type: ignore[arg-type]
        self.nodes.append(node)
        return node

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self.nodes)

    def reachable(self) -> set[int]:
        """Node indices reachable from the entry marker."""
        seen: set[int] = set()
        stack = [self.entry.index]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            stack.extend(self.nodes[idx].succs)
        return seen

    def rpo(self) -> list[int]:
        """Reverse post-order from entry — a good worklist seed order."""
        order: list[int] = []
        seen: set[int] = set()

        def visit(idx: int) -> None:
            stack = [(idx, iter(self.nodes[idx].succs))]
            seen.add(idx)
            while stack:
                top, succs = stack[-1]
                advanced = False
                for nxt in succs:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(self.nodes[nxt].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(top)
                    stack.pop()

        visit(self.entry.index)
        return list(reversed(order))


_SIMPLE = (
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Expr,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Pass,
    ast.Assert,
    ast.Delete,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


class _Builder:
    def __init__(self, name: str) -> None:
        self.cfg = CFG(name)
        # stack of (loop_head_index, break_target_accumulator)
        self._loops: list[tuple[int, list[int]]] = []
        # stack of lists of active handler-entry node indices
        self._handlers: list[list[int]] = []

    def build(self, body: list[ast.stmt]) -> CFG:
        exits = self._seq(body, {self.cfg.entry.index})
        for idx in exits:
            self.cfg.add_edge(idx, self.cfg.exit.index)
        return self.cfg

    # -- helpers --------------------------------------------------------
    def _node(self, kind: str, preds: set[int], **payload: object) -> CFGNode:
        node = self.cfg._new(kind, **payload)
        for p in preds:
            self.cfg.add_edge(p, node.index)
        # any statement inside a try body may raise into the handlers
        for handlers in self._handlers:
            for h in handlers:
                self.cfg.add_edge(node.index, h)
        return node

    def _seq(self, body: list[ast.stmt], preds: set[int]) -> set[int]:
        current = set(preds)
        for stmt in body:
            if not current:
                break  # unreachable tail (after return/raise/break)
            current = self._stmt(stmt, current)
        return current

    # -- statement dispatch ---------------------------------------------
    def _stmt(self, stmt: ast.stmt, preds: set[int]) -> set[int]:
        line = getattr(stmt, "lineno", 0)
        if isinstance(stmt, _SIMPLE):
            node = self._node("stmt", preds, stmt=stmt, lineno=line)
            return {node.index}
        if isinstance(stmt, ast.Return):
            node = self._node("stmt", preds, stmt=stmt, lineno=line)
            self.cfg.add_edge(node.index, self.cfg.exit.index)
            return set()
        if isinstance(stmt, ast.Raise):
            node = self._node("stmt", preds, stmt=stmt, lineno=line)
            self.cfg.add_edge(node.index, self.cfg.exit.index)
            return set()
        if isinstance(stmt, ast.Break):
            node = self._node("stmt", preds, stmt=stmt, lineno=line)
            if self._loops:
                self._loops[-1][1].append(node.index)
            return set()
        if isinstance(stmt, ast.Continue):
            node = self._node("stmt", preds, stmt=stmt, lineno=line)
            if self._loops:
                self.cfg.add_edge(node.index, self._loops[-1][0])
            return set()
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, ast.While):
            return self._while(stmt, preds)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, preds)
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds)
        # anything new in future grammars: treat as an atomic statement
        node = self._node("stmt", preds, stmt=stmt, lineno=line)
        return {node.index}

    def _if(self, stmt: ast.If, preds: set[int]) -> set[int]:
        test = self._node("test", preds, expr=stmt.test, lineno=stmt.lineno)
        then_exits = self._seq(stmt.body, {test.index})
        if stmt.orelse:
            else_exits = self._seq(stmt.orelse, {test.index})
        else:
            else_exits = {test.index}
        return then_exits | else_exits

    def _while(self, stmt: ast.While, preds: set[int]) -> set[int]:
        head = self._node("test", preds, expr=stmt.test, lineno=stmt.lineno)
        breaks: list[int] = []
        self._loops.append((head.index, breaks))
        body_exits = self._seq(stmt.body, {head.index})
        self._loops.pop()
        for idx in body_exits:
            self.cfg.add_edge(idx, head.index)
        if stmt.orelse:
            after = self._seq(stmt.orelse, {head.index})
        else:
            after = {head.index}
        return after | set(breaks)

    def _for(self, stmt: ast.For | ast.AsyncFor, preds: set[int]) -> set[int]:
        head = self._node(
            "test",
            preds,
            expr=stmt.iter,
            binds=stmt.target,
            lineno=stmt.lineno,
        )
        breaks: list[int] = []
        self._loops.append((head.index, breaks))
        body_exits = self._seq(stmt.body, {head.index})
        self._loops.pop()
        for idx in body_exits:
            self.cfg.add_edge(idx, head.index)
        if stmt.orelse:
            after = self._seq(stmt.orelse, {head.index})
        else:
            after = {head.index}
        return after | set(breaks)

    def _try(self, stmt: ast.Try, preds: set[int]) -> set[int]:
        handler_entries: list[CFGNode] = []
        for handler in stmt.handlers:
            entry = self.cfg._new(
                "except",
                expr=handler.type,
                handler=handler,
                lineno=handler.lineno,
            )
            handler_entries.append(entry)
        entry_indices = [n.index for n in handler_entries]
        # the state *before* the try body can also reach each handler
        # (the very first statement may raise before binding anything)
        for p in preds:
            for h in entry_indices:
                self.cfg.add_edge(p, h)
        self._handlers.append(entry_indices)
        body_exits = self._seq(stmt.body, preds)
        self._handlers.pop()
        combined = self._seq(stmt.orelse, body_exits) if stmt.orelse else body_exits
        for entry, handler in zip(handler_entries, stmt.handlers):
            combined = combined | self._seq(handler.body, {entry.index})
        if stmt.finalbody:
            combined = self._seq(stmt.finalbody, combined)
        return combined

    def _with(self, stmt: ast.With | ast.AsyncWith, preds: set[int]) -> set[int]:
        current = set(preds)
        for item in stmt.items:
            node = self._node(
                "withitem",
                current,
                expr=item.context_expr,
                binds=item.optional_vars,
                lineno=stmt.lineno,
            )
            current = {node.index}
        return self._seq(stmt.body, current)

    def _match(self, stmt: ast.Match, preds: set[int]) -> set[int]:
        subject = self._node(
            "test", preds, expr=stmt.subject, lineno=stmt.lineno
        )
        exits: set[int] = set()
        wildcard = False
        for case in stmt.cases:
            binder = self._node(
                "case",
                {subject.index},
                expr=case.guard,
                binds=case.pattern,
                lineno=case.pattern.lineno,
            )
            exits |= self._seq(case.body, {binder.index})
            if (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.guard is None
            ):
                wildcard = True
        if not wildcard:
            exits |= {subject.index}  # no case matched
        return exits


def build_cfg(body: list[ast.stmt], name: str = "<module>") -> CFG:
    """Build a CFG over one scope body (nested defs stay atomic)."""
    return _Builder(name).build(body)

