"""Deterministic, LLM-free fixes for mechanical finding classes.

The repair loop's cheapest tier: when the static analyzer attributes an
error to a *mechanical* cause — a known library symbol whose import was
dropped, a markdown fence around the code, one mis-indented line, a
banned environment read with an obvious constant rewrite — the fix is a
pure function of the source and needs no model call.  The generator
tries this tier before the knowledge base and the LLM; ``repro lint
--fix`` exposes the same rewrites for files on disk.

The contract (pinned by property tests):

- every fix's output **parses** — a fixer whose rewrite does not parse
  is discarded, never returned;
- fixing is **idempotent** — once a finding class is repaired the fixer
  finds nothing left to do, so ``fix(fix(x)) == fix(x)``;
- clean code is **never changed** — fixers only run against reported
  findings/errors, and :func:`autofix` re-analyzes after every rewrite.

Fixers are intentionally line/AST surgery, not general program repair:
anything that needs judgement stays with the LLM tier.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.analysis.rules import Finding, RuleConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import DataCatalog
    from repro.generation.errors import PipelineError

__all__ = [
    "AppliedFix",
    "FixResult",
    "FixTarget",
    "autofix",
    "fix_error",
    "fix_findings",
]


@dataclass(frozen=True)
class FixTarget:
    """What a fixer is asked to repair (finding- or error-shaped)."""

    error_type: str
    message: str = ""
    line: int | None = None
    rule_id: str | None = None


@dataclass(frozen=True)
class AppliedFix:
    """One rewrite that was applied and survived the parse check."""

    fixer_id: str
    error_type: str
    description: str


@dataclass
class FixResult:
    """Output of one fixing pass."""

    code: str
    applied: tuple[AppliedFix, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.applied)


def _parses(code: str) -> bool:
    try:
        ast.parse(code)
    except SyntaxError:
        return False
    return True


# ---------------------------------------------------------------------------
# individual fixers: (code, target) -> rewritten code | None
# ---------------------------------------------------------------------------

#: where each known symbol comes from when it lives outside ``repro.ml``
_SPECIAL_IMPORTS = {
    "np": "import numpy as np",
    "numpy": "import numpy",
    "scipy": "import scipy",
    "networkx": "import networkx",
    "Table": "from repro.table.table import Table",
    "Column": "from repro.table.table import Column",
    "read_csv": "from repro.table.io_csv import read_csv",
    "write_csv": "from repro.table.io_csv import write_csv",
    "drop_missing_rows": "from repro.table.ops import drop_missing_rows",
    "gaussian_augment": "from repro.ml.augment import gaussian_augment",
    "oversample_minority": "from repro.ml.augment import oversample_minority",
}


def _import_line_for(symbol: str) -> str | None:
    if symbol in _SPECIAL_IMPORTS:
        return _SPECIAL_IMPORTS[symbol]
    import repro.ml as _ml

    if symbol in getattr(_ml, "__all__", ()) or hasattr(_ml, symbol):
        return f"from repro.ml import {symbol}"
    return None


def _insert_after_imports(code: str, new_lines: list[str]) -> str:
    """Insert lines after the last top-level import (or the docstring)."""
    tree = ast.parse(code)
    insert_at = 0
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            insert_at = (node.end_lineno or node.lineno)
        elif (
            insert_at == 0
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            insert_at = (node.end_lineno or node.lineno)
    lines = code.split("\n")
    return "\n".join(lines[:insert_at] + new_lines + lines[insert_at:])


def _fix_missing_imports(code: str, target: FixTarget) -> str | None:
    """Insert imports for *every* known-but-unbound library symbol."""
    from repro.analysis.dataflow import scope_table, undefined_uses
    from repro.analysis.pipeline_rules import KNOWN_LIBRARY_SYMBOLS

    try:
        tree = ast.parse(code)
    except SyntaxError:
        return None
    missing: list[str] = []
    for name, _ in undefined_uses(scope_table(tree)):
        if name in KNOWN_LIBRARY_SYMBOLS and name not in missing:
            missing.append(name)
    new_lines = []
    for name in sorted(missing):
        line = _import_line_for(name)
        if line is not None and line not in new_lines:
            new_lines.append(line)
    if not new_lines:
        return None
    return _insert_after_imports(code, new_lines)


def _fix_markdown_fence(code: str, target: FixTarget) -> str | None:
    lines = code.split("\n")
    kept = [ln for ln in lines if not ln.strip().startswith("```")]
    if len(kept) == len(lines):
        return None
    return "\n".join(kept)


def _looks_like_prose(line: str) -> bool:
    words = line.replace(":", "").split()
    return len(words) >= 4 and all(w.isalpha() for w in words[:4])


def _fix_stray_prose(code: str, target: FixTarget) -> str | None:
    lines = code.split("\n")
    candidates: list[int] = []
    if target.line is not None and 1 <= target.line <= len(lines):
        candidates.append(target.line - 1)
    candidates.extend(range(len(lines)))
    for idx in candidates:
        if _looks_like_prose(lines[idx]) and not lines[idx].startswith(" "):
            dropped = lines[:idx] + lines[idx + 1:]
            return "\n".join(dropped)
    return None


def _fix_indentation(code: str, target: FixTarget) -> str | None:
    if target.line is None:
        return None
    lines = code.split("\n")
    idx = target.line - 1
    if not 0 <= idx < len(lines) or not lines[idx].strip():
        return None
    stripped = lines[idx].lstrip()
    prev_indent = 0
    for back in range(idx - 1, -1, -1):
        if lines[back].strip():
            prev_indent = len(lines[back]) - len(lines[back].lstrip())
            if lines[back].rstrip().endswith(":"):
                prev_indent += 4
            break
    for candidate in (prev_indent, prev_indent + 4, max(0, prev_indent - 4)):
        attempt = list(lines)
        attempt[idx] = " " * candidate + stripped
        fixed = "\n".join(attempt)
        if fixed != code and _parses(fixed):
            return fixed
    return None


_OPENERS = {"(": ")", "[": "]", "{": "}"}


def _unclosed_brackets(code: str) -> list[tuple[str, int]]:
    """(closer, line index) stack of brackets left open, string-aware."""
    stack: list[tuple[str, int]] = []
    in_string: str | None = None
    i = 0
    line_no = 0
    while i < len(code):
        ch = code[i]
        if ch == "\n":
            line_no += 1
        if in_string is not None:
            if code.startswith(in_string, i):
                i += len(in_string)
                in_string = None
                continue
            if ch == "\\":
                i += 2
                continue
            i += 1
            continue
        if code.startswith(('"""', "'''"), i):
            in_string = code[i:i + 3]
            i += 3
            continue
        if ch in "\"'":
            in_string = ch
        elif ch == "#":
            while i < len(code) and code[i] != "\n":
                i += 1
            continue
        elif ch in _OPENERS:
            stack.append((_OPENERS[ch], line_no))
        elif ch in _OPENERS.values():
            if stack and stack[-1][0] == ch:
                stack.pop()
        i += 1
    return stack


def _fix_unclosed_bracket(code: str, target: FixTarget) -> str | None:
    stack = _unclosed_brackets(code)
    if not stack:
        return None
    lines = code.split("\n")
    # close innermost-first at the line the outermost opener started on
    closers = "".join(closer for closer, _ in reversed(stack))
    open_line = stack[0][1]
    if 0 <= open_line < len(lines):
        attempt = list(lines)
        attempt[open_line] = attempt[open_line].rstrip() + closers
        fixed = "\n".join(attempt)
        if _parses(fixed):
            return fixed
    fixed = code.rstrip() + closers + "\n"
    return fixed if _parses(fixed) else None


_ENV_GET_RE = re.compile(
    r"os\.(?:environ\.get|getenv)\(\s*(?P<key>[^,()]+?)"
    r"(?:\s*,\s*(?P<default>[^()]+?))?\s*\)"
)
_ENV_ITEM_RE = re.compile(r"os\.environ\[[^\]]*\]")


def _fix_env_access(code: str, target: FixTarget) -> str | None:
    if target.line is None:
        return None
    lines = code.split("\n")
    idx = target.line - 1
    if not 0 <= idx < len(lines):
        return None
    line = lines[idx]

    def replace_get(match: re.Match[str]) -> str:
        default = match.group("default")
        return default.strip() if default else '""'

    new_line = _ENV_GET_RE.sub(replace_get, line)
    new_line = _ENV_ITEM_RE.sub('""', new_line)
    if new_line == line:
        return None
    attempt = list(lines)
    if new_line.strip() in ('""', ""):
        del attempt[idx]  # a bare expression statement is pointless
    else:
        attempt[idx] = new_line
    fixed = "\n".join(attempt)
    return fixed if _parses(fixed) else None


def _fix_drop_banned_line(code: str, target: FixTarget) -> str | None:
    """Drop a single-line banned statement (``open(...)`` probe, banned
    import); if removal breaks the parse, substitute ``pass``."""
    if target.line is None:
        return None
    lines = code.split("\n")
    idx = target.line - 1
    if not 0 <= idx < len(lines) or not lines[idx].strip():
        return None
    indent = len(lines[idx]) - len(lines[idx].lstrip())
    dropped = lines[:idx] + lines[idx + 1:]
    fixed = "\n".join(dropped)
    if _parses(fixed):
        return fixed
    substituted = list(lines)
    substituted[idx] = " " * indent + "pass"
    fixed = "\n".join(substituted)
    return fixed if _parses(fixed) else None


def _fix_policy_import(code: str, target: FixTarget) -> str | None:
    """Re-point one import the library policy rejected at its stand-in.

    The ``library-policy`` finding names the module and, when the policy
    permits a stand-in, the replacement.  A ``from pkg import X`` line is
    re-pointed at the stand-in.  An ``import`` line drops only the
    violating alias (the code already imports the ``repro`` equivalents
    it uses); a line left with no statement is blanked, so line numbers
    stay put, or becomes ``pass`` where a block would be left empty.
    """
    from repro.analysis.pipeline_rules import POLICY_REWRITE_RE

    match = POLICY_REWRITE_RE.search(target.message)
    if match is None or target.line is None:
        return None
    module, replacement = match["module"], match["replacement"]
    lines = code.split("\n")
    idx = target.line - 1
    if not 0 <= idx < len(lines):
        return None
    line = lines[idx]
    if not line.lstrip().startswith("import "):
        lines[idx] = line.replace(module, replacement)
        return "\n".join(lines)
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return None
    node = next((
        n for n in ast.walk(tree)
        if isinstance(n, ast.Import) and n.lineno == target.line
        and n.end_lineno == target.line
        and any(alias.name == module for alias in n.names)
    ), None)
    if node is None:
        return None
    kept = [alias for alias in node.names if alias.name != module]
    raw = line.encode()
    head, tail = raw[:node.col_offset], raw[node.end_col_offset:]
    for statement in ([ast.unparse(ast.Import(names=kept))] if kept else ["", "pass"]):
        lines[idx] = (head + statement.encode() + tail).decode()
        if not lines[idx].strip():
            lines[idx] = ""
        fixed = "\n".join(lines)
        if _parses(fixed):
            return fixed
    return None


_RANDOM_STATE_NONE_RE = re.compile(r"random_state\s*=\s*None")
_DEFAULT_RNG_EMPTY_RE = re.compile(r"default_rng\(\s*\)")


def _fix_unseeded(code: str, target: FixTarget) -> str | None:
    fixed = _RANDOM_STATE_NONE_RE.sub("random_state=0", code)
    fixed = _DEFAULT_RNG_EMPTY_RE.sub("default_rng(0)", fixed)
    if fixed == code or not _parses(fixed):
        return None
    return fixed


def _fix_entry_point(code: str, target: FixTarget) -> str | None:
    """Wrap the one plausible (train, test) function as ``run_pipeline``."""
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return None
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if any(d.name == "run_pipeline" for d in defs):
        return None
    twoarg = [
        d for d in defs
        if len(d.args.posonlyargs) + len(d.args.args) >= 2
    ]
    if len(twoarg) != 1:
        return None
    name = twoarg[0].name
    wrapper = (
        f"\n\ndef run_pipeline(train, test):\n"
        f"    return {name}(train, test)\n"
    )
    fixed = code.rstrip("\n") + wrapper
    return fixed if _parses(fixed) else None


# ---------------------------------------------------------------------------
# registry + drivers
# ---------------------------------------------------------------------------

_Fixer = Callable[[str, "FixTarget"], "str | None"]


@dataclass(frozen=True)
class _FixerSpec:
    fixer_id: str
    error_types: frozenset[str]
    apply: _Fixer = field(compare=False)
    description: str = ""
    #: rule ids whose findings the fixer may act on (None: any source)
    rule_ids: frozenset[str | None] | None = None

    def matches(self, target: FixTarget) -> bool:
        return target.error_type in self.error_types and (
            self.rule_ids is None or target.rule_id in self.rule_ids
        )


_FIXERS: tuple[_FixerSpec, ...] = (
    _FixerSpec(
        "strip-markdown-fence", frozenset({"markdown_fence"}),
        _fix_markdown_fence, "remove ``` fence lines",
    ),
    _FixerSpec(
        "drop-stray-prose", frozenset({"stray_prose"}),
        _fix_stray_prose, "drop a prose line the LLM left in the code",
    ),
    _FixerSpec(
        "reindent-line", frozenset({"broken_indentation"}),
        _fix_indentation, "re-align one mis-indented line",
    ),
    _FixerSpec(
        "close-brackets", frozenset({"unclosed_bracket"}),
        _fix_unclosed_bracket, "append the missing closing bracket(s)",
    ),
    _FixerSpec(
        "insert-imports", frozenset({"missing_import"}),
        _fix_missing_imports, "import every known-but-unbound library symbol",
    ),
    _FixerSpec(
        "rewrite-env-access", frozenset({"env_variable"}),
        _fix_env_access, "replace environment reads with their defaults",
    ),
    # scoped to what the banned-api rule (or a runtime error) reports: a
    # generic wrong_api such as a signature mismatch has no line-drop fix
    _FixerSpec(
        "drop-banned-line", frozenset({"missing_data_file", "wrong_api"}),
        _fix_drop_banned_line, "remove a banned single-line statement",
        rule_ids=frozenset({None, "banned-api"}),
    ),
    # library-policy findings only: a runtime ModuleNotFoundError is a
    # missing_package too, and stays with the knowledge base
    _FixerSpec(
        "rewrite-policy-import", frozenset({"missing_package"}),
        _fix_policy_import, "re-point a policy-violating import at its stand-in",
        rule_ids=frozenset({"library-policy"}),
    ),
    _FixerSpec(
        "pin-seed", frozenset({"no_convergence"}),
        _fix_unseeded, "pin random_state/default_rng seeds",
    ),
    _FixerSpec(
        "wrap-entry-point", frozenset({"truncated_code"}),
        _fix_entry_point, "wrap the sole (train, test) function",
    ),
)


def fix_target(code: str, target: FixTarget) -> FixResult:
    """Try every fixer registered for the target's error class."""
    for spec in _FIXERS:
        if not spec.matches(target):
            continue
        fixed = spec.apply(code, target)
        if fixed is not None and fixed != code and _parses(fixed):
            return FixResult(
                code=fixed,
                applied=(
                    AppliedFix(spec.fixer_id, target.error_type, spec.description),
                ),
            )
    return FixResult(code=code)


def fix_error(code: str, error: "PipelineError") -> FixResult:
    """Repair-loop entry: one taxonomy error -> one attempted rewrite."""
    details = getattr(error, "details", None) or {}
    target = FixTarget(
        error_type=error.error_type.name,
        message=error.message,
        line=error.line,
        rule_id=details.get("rule_id"),
    )
    return fix_target(code, target)


def fix_findings(code: str, findings: Sequence[Finding]) -> FixResult:
    """One pass over reported findings (used per round by autofix)."""
    applied: list[AppliedFix] = []
    for finding in findings:
        if finding.error_type is None:
            continue
        target = FixTarget(
            error_type=finding.error_type,
            message=finding.message,
            line=finding.line,
            rule_id=finding.rule_id,
        )
        result = fix_target(code, target)
        if result.changed:
            code = result.code
            applied.extend(result.applied)
            break  # line numbers shifted; re-analyze before fixing more
    return FixResult(code=code, applied=tuple(applied))


def autofix(
    code: str,
    profile: str = "pipeline",
    config: RuleConfig | None = None,
    catalog: "DataCatalog | None" = None,
    max_rounds: int = 8,
) -> FixResult:
    """Analyze-and-fix to a fixpoint (the ``repro lint --fix`` driver).

    Each round re-analyzes so every rewrite is validated against the
    rules that produced it: the loop stops when the file is clean, no
    fixer applies, or the round budget runs out.  Clean input comes back
    byte-identical with no fixes applied.
    """
    from repro.analysis.engine import analyze_source

    applied: list[AppliedFix] = []
    for _ in range(max_rounds):
        report = analyze_source(
            code, profile=profile, config=config, catalog=catalog
        )
        if not report.findings:
            break
        result = fix_findings(code, report.findings)
        if not result.changed:
            break
        code = result.code
        applied.extend(result.applied)
    return FixResult(code=code, applied=tuple(applied))
