"""Analysis driver: profiles, reports, and the parallel lint front end.

:func:`analyze_source` is the single entry point the generation stack
uses — parse once, classify syntax errors onto the SE taxonomy, run the
profile's rules over the AST, and hand back an :class:`AnalysisReport`
whose error findings convert directly into
:class:`~repro.generation.errors.PipelineError` objects the repair loop
already understands.

:func:`lint_paths` is the batch driver behind ``repro lint``: it fans
file analysis over a thread pool and returns reports keyed and ordered
by path, so the verdict is identical for any worker count.
"""

from __future__ import annotations

import ast
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.analysis.pipeline_rules import PIPELINE_RULES
from repro.analysis.repo_rules import REPO_RULES
from repro.analysis.schema_rules import SCHEMA_RULES
from repro.analysis.rules import (
    AnalysisContext,
    Finding,
    Rule,
    RuleConfig,
    Severity,
    run_rules,
)
from repro.generation.errors import ERROR_TYPES, PipelineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import DataCatalog

__all__ = [
    "PROFILES",
    "AnalysisReport",
    "FileReport",
    "analyze_source",
    "analyze_file",
    "lint_paths",
    "render_findings",
]

#: registered rule profiles; ``pipeline`` gates generated code,
#: ``repo`` self-lints the substrate in CI
PROFILES: dict[str, tuple[Rule, ...]] = {
    "pipeline": PIPELINE_RULES + SCHEMA_RULES,
    "repo": REPO_RULES,
}

#: rule id carried by syntax-classification findings (not a Rule —
#: there is no AST to run rules over when parsing fails)
SYNTAX_RULE_ID = "syntax"


def _classify_syntax_error(code: str, exc: SyntaxError) -> str:
    """Map a ``SyntaxError`` onto the SE sub-taxonomy.

    The old validator's final conditional was dead — both the prose-like
    branch and the fallthrough returned ``stray_prose``.  Fixed: a line
    that reads like a sentence is stray prose; anything else that still
    fails to parse (a dangling ``(``, a half-written statement) is
    truncated code.
    """
    lines = code.split("\n")
    line_no = (exc.lineno or 1) - 1
    line = lines[line_no] if 0 <= line_no < len(lines) else ""
    if line.strip().startswith("```") or "```" in code[:16]:
        return "markdown_fence"
    if isinstance(exc, IndentationError) or "indent" in (exc.msg or "").lower():
        return "broken_indentation"
    if "was never closed" in (exc.msg or "") or "unexpected EOF" in (exc.msg or ""):
        # distinguish mid-statement truncation from a single unclosed bracket
        if line_no >= len(lines) - 2 and not code.rstrip().endswith(")"):
            return "truncated_code"
        return "unclosed_bracket"
    words = line.replace(":", "").split()
    if len(words) >= 4 and all(w.isalpha() for w in words[:4]):
        return "stray_prose"
    return "truncated_code"


@dataclass
class AnalysisReport:
    """Everything one analysis pass found about one source string."""

    profile: str
    findings: list[Finding] = field(default_factory=list)
    syntax_error: bool = False

    @property
    def ok(self) -> bool:
        """Statically clean: no error-severity findings (warnings allowed)."""
        return not self.errors()

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def pipeline_errors(self) -> list[PipelineError]:
        """Error findings as taxonomy errors the repair loop consumes."""
        out: list[PipelineError] = []
        for finding in self.errors():
            type_name = finding.error_type or "wrong_api"
            out.append(PipelineError(
                ERROR_TYPES[type_name], finding.message, line=finding.line,
                details={"rule_id": finding.rule_id, "static": True},
            ))
        return out

    def first_error(self) -> PipelineError | None:
        errors = self.pipeline_errors()
        return errors[0] if errors else None


def analyze_source(
    code: str,
    profile: str = "pipeline",
    config: RuleConfig | None = None,
    filename: str = "<pipeline>",
    catalog: "DataCatalog | None" = None,
) -> AnalysisReport:
    """Parse and analyze one source string under a named profile.

    With a ``catalog``, the pipeline profile additionally grounds column
    references, dtypes and the target column in the real dataset schema
    (the ``schema-*`` rules no-op without one).
    """
    rules = PROFILES[profile]
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        type_name = _classify_syntax_error(code, exc)
        finding = Finding(
            rule_id=SYNTAX_RULE_ID,
            severity=Severity.ERROR,
            message=exc.msg or "invalid syntax",
            line=exc.lineno,
            col=exc.offset,
            error_type=type_name,
        )
        return AnalysisReport(profile=profile, findings=[finding], syntax_error=True)
    ctx = AnalysisContext(
        code, tree, filename=filename, profile=profile, catalog=catalog
    )
    findings = run_rules(ctx, rules, config)
    return AnalysisReport(profile=profile, findings=findings)


@dataclass
class FileReport:
    """One file's analysis outcome, for batch linting."""

    path: str
    report: AnalysisReport

    @property
    def findings(self) -> list[Finding]:
        return self.report.findings

    def errors(self) -> list[Finding]:
        return self.report.errors()

    def warnings(self) -> list[Finding]:
        return self.report.warnings()


def analyze_file(
    path: str | Path,
    profile: str = "repo",
    config: RuleConfig | None = None,
) -> FileReport:
    """Analyze one file on disk."""
    path = Path(path)
    code = path.read_text(encoding="utf-8")
    report = analyze_source(code, profile=profile, config=config, filename=str(path))
    return FileReport(path=str(path), report=report)


def _collect_py_files(paths: Sequence[str | Path]) -> list[Path]:
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: Sequence[str | Path],
    profile: str = "repo",
    config: RuleConfig | None = None,
    workers: int = 1,
) -> list[FileReport]:
    """Analyze every ``.py`` file under ``paths``, in parallel.

    Reports come back sorted by path whatever the worker count or
    completion order — the lint verdict is a pure function of the file
    contents (pinned by the workers-invariance property test).
    """
    files = _collect_py_files(paths)
    if not files:
        return []
    if workers <= 1:
        return [analyze_file(f, profile=profile, config=config) for f in files]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(
            lambda f: analyze_file(f, profile=profile, config=config), files
        ))
    return sorted(reports, key=lambda r: r.path)


def render_findings(reports: Iterable[FileReport]) -> str:
    """Plain-text rendering, one finding per line, ruff-style."""
    lines: list[str] = []
    for file_report in reports:
        for finding in file_report.findings:
            location = file_report.path
            if finding.line is not None:
                location += f":{finding.line}"
            lines.append(
                f"{location}: {finding.severity.value} "
                f"[{finding.rule_id}] {finding.message}"
            )
    return "\n".join(lines)
