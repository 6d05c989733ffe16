"""The pluggable rule engine: findings, rule protocol, per-rule config.

A :class:`Rule` inspects one parsed source file (through an
:class:`AnalysisContext`) and yields :class:`Finding` objects.  Rules are
pure functions of the AST — no execution, no I/O — so the whole pass is
deterministic and safe to run on untrusted generated code.

Severity semantics: ``error`` findings map onto the
:class:`~repro.generation.errors.PipelineError` taxonomy and route the
generated code straight to repair without executing it; ``warning``
findings are advisory (reported by ``repro lint``, never gating).
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.dataflow import ModuleDataflow
    from repro.catalog.catalog import DataCatalog

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "RuleConfig",
    "AnalysisContext",
    "run_rules",
]


class Severity(str, enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One static finding, attributable to a rule and a source line."""

    rule_id: str
    severity: Severity
    message: str
    line: int | None = None
    col: int | None = None
    error_type: str | None = None  # taxonomy name for error-severity findings
    details: dict[str, Any] = field(default_factory=dict, compare=False)

    def render(self) -> str:
        location = f":{self.line}" if self.line is not None else ""
        return f"{location} {self.severity.value} [{self.rule_id}] {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "line": self.line,
            "col": self.col,
            "error_type": self.error_type,
        }


@runtime_checkable
class Rule(Protocol):
    """Protocol every rule implements; registered into a profile."""

    id: str
    description: str
    default_severity: Severity

    def check(self, ctx: "AnalysisContext") -> Iterable[Finding]:  # pragma: no cover
        ...


@dataclass
class RuleConfig:
    """Per-rule enable switches and severity overrides.

    ``enabled`` maps rule id -> bool (absent means enabled);
    ``severities`` maps rule id -> :class:`Severity` override.
    """

    enabled: dict[str, bool] = field(default_factory=dict)
    severities: dict[str, Severity] = field(default_factory=dict)

    def is_enabled(self, rule_id: str) -> bool:
        return self.enabled.get(rule_id, True)

    def severity_for(self, rule: Rule) -> Severity:
        override = self.severities.get(rule.id)
        if override is None:
            return rule.default_severity
        return Severity(override)


class AnalysisContext:
    """Everything a rule may inspect about one source file."""

    def __init__(
        self,
        code: str,
        tree: ast.Module,
        filename: str = "<pipeline>",
        profile: str = "pipeline",
        catalog: "DataCatalog | None" = None,
    ) -> None:
        self.code = code
        self.lines = code.split("\n")
        self.tree = tree
        self.filename = filename
        self.profile = profile
        self.catalog = catalog
        self._import_aliases: dict[str, str] | None = None
        self._dataflow: "ModuleDataflow | None" = None
        self._nodes: tuple[ast.AST, ...] | None = None

    def walk(self) -> tuple[ast.AST, ...]:
        """All nodes of the module tree, in ``ast.walk`` order.

        Flattened once and shared: every full-tree rule iterates this
        instead of re-traversing with ``ast.walk`` — with ~a dozen such
        rules per profile the repeated traversal was the single largest
        cost of an analysis pass.
        """
        if self._nodes is None:
            self._nodes = tuple(ast.walk(self.tree))
        return self._nodes

    @property
    def dataflow(self) -> "ModuleDataflow":
        """Scope table + flow-sensitive results, lazy and shared."""
        if self._dataflow is None:
            from repro.analysis.dataflow import analyze_dataflow

            self._dataflow = analyze_dataflow(
                self.tree, import_aliases=self.import_aliases
            )
        return self._dataflow

    @property
    def import_aliases(self) -> dict[str, str]:
        """Local name -> dotted origin for every import in the file.

        ``import numpy as np`` yields ``{"np": "numpy"}``;
        ``from repro.ml import Ridge as R`` yields
        ``{"R": "repro.ml.Ridge"}``.
        """
        if self._import_aliases is None:
            aliases: dict[str, str] = {}
            for node in self.walk():
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        aliases[(alias.asname or alias.name).split(".")[0]] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        if alias.name != "*":
                            aliases[alias.asname or alias.name] = (
                                f"{node.module}.{alias.name}"
                            )
            self._import_aliases = aliases
        return self._import_aliases

    def dotted_name(self, node: ast.AST) -> str | None:
        """Render ``a.b.c`` chains, resolving the root through imports.

        ``np.random.rand`` becomes ``numpy.random.rand`` when ``np`` is an
        alias for numpy.  Returns ``None`` for non-name-rooted chains.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.import_aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


def run_rules(
    ctx: AnalysisContext,
    rules: Iterable[Rule],
    config: RuleConfig | None = None,
) -> list[Finding]:
    """Run every enabled rule; findings sorted by (line, rule, message)."""
    config = config or RuleConfig()
    findings: list[Finding] = []
    for rule in rules:
        if not config.is_enabled(rule.id):
            continue
        severity = config.severity_for(rule)
        for finding in rule.check(ctx):
            if finding.severity is not severity:
                finding = Finding(
                    rule_id=finding.rule_id,
                    severity=severity,
                    message=finding.message,
                    line=finding.line,
                    col=finding.col,
                    error_type=finding.error_type,
                    details=finding.details,
                )
            findings.append(finding)
    findings.sort(key=lambda f: (f.line or 0, f.rule_id, f.message))
    return findings
