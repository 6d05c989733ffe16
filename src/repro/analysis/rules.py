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
import threading
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
    "parse_source",
    "STDLIB_GLOBAL_RNG_FNS",
    "global_rng_call",
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


# CPython keeps the recursion depth of its AST-to-object conversion in
# interpreter-wide state (seen on 3.11).  A thread switch inside that
# conversion, such as a gc callback or finalizer running Python code,
# lets a concurrent parse corrupt the count and raise ``SystemError``.
# Grid workers analyze generated code in threads, so parses take turns.
_PARSE_LOCK = threading.Lock()


def parse_source(code: str) -> ast.Module:
    """``ast.parse`` that is safe to call from several threads at once."""
    with _PARSE_LOCK:
        return ast.parse(code)


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


#: module-level functions of the stdlib ``random`` module: each draws
#: from, or reseeds, its one hidden process-global generator
#: (``getstate``/``setstate`` only save and restore it)
STDLIB_GLOBAL_RNG_FNS = frozenset({
    "random", "uniform", "triangular", "randint", "randrange", "choice",
    "choices", "shuffle", "sample", "getrandbits", "randbytes", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "vonmisesvariate",
    "gammavariate", "betavariate", "paretovariate", "weibullvariate",
    "binomialvariate", "seed",
})

#: numpy.random attributes that are seeded constructors, not global draws
_NP_RANDOM_SEEDED = {"default_rng", "SeedSequence", "Generator", "BitGenerator"}


def global_rng_call(
    ctx: AnalysisContext, node: ast.Call
) -> tuple[str, str] | None:
    """Classify a call that uses a process-global RNG as ``(kind, name)``.

    ``kind`` is ``"np-unseeded"`` for ``numpy.random.default_rng()``
    without a seed, ``"np-global"`` for any other ``numpy.random.<name>``
    call that is not a seeded constructor, and ``"stdlib"`` for a
    :data:`STDLIB_GLOBAL_RNG_FNS` function; ``None`` for any other call.
    """
    dotted = ctx.dotted_name(node.func)
    if dotted is None:
        return None
    if dotted.startswith("numpy.random."):
        attr = dotted.split(".", 2)[2]
        if attr == "default_rng" and not node.args and not node.keywords:
            return "np-unseeded", attr
        if "." not in attr and attr not in _NP_RANDOM_SEEDED:
            return "np-global", attr
    elif dotted.startswith("random."):
        attr = dotted.split(".", 1)[1]
        if attr in STDLIB_GLOBAL_RNG_FNS:
            return "stdlib", attr
    return None


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
