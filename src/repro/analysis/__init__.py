"""Static analysis for generated pipelines and for the repro codebase itself.

The package implements the pre-execution validation pass of the repair
loop (paper Section 4.2: syntactic errors are cheap to find, runtime
errors are expensive) as a multi-pass AST analyzer:

- :mod:`repro.analysis.cfg` — statement-level control-flow graphs
  (branches, loops, ``try``/``except``/``finally``, ``with``,
  ``match``, ``break``/``continue``/``return`` edges);
- :mod:`repro.analysis.dataflow` — the single name-resolution pass: one
  walk builds the scope table (module/function/lambda/class/
  comprehension scopes, ``global``/``nonlocal``, walrus, ``AnnAssign``,
  ``match`` captures) together with the CFG of every module and
  function body; :func:`undefined_uses` answers "is this name bound
  anywhere visible", and the flow-sensitive analyses run over the same
  table: reaching definitions and def-use chains, definite assignment
  (path-sensitive use-before-def), and the train/test/whole-dataset
  provenance-taint lattice behind the alias-aware leakage rule;
- :mod:`repro.analysis.rules` — the pluggable rule engine
  (:class:`Rule` protocol, :class:`Finding`, per-rule enable/severity
  :class:`RuleConfig`);
- :mod:`repro.analysis.pipeline_rules` — ML-pipeline rules (data
  leakage, use-before-def, banned APIs, nondeterminism, known-signature
  misuse), and the opt-in ``library-policy`` rule a generator's
  :class:`~repro.analysis.pipeline_rules.LibraryPolicy` runs;
- :mod:`repro.analysis.schema_rules` — catalog-grounded checks: when a
  :class:`~repro.catalog.catalog.DataCatalog` is supplied, column
  references, dtypes and the target column are verified against the
  real dataset schema (with did-you-mean suggestions);
- :mod:`repro.analysis.fixes` — the deterministic, LLM-free auto-fix
  tier the repair loop tries before spending a model call (also
  ``repro lint --fix``);
- :mod:`repro.analysis.repo_rules` — the self-lint profile run over
  ``src/repro``, ``tests`` and ``benchmarks`` in CI (unseeded
  randomness, wall-clock reads, lock re-entry, swallowed
  ``BaseException``, unbounded blocking waits);
- :mod:`repro.analysis.engine` — profiles, :func:`analyze_source`,
  and :func:`lint_paths`, the batch entry point behind ``repro lint``.

Error-severity findings map onto the 23-type
:class:`~repro.generation.errors.PipelineError` taxonomy so the repair
loop consumes them exactly like execution failures — without paying
``execute_pipeline_code``.
"""

from repro.analysis.cfg import CFG, CFGNode, build_cfg
from repro.analysis.dataflow import (
    FitCall,
    ModuleDataflow,
    Scope,
    ScopeFlow,
    ScopeTable,
    Taint,
    UseBeforeDef,
    analyze_dataflow,
    scope_table,
    undefined_uses,
)
from repro.analysis.engine import (
    PROFILES,
    AnalysisReport,
    FileReport,
    analyze_file,
    analyze_source,
    lint_paths,
    render_findings,
)
from repro.analysis.fixes import (
    AppliedFix,
    FixResult,
    FixTarget,
    autofix,
    fix_error,
    fix_findings,
)
from repro.analysis.rules import Finding, Rule, RuleConfig, Severity

__all__ = [
    "AnalysisReport",
    "AppliedFix",
    "CFG",
    "CFGNode",
    "FileReport",
    "Finding",
    "FitCall",
    "FixResult",
    "FixTarget",
    "ModuleDataflow",
    "PROFILES",
    "Rule",
    "RuleConfig",
    "Scope",
    "ScopeFlow",
    "ScopeTable",
    "Severity",
    "Taint",
    "UseBeforeDef",
    "analyze_dataflow",
    "analyze_file",
    "analyze_source",
    "autofix",
    "build_cfg",
    "fix_error",
    "fix_findings",
    "lint_paths",
    "render_findings",
    "scope_table",
    "undefined_uses",
]
