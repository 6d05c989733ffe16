"""Algorithm 4 — PIPEGEN: generate, validate, and repair pipelines.

``CatDB`` implements the single-prompt variant (beta = 1); ``CatDBChain``
repeats the generate/validate/fix loop for each chain step, passing each
step's code into the next prompt (Figure 6 ordering: all pre-processing
prompts, then all feature-engineering prompts, then one model-selection
prompt).

The error-management loop follows the paper exactly: statically validate
(ast), execute on a local sample, then (a) apply a local knowledge-base
patch when the error signature is known, (b) otherwise send a syntax-error
prompt (code + error only) or a runtime-error prompt (code + error +
projected metadata) to the LLM, bounded by ``tau_2`` attempts, with a
deterministic hand-crafted fallback pipeline as the last resort.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.catalog.catalog import DataCatalog
from repro.generation.cost import CostModel
from repro.analysis.engine import analyze_source
from repro.analysis.fixes import fix_error, fix_findings
from repro.analysis.rules import AnalysisContext, run_rules
from repro.generation.errors import ErrorGroup, PipelineError
from repro.generation.executor import ExecutionResult, execute_pipeline_code
from repro.generation.knowledge_base import KnowledgeBase
from repro.llm.base import LLMClient, extract_code_block
from repro.llm.codegen import generate_pipeline_code
from repro.llm.profiles import get_profile
from repro.ml.reuse import fit_reuse_scope
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.errors import ResilienceGiveUp, TransientError
from repro.prompt.builder import ChainPromptPlan, build_prompt_plan
from repro.prompt.combinations import MetadataCombination
from repro.prompt.rules import SECTION_FE, SECTION_MODEL, SECTION_PREPROCESSING
from repro.prompt.templates import render_error_prompt
from repro.table.table import Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.pipeline_rules import LibraryPolicy
    from repro.analysis.rules import Finding

__all__ = ["GenerationReport", "CatDB", "CatDBChain"]

_SAMPLE_ROWS = 250

#: LLM-transport failures the generator absorbs by degrading gracefully
#: instead of raising: resilience give-ups (retries exhausted) plus raw
#: transient/transport errors from an unwrapped client.
_DEGRADE_ERRORS = (ResilienceGiveUp, TransientError, ConnectionError, TimeoutError)


@dataclass
class GenerationReport:
    """Everything one generation run produced and cost."""

    dataset: str
    llm: str
    variant: str  # "catdb" | "catdb-chain"
    success: bool = False
    code: str = ""
    metrics: dict[str, Any] = field(default_factory=dict)
    errors: list[PipelineError] = field(default_factory=list)
    cost: CostModel = field(default_factory=CostModel)
    llm_latency_seconds: float = 0.0
    pipeline_runtime_seconds: float = 0.0
    generation_seconds: float = 0.0
    fix_attempts: int = 0
    kb_fixes: int = 0
    llm_fixes: int = 0
    static_fixes: int = 0  # errors repaired by the deterministic fix tier
    llm_fixes_avoided: int = 0  # static fixes with no KB patch available
    static_fix_types: dict[str, int] = field(default_factory=dict)
    fallback_used: bool = False
    degraded: bool = False
    degraded_reason: str = ""
    library_violations: list[Finding] = field(default_factory=list)  # policy findings left
    static_exec_skipped: int = 0  # candidate executions avoided by the static gate

    @property
    def end_to_end_seconds(self) -> float:
        """Wall-clock work plus simulated LLM latency (Table 8 accounting)."""
        return self.generation_seconds + self.llm_latency_seconds

    @property
    def total_tokens(self) -> int:
        return self.cost.total_tokens

    @property
    def primary_metric(self) -> float | None:
        """Headline test metric under the documented fixed priority
        (``test_auc`` > ``test_r2`` > ``test_accuracy``); use
        :meth:`primary_metric_for` when the task type is known."""
        from repro.generation.executor import select_primary_metric

        return select_primary_metric(self.metrics)

    def primary_metric_for(self, task_type: str) -> float | None:
        """Task-aware headline metric (regression prefers ``test_r2``)."""
        from repro.generation.executor import select_primary_metric

        return select_primary_metric(self.metrics, task_type)


class _GeneratorBase:
    """Shared machinery of CatDB and CatDB Chain."""

    variant = "catdb"

    def __init__(
        self,
        llm: LLMClient,
        alpha: int | None = None,
        combination: MetadataCombination | int = 11,
        max_fix_attempts: int = 5,
        knowledge_base: KnowledgeBase | None = None,
        use_knowledge_base: bool = True,
        sample_rows: int = _SAMPLE_ROWS,
        library_policy: "LibraryPolicy | None" = None,
        exec_timeout_seconds: float | None = None,
        exec_mode: str | None = None,
        exec_memory_mb: int | None = None,
        static_gate: bool = True,
        static_fix: bool = True,
    ) -> None:
        self.llm = llm
        self.alpha = alpha
        self.combination = combination
        self.max_fix_attempts = max_fix_attempts
        self.knowledge_base = knowledge_base if knowledge_base is not None else KnowledgeBase()
        self.use_knowledge_base = use_knowledge_base
        self.sample_rows = sample_rows
        self.library_policy = library_policy
        self.exec_timeout_seconds = exec_timeout_seconds
        # "inproc" | "pool" | None ($REPRO_EXEC_MODE): pool mode runs
        # every candidate in an isolated subprocess worker, so hostile
        # generated code cannot take the repair loop down with it
        self.exec_mode = exec_mode
        self.exec_memory_mb = exec_memory_mb
        # when on, statically-dirty code routes to repair without paying
        # an execution; off reproduces the execute-everything behaviour,
        # which tests use as the reference the gate must agree with
        self.static_gate = static_gate
        # when on, mechanical error classes are rewritten by the
        # deterministic fix tier before the KB and the LLM are consulted
        self.static_fix = static_fix

    # -- LLM round trips -----------------------------------------------------------

    def _submit(
        self, report: GenerationReport, text: str, role: str, section: str,
        iteration: int = 0, attempt: int = 0,
    ) -> str:
        response = self.llm.complete(text)
        report.cost.record(
            role=role, section=section,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            iteration=iteration, attempt=attempt,
        )
        report.llm_latency_seconds += float(
            response.metadata.get("latency_seconds", 0.0)
        )
        code = extract_code_block(response.content)
        if self.library_policy is not None:
            code = self._enforce_policy(report, code)
        return code

    def _enforce_policy(self, report: GenerationReport, code: str) -> str:
        """Run the ``library-policy`` rule and its rewrite fixer to a fixpoint.

        Each round fixes the first rewritable finding and re-checks, so
        line numbers always refer to the current code; what no rewrite
        clears is recorded on the report.  Unparseable code has nothing
        to check and is left to the static gate.
        """
        while True:
            try:
                tree = ast.parse(code)
            except SyntaxError:
                return code
            findings = run_rules(AnalysisContext(code, tree), (self.library_policy,))
            result = fix_findings(code, findings)
            if not result.changed:
                report.library_violations.extend(findings)
                return code
            code = result.code

    # -- error management (Algorithm 4, lines 3-15) ---------------------------------

    def _note_degraded(self, report: GenerationReport, exc: BaseException) -> None:
        """Record that the LLM transport gave up; generation continues."""
        report.degraded = True
        report.degraded_reason = f"{type(exc).__name__}: {exc}"
        get_metrics().inc("generate.degraded", reason=type(exc).__name__)

    def _execute(self, code: str, train: Table, test: Table) -> ExecutionResult:
        return execute_pipeline_code(
            code, train, test,
            timeout_seconds=self.exec_timeout_seconds,
            mode=self.exec_mode,
            memory_mb=self.exec_memory_mb,
        )

    def _analyze(
        self,
        report: GenerationReport,
        code: str,
        catalog: DataCatalog | None = None,
    ) -> PipelineError | None:
        """Static gate: run the full pipeline profile, skip exec on error.

        Every finding is counted per rule; an error-severity finding maps
        onto the taxonomy and is returned *without* executing the code —
        the repair loop consumes it exactly like an observed failure, so
        a statically-dirty candidate never costs a pipeline run.  With a
        catalog, column references and dtypes are grounded in the real
        schema (the ``schema-*`` rules).
        """
        metrics = get_metrics()
        with get_tracer().span("static.analyze") as span:
            analysis = analyze_source(code, profile="pipeline", catalog=catalog)
            for finding in analysis.findings:
                metrics.inc("static.findings", rule=finding.rule_id)
            error = analysis.first_error()
            span.set(findings=len(analysis.findings), clean=error is None)
            if error is not None:
                span.set(error_type=error.error_type.name)
                metrics.inc("static.exec_skipped")
                report.static_exec_skipped += 1
            return error

    def _first_error(
        self,
        report: GenerationReport,
        code: str,
        train_sample: Table,
        test_sample: Table,
        catalog: DataCatalog | None = None,
    ) -> PipelineError | None:
        with get_tracer().span("generate.validate") as span:
            if self.static_gate:
                error = self._analyze(report, code, catalog=catalog)
                if error is not None:
                    span.set(error_type=error.error_type.name)
                    return error
            result = self._execute(code, train_sample, test_sample)
            if result.error is not None:
                span.set(error_type=result.error.error_type.name)
            return result.error

    def _repair_loop(
        self,
        report: GenerationReport,
        code: str,
        plan: ChainPromptPlan,
        train_sample: Table,
        test_sample: Table,
        section: str = "single",
    ) -> str:
        catalog = plan.catalog
        tracer = get_tracer()
        metrics = get_metrics()
        for attempt in range(self.max_fix_attempts):
            error = self._first_error(
                report, code, train_sample, test_sample, catalog=catalog
            )
            if error is None:
                return code
            report.errors.append(error)
            report.fix_attempts += 1
            metrics.inc("pipeline.errors", type=error.error_type.name)
            metrics.inc("repair.iterations")

            with tracer.span(
                "generate.repair", attempt=attempt, section=section,
                error_type=error.error_type.name,
            ) as span:
                # cheapest tier first: a deterministic rewrite costs
                # neither a KB lookup nor an LLM round-trip, and the next
                # loop iteration re-analyzes the result (parity contract)
                if self.static_fix:
                    outcome = fix_error(code, error)
                    if outcome.changed:
                        self.knowledge_base.record(
                            catalog.info.name, self.llm.model, error,
                            fixed_by="static",
                        )
                        type_name = error.error_type.name
                        report.static_fixes += 1
                        report.static_fix_types[type_name] = (
                            report.static_fix_types.get(type_name, 0) + 1
                        )
                        metrics.inc("repair.static_fixes", type=type_name)
                        kb_would_fix = self.use_knowledge_base and (
                            self.knowledge_base.find_patch(error, code)
                            is not None
                        )
                        if not kb_would_fix:
                            report.llm_fixes_avoided += 1
                            metrics.inc("repair.llm_fixes_avoided")
                        span.set(fixed_by="static")
                        code = outcome.code
                        continue

                if self.use_knowledge_base:
                    entry = self.knowledge_base.find_patch(error, code)
                else:
                    entry = None
                if entry is not None:
                    self.knowledge_base.record(
                        catalog.info.name, self.llm.model, error, fixed_by="kb"
                    )
                    code = entry.patch(code)
                    report.kb_fixes += 1
                    metrics.inc("repair.kb_fixes")
                    span.set(fixed_by="kb")
                    continue

                include_metadata = error.group is ErrorGroup.RE
                self.knowledge_base.record(
                    catalog.info.name, self.llm.model, error, fixed_by="llm"
                )
                prompt = render_error_prompt(
                    catalog.info,
                    code,
                    error.error_type.name,
                    error.message,
                    error.line,
                    attempt=attempt,
                    schema=plan._full_schema if include_metadata else (),
                    rules=plan.rules if include_metadata else (),
                    include_metadata=include_metadata,
                )
                # One repair iteration is exactly one logical LLM call,
                # even when the mock repair internally falls back to full
                # regeneration (that happens inside the same completion)
                # and regardless of transport retries (ResilientLLM does
                # not consume iteration budget).  A give-up ends the loop
                # with the best code so far instead of raising.
                try:
                    code = self._submit(
                        report, prompt, role="error", section=section,
                        attempt=attempt,
                    )
                except _DEGRADE_ERRORS as exc:
                    self._note_degraded(report, exc)
                    span.set(fixed_by="degraded")
                    return code
                report.llm_fixes += 1
                metrics.inc("repair.llm_fixes")
                span.set(fixed_by="llm")
        return code

    # -- fallback (Algorithm 4, lines 16-17) ------------------------------------------

    def _handcraft(self, plan: ChainPromptPlan) -> str:
        """Deterministic fallback pipeline built straight from the catalog."""
        payload = {
            "task": "pipeline",
            "dataset": plan.catalog.info.to_dict(),
            "schema": plan._full_schema,
            "rules": [r.to_payload() for r in plan.rules],
            "subtasks": [SECTION_PREPROCESSING, SECTION_FE, SECTION_MODEL],
        }
        return generate_pipeline_code(payload, get_profile("gpt-4o"), salt=0)

    # -- finalization --------------------------------------------------------------------

    def _finalize(
        self,
        report: GenerationReport,
        code: str,
        plan: ChainPromptPlan,
        train: Table,
        test: Table,
        train_sample: Table,
        test_sample: Table,
    ) -> GenerationReport:
        metrics = get_metrics()
        with get_tracer().span("generate.finalize") as span:
            # why the fallback fired: none | no_code | validation:<type>
            # | final_run:<type>
            reason = "none"
            if not code:
                reason = "no_code"
            else:
                error = self._first_error(
                    report, code, train_sample, test_sample,
                    catalog=plan.catalog,
                )
                if error is not None:
                    reason = f"validation:{error.error_type.name}"
            if reason != "none":
                report.fallback_used = True
                code = self._handcraft(plan)
            result: ExecutionResult = self._execute(code, train, test)
            if not result.success and not report.fallback_used:
                if result.error is not None:
                    report.errors.append(result.error)
                    reason = f"final_run:{result.error.error_type.name}"
                report.fallback_used = True
                code = self._handcraft(plan)
                result = self._execute(code, train, test)
            report.code = code
            report.success = result.success
            report.metrics = result.metrics
            report.pipeline_runtime_seconds = result.runtime_seconds
            if not result.success and result.error is not None:
                report.errors.append(result.error)
            span.set(
                success=result.success, fallback=report.fallback_used,
                degraded=report.degraded, reason=reason,
            )
        if report.fallback_used:
            metrics.inc("generate.fallbacks")
        metrics.inc(
            "generate.runs", variant=self.variant,
        )
        metrics.inc("generate.success" if report.success else "generate.failure")
        return report

    def _samples(self, train: Table, test: Table) -> tuple[Table, Table]:
        return (
            train.sample_rows(min(self.sample_rows, train.n_rows), seed=0),
            test.sample_rows(min(self.sample_rows, test.n_rows), seed=1),
        )


class CatDB(_GeneratorBase):
    """Single-prompt CatDB (beta = 1)."""

    variant = "catdb"

    def generate(
        self,
        train: Table,
        test: Table,
        catalog: DataCatalog,
        iteration: int = 0,
    ) -> GenerationReport:
        start = time.perf_counter()
        report = GenerationReport(
            dataset=catalog.info.name, llm=self.llm.model, variant=self.variant
        )
        with fit_reuse_scope(), get_tracer().span(
            "generate.run", dataset=catalog.info.name, llm=self.llm.model,
            variant=self.variant, iteration=iteration,
        ) as span:
            plan = build_prompt_plan(
                catalog, alpha=self.alpha, beta=1,
                combination=self.combination, iteration=iteration,
            )
            assert plan.single is not None
            train_sample, test_sample = self._samples(train, test)
            try:
                code = self._submit(
                    report, plan.single.text, role="pipeline", section="single",
                    iteration=iteration,
                )
            except _DEGRADE_ERRORS as exc:
                # no pipeline at all: _finalize falls back to the
                # deterministic handcrafted pipeline
                self._note_degraded(report, exc)
                code = ""
            else:
                code = self._repair_loop(
                    report, code, plan, train_sample, test_sample
                )
            report.generation_seconds = time.perf_counter() - start
            report = self._finalize(
                report, code, plan, train, test, train_sample, test_sample
            )
            report.generation_seconds = time.perf_counter() - start
            span.set(
                success=report.success,
                prompt_tokens=report.cost.prompt_tokens,
                completion_tokens=report.cost.completion_tokens,
            )
        return report


class CatDBChain(_GeneratorBase):
    """CatDB Chain (beta > 1): chunked prompts with per-step verification."""

    variant = "catdb-chain"

    def __init__(self, llm: LLMClient, beta: int = 2, **kwargs: Any) -> None:
        super().__init__(llm, **kwargs)
        if beta < 2:
            raise ValueError("CatDBChain requires beta >= 2")
        self.beta = beta

    def generate(
        self,
        train: Table,
        test: Table,
        catalog: DataCatalog,
        iteration: int = 0,
    ) -> GenerationReport:
        start = time.perf_counter()
        report = GenerationReport(
            dataset=catalog.info.name, llm=self.llm.model, variant=self.variant
        )
        tracer = get_tracer()
        with fit_reuse_scope(), tracer.span(
            "generate.run", dataset=catalog.info.name, llm=self.llm.model,
            variant=self.variant, iteration=iteration, beta=self.beta,
        ) as run_span:
            plan = build_prompt_plan(
                catalog, alpha=self.alpha, beta=self.beta,
                combination=self.combination, iteration=iteration,
            )
            train_sample, test_sample = self._samples(train, test)
            code: str | None = None

            # Figure 6 ordering: all preprocessing prompts, then all
            # feature-engineering prompts, then one model-selection prompt;
            # the code so far is appended to every prompt.  Once the
            # transport gives up (retries exhausted) the chain stops and
            # the best code so far goes to finalization.
            sections = [
                (section, chunk_index)
                for section in (SECTION_PREPROCESSING, SECTION_FE)
                for chunk_index in range(plan.beta)
            ] + [(SECTION_MODEL, 0)]
            for section, chunk_index in sections:
                with tracer.span(
                    "generate.chain_step", section=section,
                    chunk=chunk_index,
                ):
                    prompt = plan.chain_step(section, chunk_index, code)
                    try:
                        code = self._submit(
                            report, prompt.text, role="pipeline",
                            section=section, iteration=iteration,
                        )
                    except _DEGRADE_ERRORS as exc:
                        self._note_degraded(report, exc)
                        break
                    code = self._repair_loop(
                        report, code, plan, train_sample, test_sample,
                        section=section,
                    )
                if report.degraded:
                    break
            report.generation_seconds = time.perf_counter() - start
            report = self._finalize(
                report, code or "", plan, train, test, train_sample,
                test_sample,
            )
            report.generation_seconds = time.perf_counter() - start
            run_span.set(
                success=report.success,
                prompt_tokens=report.cost.prompt_tokens,
                completion_tokens=report.cost.completion_tokens,
            )
        return report
