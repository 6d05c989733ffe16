"""Oracle for the one generation loop behind CatDB and CatDB Chain.

``CatDB.generate`` and ``CatDBChain.generate`` were once two copies of
the same run loop that differed only in their prompt steps.  Both are
embedded below verbatim as the reference.  On a seeded corpus (clean
runs at beta 1/2/3, code-generation fault injection, a zero repair
budget, and a flaky transport without retries that gives up at the
first step or inside a middle chain step's repair loop) the one loop
must leave the same report, the same knowledge-base traces, the same
metric counters and the same span sequence as the method it replaced.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.catalog.catalog import DataCatalog
from repro.catalog.profiler import profile_table
from repro.generation.generator import (
    _DEGRADE_ERRORS,
    CatDB,
    CatDBChain,
    GenerationReport,
)
from repro.llm.base import ResilientLLM
from repro.llm.faults import FlakyLLM
from repro.llm.mock import MockLLM
from repro.ml.model_selection import train_test_split
from repro.ml.reuse import fit_reuse_scope
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.prompt.builder import build_prompt_plan
from repro.prompt.rules import SECTION_FE, SECTION_MODEL, SECTION_PREPROCESSING
from repro.resilience.retry import RetryPolicy
from repro.table.table import Table


# -- reference: the two run loops the shared one replaced ------------------------


def _reference_catdb_generate(
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


def _reference_chain_generate(
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


class _ReferenceCatDB(CatDB):
    generate = _reference_catdb_generate


class _ReferenceCatDBChain(CatDBChain):
    generate = _reference_chain_generate


# -- corpus ------------------------------------------------------------------------


def _split(table: Table, target: str, task_type: str):
    labels = [str(v) for v in table[target]]
    train, test = train_test_split(table, test_size=0.3, random_state=0,
                                   stratify=labels)
    return train, test, profile_table(table, target=target, task_type=task_type)


def _build_corpus():
    rng = np.random.default_rng(7)
    n = 200
    mixed = {f"f{i}": rng.normal(size=n) for i in range(5)}
    mixed["cat"] = rng.choice(["u", "v", "w"], size=n).tolist()
    mixed["noisy"] = [None if i % 9 == 0 else float(v)
                      for i, v in enumerate(rng.normal(size=n))]
    mixed["y"] = np.where(mixed["f0"] - mixed["f2"] > 0, "yes", "no").tolist()
    labels = rng.choice(["a", "b", "c"], size=n).tolist()
    multi = {f"g{i}": rng.integers(0, 5, size=n).astype(float) for i in range(3)}
    multi["tag"] = rng.choice(["p", "q"], size=n).tolist()
    multi["y"] = labels
    return {
        "mixed": _split(Table.from_dict(mixed, name="mixed"), "y", "binary"),
        "multi": _split(Table.from_dict(multi, name="multi"), "y", "multiclass"),
    }


@pytest.fixture(scope="module")
def corpus():
    return _build_corpus()


def _flaky(seed: int) -> ResilientLLM:
    """A 10%-fault transport with no retries: the first fault gives up."""
    flaky = FlakyLLM(MockLLM("llama3.1-70b", seed=seed), fault_rate=0.1,
                     seed=seed, sleep=lambda _s: None)
    return ResilientLLM(flaky, policy=RetryPolicy(max_attempts=1, base_delay=0.0),
                        sleep=lambda _s: None)


def _generator(cls, beta: int, llm, **kwargs):
    if beta > 1:
        return cls(llm, beta=beta, **kwargs)
    return cls(llm, **kwargs)


#: span attributes that identify what a step or repair did (timings differ)
_SPAN_KEYS = (
    "section", "chunk", "fixed_by", "reason", "variant", "beta", "iteration",
    "error_type", "success", "fallback", "degraded", "attempt", "clean",
    "findings",
)


def _observe(generator, data):
    """Run one generate under a fresh tracer and metrics registry."""
    train, test, catalog = data
    tracer, metrics = Tracer(), MetricsRegistry()
    previous_tracer, previous_metrics = set_tracer(tracer), set_metrics(metrics)
    try:
        report = generator.generate(train, test, catalog)
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
    # span ids count up from 1 in open order, so parents compare directly
    spans = [
        (
            span.name, span.parent_id, span.status,
            {k: span.attributes[k] for k in _SPAN_KEYS if k in span.attributes},
        )
        for span in tracer.spans
    ]
    outcome = {
        "variant": report.variant,
        "code": report.code,
        "success": report.success,
        "metrics": report.metrics,
        "fallback_used": report.fallback_used,
        "degraded": report.degraded,
        "degraded_reason": report.degraded_reason,
        "errors": [(e.error_type.name, e.message, e.line) for e in report.errors],
        "fix_attempts": report.fix_attempts,
        "kb_fixes": report.kb_fixes,
        "llm_fixes": report.llm_fixes,
        "static_fixes": report.static_fixes,
        "llm_fixes_avoided": report.llm_fixes_avoided,
        "static_fix_types": report.static_fix_types,
        "static_exec_skipped": report.static_exec_skipped,
        "library_violations": len(report.library_violations),
        "interactions": [asdict(i) for i in report.cost.interactions],
        "prompt_tokens": report.cost.prompt_tokens,
        "completion_tokens": report.cost.completion_tokens,
        "llm_latency_seconds": report.llm_latency_seconds,
        "kb_traces": [asdict(t) for t in generator.knowledge_base.traces],
        "counters": metrics.snapshot(),
    }
    return outcome, spans


def _compare(beta: int, make_llm, data, **kwargs):
    ref_cls = _ReferenceCatDB if beta == 1 else _ReferenceCatDBChain
    new_cls = CatDB if beta == 1 else CatDBChain
    expected = _observe(_generator(ref_cls, beta, make_llm(), **kwargs), data)
    actual = _observe(_generator(new_cls, beta, make_llm(), **kwargs), data)
    assert actual[0] == expected[0]
    assert actual[1] == expected[1]
    return expected


@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("name", ["mixed", "multi"])
def test_clean_runs(corpus, name, beta):
    outcome, _ = _compare(
        beta, lambda: MockLLM("gpt-4o", seed=0, fault_injection=False),
        corpus[name],
    )
    assert outcome["success"]


@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_codegen_fault_injection(corpus, seed, beta):
    _compare(beta, lambda: MockLLM("llama3.1-70b", seed=seed), corpus["mixed"])


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("seed", [0, 3])
def test_zero_repair_budget(corpus, seed, beta):
    _compare(beta, lambda: MockLLM("llama3.1-70b", seed=seed), corpus["mixed"],
             max_fix_attempts=0)


def _first_step_gave_up(outcome) -> bool:
    return outcome["degraded"] and not any(
        i["role"] == "pipeline" for i in outcome["interactions"]
    )


def _middle_repair_gave_up(spans) -> bool:
    """A repair gave up inside a chain step that is neither first nor last."""
    steps = [span_id for span_id, (name, *_rest) in enumerate(spans, start=1)
             if name == "generate.chain_step"]
    for name, parent, _, attrs in spans:
        if (
            name == "generate.repair" and attrs.get("fixed_by") == "degraded"
            and parent in steps[1:]
            and spans[parent - 1][3]["section"] != SECTION_MODEL
        ):
            return True
    return False


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_flaky_transport_without_retries(corpus, beta):
    first_step = middle_repair = 0
    for seed in (0, 3, 5):
        outcome, spans = _compare(beta, lambda: _flaky(seed), corpus["mixed"])
        first_step += _first_step_gave_up(outcome)
        middle_repair += beta > 1 and _middle_repair_gave_up(spans)
    # the corpus reaches both degrade points the shared loop must keep
    assert first_step
    assert middle_repair or beta == 1
