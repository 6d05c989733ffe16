"""Which public entry point belongs to which layer, and the per-layer
metrics one traced pass yields.

Layer names follow the ``repro`` packages: ``datasets``, ``table``,
``catalog``, ``prompt``, ``llm``, ``analysis``, ``generation`` (the
generators), ``repair`` (``fix_error``), ``execute``
(``execute_pipeline_code``), ``ml``, ``execpool``, ``runner``,
``experiments`` (the experiment entry points the workloads call) and
``bench`` (this benchmark's own code).
"""

from __future__ import annotations

import statistics
from typing import Any, Sequence

import repro.ml as ml
from repro.analysis.engine import analyze_source
from repro.analysis.fixes import fix_error
from repro.catalog.materialize import join_multi_table
from repro.catalog.profiler import profile_table
from repro.catalog.refinement import refine_catalog
from repro.catalog.streaming import profile_table_streaming
from repro.datasets.registry import DatasetBundle, load_dataset
from repro.execpool.pool import ExecPool
from repro.experiments.common import prepare_dataset, run_catdb
from repro.generation.executor import execute_pipeline_code
from repro.generation.generator import CatDB, CatDBChain
from repro.llm.mock import MockLLM
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.prompt.builder import ChainPromptPlan, build_prompt_plan
from repro.prompt.templates import render_error_prompt
from repro.table.io_csv import iter_csv_chunks, read_csv, write_csv

from arith import SpanRecord, busy_share, layer_self_times, self_times
from probe import Probe, Recorder

__all__ = ["LAYERS", "PER_LAYER_UNITS", "build_probe", "span_agreement", "per_layer_metrics"]

LAYERS = (
    "datasets", "table", "catalog", "prompt", "llm", "analysis", "generation",
    "repair", "execute", "ml", "execpool", "runner", "experiments", "bench",
)

#: every per-layer metric, with its unit, in report order
PER_LAYER_UNITS: dict[str, str] = {
    "datasets.load_s": "s",
    "table.read_csv_s": "s",
    "table.join_s": "s",
    "catalog.profile_s": "s",
    "catalog.profile_calls": "count",
    "catalog.stream_s": "s",
    "catalog.refine_s": "s",
    "prompt.build_s": "s",
    "prompt.error_prompts": "count",
    "llm.calls": "count",
    "llm.s": "s",
    "llm.prompt_tokens": "count",
    "llm.completion_tokens": "count",
    "analysis.calls": "count",
    "analysis.s": "s",
    "analysis.ms_per_call": "ms",
    "analysis.exec_skipped": "count",
    "repair.rounds": "count",
    "repair.static_fixes": "count",
    "repair.kb_fixes": "count",
    "repair.llm_fixes": "count",
    "repair.fix_s": "s",
    "repair.useful_ratio": "ratio",
    "execute.runs": "count",
    "execute.runs_per_op": "count",
    "execute.sample_s": "s",
    "execute.full_s": "s",
    "execute.errors": "count",
    "execute.timeouts": "count",
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "ml.fit_calls": "count",
    "ml.forest_fit_s": "s",
    "execpool.execute_s": "s",
    "execpool.overhead_s": "s",
    "execpool.spawns": "count",
    "execpool.kills": "count",
    "runner.cell_p50_s": "s",
    "runner.busy_share": "ratio",
    "runner.wait_s": "s",
    "obs.trace_overhead_share": "ratio",
    "obs.span_disagreements": "count",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
}

_FOREST = (RandomForestClassifier, RandomForestRegressor)

#: program span -> the benchmark span around the same call
PROGRAM_SPANS = {
    "execute.pipeline": "execute_pipeline_code",
    "static.analyze": "analyze_source",
    "llm.call": "complete",
    "profile.table": "profile_table",
}


def build_probe(recorder: Recorder, workload: Any) -> Probe:
    """A probe over every layer entry point the workloads reach."""
    probe = Probe(recorder)
    fn = probe.function
    fn(load_dataset, "datasets", "load_dataset")
    probe.prop(DatasetBundle, "unified", "datasets", "unified")
    fn(read_csv, "table", "read_csv")
    probe.generator(iter_csv_chunks, "table", "iter_csv_chunks")
    fn(write_csv, "table", "write_csv")
    fn(join_multi_table, "table", "join_multi_table")
    fn(profile_table, "catalog", "profile_table")
    fn(profile_table_streaming, "catalog", "profile_table_streaming")
    fn(refine_catalog, "catalog", "refine_catalog")
    fn(build_prompt_plan, "prompt", "build_prompt_plan")
    fn(render_error_prompt, "prompt", "render_error_prompt")
    probe.method(ChainPromptPlan, "chain_step", "prompt", "chain_step")
    probe.method(MockLLM, "complete", "llm", "complete", hook=_llm_hook)
    fn(analyze_source, "analysis", "analyze_source")
    fn(fix_error, "repair", "fix_error")
    probe.method(CatDB, "generate", "generation", "generate")
    probe.method(CatDBChain, "generate", "generation", "generate")

    def execute_hook(span: SpanRecord, args: tuple, kwargs: dict, result: Any) -> None:
        train = args[1] if len(args) > 1 else kwargs["train"]
        span.attrs["full"] = workload.is_full_split(train)
        span.attrs["failed"] = not result.success
        span.attrs["timed_out"] = bool(
            result.error is not None and result.error.details.get("timed_out")
        )

    fn(execute_pipeline_code, "execute", "execute_pipeline_code", hook=execute_hook)
    probe.method(ExecPool, "execute", "execpool", "pool_execute", hook=_pool_hook)
    fn(prepare_dataset, "experiments", "prepare_dataset")
    fn(run_catdb, "experiments", "run_catdb")
    for export in ml.__all__:
        cls = getattr(ml, export)
        if not isinstance(cls, type):
            continue
        for attr in ("fit", "predict", "predict_proba"):
            if attr not in cls.__dict__:
                continue
            if attr != "fit":
                name = "predict"
            elif issubclass(cls, _FOREST):
                name = "forest_fit"
            else:
                name = "fit"
            probe.method(cls, attr, "ml", name)
    return probe


def _llm_hook(span: SpanRecord, args: tuple, kwargs: dict, response: Any) -> None:
    span.attrs["prompt_tokens"] = response.prompt_tokens
    span.attrs["completion_tokens"] = response.completion_tokens


def _pool_hook(span: SpanRecord, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["runtime"] = result.runtime_seconds


def _in_session(spans: Sequence[SpanRecord]) -> list[SpanRecord]:
    """Spans under an op or a grid cell, i.e. inside a program run session."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for span in spans:
        node = by_id.get(span.parent_id) if span.parent_id is not None else None
        while node is not None and node.name not in ("op", "cell"):
            node = by_id.get(node.parent_id) if node.parent_id is not None else None
        if node is not None:
            out.append(span)
    return out


def span_agreement(
    spans: Sequence[SpanRecord],
    program_spans: Sequence[dict[str, Any]],
    rel_tol: float = 0.05,
    abs_tol_per_call: float = 0.002,
) -> list[dict[str, Any]]:
    """Compare the benchmark's timer with the program's own span for the
    calls both measure: equal call counts, and totals within
    ``rel_tol`` of the larger plus ``abs_tol_per_call`` per call."""
    inside = _in_session(spans)
    rows = []
    for program_name, bench_name in PROGRAM_SPANS.items():
        outer = [s.duration for s in inside if s.name == bench_name]
        inner = [
            float(p.get("duration_seconds", 0.0))
            for p in program_spans if p["name"] == program_name
        ]
        bench_s, program_s = sum(outer), sum(inner)
        tolerance = rel_tol * max(bench_s, program_s) + abs_tol_per_call * len(outer)
        rows.append({
            "span": program_name,
            "bench_calls": len(outer), "program_calls": len(inner),
            "bench_s": bench_s, "program_s": program_s,
            "agree": len(outer) == len(inner) and abs(bench_s - program_s) <= tolerance,
        })
    return rows


def _useful_repairs(program_spans: Sequence[dict[str, Any]]) -> tuple[int, int]:
    """(repair rounds, rounds whose output passed the next validation)."""
    by_record: dict[Any, list[dict[str, Any]]] = {}
    for span in program_spans:
        by_record.setdefault(span["record"], []).append(span)
    rounds = useful = 0
    for record_spans in by_record.values():
        ordered = sorted(record_spans, key=lambda s: s["start_seconds"])
        for i, span in enumerate(ordered):
            if span["name"] != "generate.repair":
                continue
            rounds += 1
            end = span["start_seconds"] + span["duration_seconds"]
            nxt = next(
                (s for s in ordered[i + 1:]
                 if s["name"] == "generate.validate" and s["start_seconds"] >= end),
                None,
            )
            if nxt is not None and "error_type" not in nxt.get("attributes", {}):
                useful += 1
    return rounds, useful


def per_layer_metrics(
    setup_spans: Sequence[SpanRecord],
    spans: Sequence[SpanRecord],
    program_spans: Sequence[dict[str, Any]],
    ops: Sequence[Any],
    traced_wall: float,
    untraced_wall: float,
    spawns: int,
    workers: int,
) -> dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric for one traced pass."""

    def named(*names: str, source: Sequence[SpanRecord] = spans) -> list[SpanRecord]:
        return [s for s in source if s.name in names]

    def total(*names: str, source: Sequence[SpanRecord] = spans) -> float:
        return sum(s.duration for s in named(*names, source=source))

    def extra(key: str) -> float:
        return float(sum(op.extra.get(key, 0) for op in ops))

    own = self_times(spans)
    both = list(setup_spans) + list(spans)
    executes = named("execute_pipeline_code")
    analyses = named("analyze_source")
    llm_calls = named("complete")
    fits = named("fit", "forest_fit")
    pool_calls = named("pool_execute")
    cells = named("cell")
    generate_ops = [op for op in ops if "execute_runs" in op.outcome]
    rounds, useful = _useful_repairs(program_spans)
    metrics: dict[str, float] = {
        "datasets.load_s": total("load_dataset", "unified", source=both),
        "table.read_csv_s": total("read_csv", "iter_csv_chunks"),
        "table.join_s": total("join_multi_table", source=both),
        "catalog.profile_s": total("profile_table"),
        "catalog.profile_calls": len(named("profile_table")),
        "catalog.stream_s": total("profile_table_streaming"),
        "catalog.refine_s": total("refine_catalog"),
        "prompt.build_s": total("build_prompt_plan", "render_error_prompt", "chain_step"),
        "prompt.error_prompts": len(named("render_error_prompt")),
        "llm.calls": len(llm_calls),
        "llm.s": sum(s.duration for s in llm_calls),
        "llm.prompt_tokens": sum(s.attrs.get("prompt_tokens", 0) for s in llm_calls),
        "llm.completion_tokens": sum(s.attrs.get("completion_tokens", 0) for s in llm_calls),
        "analysis.calls": len(analyses),
        "analysis.s": sum(s.duration for s in analyses),
        "analysis.ms_per_call": (
            1000.0 * sum(s.duration for s in analyses) / len(analyses) if analyses else 0.0
        ),
        "analysis.exec_skipped": extra("exec_skipped"),
        "repair.rounds": extra("repair_rounds"),
        "repair.static_fixes": extra("static_fixes"),
        "repair.kb_fixes": extra("kb_fixes"),
        "repair.llm_fixes": extra("llm_fixes"),
        "repair.fix_s": total("fix_error"),
        "repair.useful_ratio": useful / rounds if rounds else 0.0,
        "execute.runs": len(executes),
        "execute.runs_per_op": len(executes) / len(generate_ops) if generate_ops else 0.0,
        "execute.sample_s": sum(s.duration for s in executes if not s.attrs.get("full")),
        "execute.full_s": sum(s.duration for s in executes if s.attrs.get("full")),
        "execute.errors": sum(1 for s in executes if s.attrs.get("failed")),
        "execute.timeouts": sum(1 for s in executes if s.attrs.get("timed_out")),
        "ml.fit_s": sum(own[s.span_id] for s in fits),
        "ml.predict_s": sum(own[s.span_id] for s in named("predict")),
        "ml.fit_calls": len(fits),
        "ml.forest_fit_s": total("forest_fit"),
        "execpool.execute_s": sum(s.duration for s in pool_calls),
        "execpool.overhead_s": sum(s.duration - s.attrs.get("runtime", 0.0) for s in pool_calls),
        "execpool.spawns": spawns,
        "execpool.kills": extra("kills"),
        "runner.cell_p50_s": statistics.median([s.duration for s in cells]) if cells else 0.0,
        "runner.busy_share": (
            busy_share([s.duration for s in cells], workers, traced_wall) if cells else 0.0
        ),
        "runner.wait_s": extra("wait_s") / len(cells) if cells else 0.0,
        "obs.trace_overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "obs.span_disagreements": sum(
            1 for row in span_agreement(spans, program_spans) if not row["agree"]
        ),
    }
    by_layer = layer_self_times(spans)
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = by_layer.get(layer, 0.0)
    return metrics
