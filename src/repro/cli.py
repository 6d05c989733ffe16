"""Command-line interface: ``python -m repro`` / ``catdb-repro``.

Subcommands:

- ``datasets``            list the 20 Table-3 dataset replicas
- ``profile <dataset>``   profile a dataset and print its catalog
- ``generate <dataset>``  run CatDB end-to-end and print code + metrics
- ``experiment <id>``     run one paper experiment (fig9, table4, ...)
- ``soak``                fault-injection soak: N seeded generate runs
                          under a flaky transport, asserting graceful
                          degradation and determinism
- ``runs``                inspect the observability run ledger
                          (``list`` / ``show <id>`` / ``diff <a> <b>``)
- ``lint``                scope-aware static analysis over .py files
                          (``--profile repo`` self-lints the substrate;
                          ``--profile pipeline`` applies the generated-
                          code gate); see ``docs/static_analysis.md``

``generate`` and ``soak`` expose the resilience knobs (``--max-retries``,
``--llm-timeout``, ``--exec-timeout``, ``--fault-rate``); see
``docs/resilience.md``.  They also expose the execution-isolation knobs
(``--exec-mode inproc|pool``, ``--exec-memory-mb``); ``soak
--adversarial --exec-mode pool`` runs the hostile-pipeline containment
gate; see ``docs/execution_pool.md``.

``profile``, ``generate``, and ``experiment`` accept ``--trace`` to record
span trees + metrics into the run ledger (``--runs-dir``, default
``runs/``); see ``docs/observability.md``.

Grid-shaped experiments (table2/5/6/7/8, fig11/12/13/14) run on the
parallel scheduler: ``--workers N`` (default ``$REPRO_EXPERIMENT_WORKERS``
or 1, ``0`` = all cores), ``--resume`` to skip cells already in the run
ledger, ``--progress`` for a live cell counter; see
``docs/architecture.md``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, Sequence

from repro.analysis.engine import PROFILES
from repro.execpool.config import EXEC_MODES, MEMORY_ENV, MODE_ENV
from repro.table.io_csv import DEFAULT_CHUNK_ROWS

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig9": ("repro.experiments.fig9_profiling", {}),
    "fig10": ("repro.experiments.fig10_metadata", {"llms": ("gemini-1.5",)}),
    "table2": ("repro.experiments.table2_errors", {"iterations": 4}),
    "table4": ("repro.experiments.table4_refinement", {}),
    "table5": ("repro.experiments.table5_accuracy", {}),
    "table6": ("repro.experiments.table6_runtime", {}),
    "fig11": ("repro.experiments.fig11_iterations", {"iterations": 2}),
    "fig12": ("repro.experiments.fig12_cost_runtime", {"iterations": 2}),
    "table7": ("repro.experiments.table7_single_iteration",
               {"llms": ("gemini-1.5",)}),
    "fig13": ("repro.experiments.fig13_tokens", {"llms": ("gemini-1.5",)}),
    "table8": ("repro.experiments.table8_runtime", {"llms": ("gemini-1.5",)}),
    "fig14": ("repro.experiments.fig14_robustness", {}),
}

# Experiments whose run() is a grid over the parallel scheduler and accepts
# workers/resume/progress.
_GRID_EXPERIMENTS = frozenset({
    "table2", "table5", "table6", "table7", "table8",
    "fig11", "fig12", "fig13", "fig14",
})


def _checked(
    convert: Callable[[str], Any], ok: Callable[[Any], bool], expected: str
) -> Callable[[str], Any]:
    """An argparse ``type=`` that converts, then range-checks, a flag value."""

    def parse(text: str) -> Any:
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")

    return parse


_positive_seconds = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_retry_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
_rate = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catdb-repro",
        description="CatDB reproduction: catalog-guided LLM pipeline generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_args(command: argparse.ArgumentParser) -> None:
        command.add_argument("--trace", action="store_true",
                             help="record spans + metrics to the run ledger")
        command.add_argument("--runs-dir", default=None,
                             help="ledger directory (default: runs/ or "
                                  "$REPRO_RUNS_DIR)")

    def _add_resilience_args(
        command: argparse.ArgumentParser,
        fault_rate_default: float = 0.0,
        exec_timeout_default: float | None = None,
    ) -> None:
        command.add_argument("--max-retries", type=_retry_count,
                             default=None,
                             help="transport retries after the first "
                                  "attempt (default 3 once resilience "
                                  "is active)")
        command.add_argument("--llm-timeout", type=_positive_seconds,
                             default=None,
                             help="per-LLM-call deadline in seconds")
        command.add_argument("--exec-timeout", type=_positive_seconds,
                             default=exec_timeout_default,
                             help="wall-clock budget per generated-"
                                  "pipeline execution in seconds")
        command.add_argument("--fault-rate", type=_rate,
                             default=fault_rate_default,
                             help="transient-fault injection rate "
                                  "(FlakyLLM; 0 disables)")
        command.add_argument("--exec-mode", default=None,
                             choices=list(EXEC_MODES),
                             help="pipeline execution backend: inproc "
                                  "(default) or pool (isolated subprocess "
                                  "workers; $REPRO_EXEC_MODE)")
        command.add_argument("--exec-memory-mb", type=int, default=None,
                             help="address-space cap per pool execution "
                                  "in MiB (pool mode only; "
                                  "$REPRO_EXEC_MEMORY_MB)")

    sub.add_parser("datasets", help="list the 20 dataset replicas")

    profile = sub.add_parser("profile", help="profile a dataset")
    add_trace_args(profile)
    profile.add_argument("dataset",
                         help="registry dataset name, or a CSV path "
                              "(with --streaming and --target)")
    profile.add_argument("--rows", type=int, default=None,
                         help="override generated row count")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--streaming", action="store_true",
                         help="profile chunk-by-chunk with mergeable "
                              "sketches (constant memory)")
    profile.add_argument("--chunk-rows", type=int, default=None,
                         help="rows per streaming chunk "
                              f"(default {DEFAULT_CHUNK_ROWS})")
    profile.add_argument("--target", default=None,
                         help="target column (required for CSV paths)")
    profile.add_argument("--task-type", default="binary",
                         choices=["binary", "multiclass", "regression"],
                         help="task type for CSV paths")

    generate = sub.add_parser("generate", help="generate a pipeline with CatDB")
    add_trace_args(generate)
    generate.add_argument("dataset")
    generate.add_argument("--llm", default="gpt-4o",
                          help="gpt-4o | gemini-1.5 | llama3.1-70b")
    generate.add_argument("--beta", type=int, default=1,
                          help=">=2 selects CatDB Chain")
    generate.add_argument("--alpha", type=int, default=None,
                          help="top-K feature columns")
    generate.add_argument("--combination", type=int, default=11,
                          help="Table-1 metadata combination (1-11)")
    generate.add_argument("--refine", action="store_true",
                          help="run catalog refinement first")
    generate.add_argument("--rows", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--show-code", action="store_true")
    _add_resilience_args(generate)

    soak = sub.add_parser(
        "soak",
        help="fault-injection soak: seeded generate runs under FlakyLLM",
    )
    add_trace_args(soak)
    soak.add_argument("--dataset", default="wifi")
    soak.add_argument("--rows", type=int, default=120)
    soak.add_argument("--seeds", type=int, default=50,
                      help="number of seeded runs")
    soak.add_argument("--llm", default="gpt-4o")
    soak.add_argument("--beta", type=int, default=1)
    soak.add_argument("--no-determinism-check", action="store_true",
                      help="skip comparing faulted pipelines against the "
                           "faults-off baseline")
    soak.add_argument("--adversarial", action="store_true",
                      help="run the adversarial containment soak instead: "
                           "hostile pipelines (hang/OOM/segfault/exit/"
                           "flood) must be contained and classified")
    _add_resilience_args(soak, fault_rate_default=0.3, exec_timeout_default=10.0)

    experiment = sub.add_parser("experiment", help="run one paper experiment")
    add_trace_args(experiment)
    experiment.add_argument("artifact", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--workers", type=int, default=None,
                            help="experiment grid worker threads "
                                 "(default $REPRO_EXPERIMENT_WORKERS or 1; "
                                 "0 = all cores; grid experiments only)")
    experiment.add_argument("--resume", action="store_true",
                            help="skip grid cells already recorded in the "
                                 "run ledger (implies reading --runs-dir)")
    experiment.add_argument("--progress", action="store_true",
                            help="live `N/M cells` progress on stderr")
    experiment.add_argument("--datasets", default=None,
                            help="comma-separated dataset subset "
                                 "(grid experiments only)")
    experiment.add_argument("--exec-mode", default=None,
                            choices=list(EXEC_MODES),
                            help="pipeline execution backend for every "
                                 "grid cell (exported as $REPRO_EXEC_MODE "
                                 "so scheduler workers inherit it)")
    experiment.add_argument("--exec-memory-mb", type=int, default=None,
                            help="address-space cap per pool execution "
                                 "in MiB (exported as "
                                 "$REPRO_EXEC_MEMORY_MB)")

    runs = sub.add_parser("runs", help="inspect the observability run ledger")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_list.add_argument("--dir", default=None,
                           help="ledger directory (default: runs/)")
    runs_show = runs_sub.add_parser(
        "show", help="render one run's span tree + metrics"
    )
    runs_show.add_argument("run_id", help="run id (or unique prefix)")
    runs_show.add_argument("--dir", default=None)
    runs_diff = runs_sub.add_parser(
        "diff", help="per-phase wall-time + token delta between two runs"
    )
    runs_diff.add_argument("run_a")
    runs_diff.add_argument("run_b")
    runs_diff.add_argument("--dir", default=None)

    results = sub.add_parser(
        "results", help="collate regenerated benchmark results"
    )
    results.add_argument("--dir", default=None,
                         help="results directory (default: benchmarks/results)")

    lint = sub.add_parser(
        "lint", help="scope-aware static analysis over .py files"
    )
    lint.add_argument("paths", nargs="+",
                      help="files or directories to analyze")
    lint.add_argument("--profile", default="repo", choices=sorted(PROFILES),
                      help="rule profile (default: repo self-lint)")
    lint.add_argument("--format", default="text", choices=("text", "json"),
                      dest="output_format", help="findings output format")
    lint.add_argument("--strict", action="store_true",
                      help="fail on warnings too, not just errors")
    lint.add_argument("--disable", action="append", default=[],
                      metavar="RULE_ID",
                      help="disable a rule by id (repeatable)")
    lint.add_argument("--fix", action="store_true",
                      help="apply the deterministic auto-fix tier in place "
                           "before reporting (files are rewritten)")
    return parser


def _cmd_datasets() -> int:
    from repro.datasets.registry import DATASET_SPECS

    print(f"{'id':>2s} {'name':14s} {'task':10s} {'tables':>6s} "
          f"{'paper rows':>11s} {'paper cols':>10s} {'classes':>7s}")
    for spec in sorted(DATASET_SPECS.values(), key=lambda s: s.dataset_id):
        print(f"{spec.dataset_id:>2d} {spec.name:14s} {spec.task_type:10s} "
              f"{spec.paper_tables:>6d} {spec.paper_rows:>11,d} "
              f"{spec.paper_cols:>10d} {spec.paper_classes:>7d}")
    return 0


def _begin_trace(args: argparse.Namespace) -> bool:
    """Enable the observability switch when ``--trace`` was passed."""
    if not getattr(args, "trace", False):
        return False
    from repro.obs import enable_tracing

    enable_tracing(args.runs_dir)
    return True


def _finish_trace(session: "object | None") -> None:
    """Print where the ledger record landed, plus its span tree."""
    if session is None or session.record is None:  # type: ignore[attr-defined]
        return
    from repro.obs import render_span_tree

    record = session.record  # type: ignore[attr-defined]
    print(f"\ntrace: run {record.run_id} recorded "
          f"-> {session.ledger.path}")  # type: ignore[attr-defined]
    print(render_span_tree(record.spans))


def _cmd_profile(args: argparse.Namespace) -> int:
    import os

    from repro.obs import run_session

    csv_source = args.dataset.endswith(".csv") or os.path.isfile(args.dataset)
    if csv_source and not args.target:
        print("error: --target is required when profiling a CSV path",
              file=sys.stderr)
        return 2
    chunk_rows = (
        DEFAULT_CHUNK_ROWS if args.chunk_rows is None else args.chunk_rows
    )
    traced = _begin_trace(args)
    with run_session(
        "profile", dataset=args.dataset,
        config={"rows": args.rows, "seed": args.seed,
                "streaming": bool(args.streaming or csv_source),
                "chunk_rows": chunk_rows},
        force=traced,
    ) as session:
        if csv_source:
            from repro.catalog import profile_table_streaming

            catalog = profile_table_streaming(
                args.dataset,
                target=args.target,
                task_type=args.task_type,
                chunk_rows=chunk_rows,
                seed=args.seed,
            )
        else:
            from repro.datasets.registry import load_dataset

            overrides = {"n": args.rows} if args.rows else {}
            bundle = load_dataset(args.dataset, seed=args.seed, **overrides)
            catalog = bundle.profile(
                seed=args.seed,
                streaming=args.streaming,
                chunk_rows=chunk_rows,
            )
        if session is not None:
            session.outcome.update(n_columns=len(catalog))
    print(catalog)
    print(f"{'column':24s} {'type':8s} {'feature':12s} {'distinct':>8s} "
          f"{'missing%':>8s} {'corr':>6s}")
    for profile in catalog.profiles():
        marker = " *target*" if profile.name == catalog.info.target else ""
        print(f"{profile.name:24s} {profile.data_type:8s} "
              f"{profile.feature_type.value:12s} {profile.distinct_count:>8d} "
              f"{profile.missing_percentage:>8.1f} "
              f"{profile.target_correlation:>6.2f}{marker}")
    if session is not None:
        _finish_trace(session)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.api import LLM, catdb_pipgen
    from repro.datasets.registry import load_dataset
    from repro.obs import run_session

    traced = _begin_trace(args)
    overrides = {"n": args.rows} if args.rows else {}
    bundle = load_dataset(args.dataset, seed=args.seed, **overrides)
    with run_session(
        "generate", dataset=args.dataset, llm=args.llm,
        config={
            "beta": args.beta, "alpha": args.alpha,
            "combination": args.combination, "refine": args.refine,
            "rows": args.rows, "seed": args.seed,
            "fault_rate": args.fault_rate, "max_retries": args.max_retries,
            "llm_timeout": args.llm_timeout, "exec_timeout": args.exec_timeout,
            "exec_mode": args.exec_mode,
        },
        force=traced,
    ) as session:
        catalog = bundle.profile(seed=args.seed)
        llm = LLM(args.llm, config={
            "seed": args.seed, "fault_rate": args.fault_rate,
            "max_retries": args.max_retries, "llm_timeout": args.llm_timeout,
        })
        P = catdb_pipgen(
            catalog, llm, data=bundle.unified,
            alpha=args.alpha, beta=args.beta, combination=args.combination,
            refine=args.refine, seed=args.seed,
            exec_timeout_seconds=args.exec_timeout,
            exec_mode=args.exec_mode, exec_memory_mb=args.exec_memory_mb,
        )
        if session is not None:
            session.outcome.update(
                success=P.success,
                degraded=P.report.degraded,
                primary_metric=P.report.primary_metric,
                total_tokens=P.report.total_tokens,
                fix_attempts=P.report.fix_attempts,
            )
    print(f"success: {P.success}")
    if P.report.degraded:
        print(f"degraded: {P.report.degraded_reason}")
    print("results:", {k: round(v, 4) if isinstance(v, float) else v
                       for k, v in P.results.items()})
    report = P.report
    print(f"tokens: {report.total_tokens} | interactions: {report.cost.gamma} "
          f"| error prompts: {report.cost.n_error_prompts} "
          f"| kb fixes: {report.kb_fixes}")
    if report.errors:
        print("errors:", [(e.error_type.name, e.group.value)
                          for e in report.errors])
    if args.show_code:
        print("\n" + P.code)
    if session is not None:
        _finish_trace(session)
    return 0 if P.success else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    """Fault-injection soak (CI gate): N seeded generate runs under FlakyLLM.

    Every seeded run must finish without an unhandled exception -- either a
    full success or a structured graceful degradation.  Unless
    ``--no-determinism-check`` is passed, every *non-degraded* faulted run
    must also produce the exact pipeline code of the same seed with faults
    disabled (retries are invisible: the mock transport is
    prompt-deterministic, so a recovered call returns identical content).
    """
    from repro.experiments.common import prepare_dataset, run_catdb

    if args.adversarial:
        from repro.execpool.adversarial import run_adversarial_soak

        return run_adversarial_soak(
            seeds=args.seeds,
            timeout_seconds=args.exec_timeout or 2.0,
            memory_mb=args.exec_memory_mb or 512,
            exec_mode=args.exec_mode or "pool",
        )

    _begin_trace(args)
    hard_failures: list[tuple[int, str]] = []
    mismatches: list[int] = []
    degraded = 0
    succeeded = 0
    static_skips = 0
    static_fixes = 0
    llm_fixes_avoided = 0
    static_fix_types: dict[str, int] = {}
    for seed in range(args.seeds):
        prepared = prepare_dataset(
            args.dataset, seed=seed, quick=False, n=args.rows
        )
        baseline_code = None
        if not args.no_determinism_check:
            baseline = run_catdb(
                prepared, args.llm, beta=args.beta, seed=seed
            )
            baseline_code = baseline.code
        try:
            report = run_catdb(
                prepared, args.llm, beta=args.beta, seed=seed,
                fault_rate=args.fault_rate,
                max_retries=args.max_retries,
                llm_timeout=args.llm_timeout,
                exec_timeout=args.exec_timeout,
                exec_mode=args.exec_mode,
                exec_memory_mb=args.exec_memory_mb,
                retry_base_delay=0.0,  # soak shouldn't sleep through backoff
            )
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            hard_failures.append((seed, f"{type(exc).__name__}: {exc}"))
            print(f"seed {seed:3d}: UNHANDLED {type(exc).__name__}: {exc}")
            continue
        status = "degraded" if report.degraded else (
            "ok" if report.success else "failed"
        )
        if report.degraded:
            degraded += 1
        elif report.success:
            succeeded += 1
        else:
            hard_failures.append((seed, "completed without success/degraded"))
        # static-gate consistency: every SE-group error must have been
        # caught by the analyzer (one exec skip each) rather than by
        # paying an execution — injected syntax faults can never reach
        # the executor
        static_skips += report.static_exec_skipped
        static_fixes += report.static_fixes
        llm_fixes_avoided += report.llm_fixes_avoided
        for type_name, count in report.static_fix_types.items():
            static_fix_types[type_name] = (
                static_fix_types.get(type_name, 0) + count
            )
        se_errors = sum(1 for e in report.errors if e.group.value == "SE")
        if se_errors > report.static_exec_skipped:
            hard_failures.append((
                seed,
                f"static gate inconsistency: {se_errors} SE errors but "
                f"only {report.static_exec_skipped} exec skips",
            ))
        note = ""
        if (
            baseline_code is not None
            and not report.degraded
            and report.code != baseline_code
        ):
            mismatches.append(seed)
            note = "  [determinism MISMATCH]"
        print(f"seed {seed:3d}: {status:8s} "
              f"fix_attempts={report.fix_attempts}{note}")
    print(f"\nsoak: {args.seeds} seeds @ fault_rate={args.fault_rate} "
          f"-> {succeeded} ok, {degraded} degraded, "
          f"{len(hard_failures)} hard failures, "
          f"{len(mismatches)} determinism mismatches, "
          f"static.exec_skipped={static_skips}")
    print(f"repair.static_fixes={static_fixes} "
          f"repair.llm_fixes_avoided={llm_fixes_avoided}"
          + (f" classes={sorted(static_fix_types)}" if static_fix_types else ""))
    if hard_failures or mismatches:
        for seed, why in hard_failures:
            print(f"  hard failure seed {seed}: {why}", file=sys.stderr)
        for seed in mismatches:
            print(f"  mismatch seed {seed}: faulted pipeline != baseline",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer over files/directories.

    Exit status: 0 when clean (or warnings only), 1 on error-severity
    findings (``--strict`` promotes warnings to failures too), 2 when no
    Python files were found under the given paths.
    """
    import json

    from repro.analysis import RuleConfig, lint_paths, render_findings

    config = RuleConfig(enabled={rule_id: False for rule_id in args.disable})
    n_fixes = 0
    fixed_files = 0
    if args.fix:
        from repro.analysis.engine import _collect_py_files
        from repro.analysis.fixes import autofix

        for path in _collect_py_files(args.paths):
            source = path.read_text(encoding="utf-8")
            result = autofix(source, profile=args.profile, config=config)
            if result.changed:
                path.write_text(result.code, encoding="utf-8")
                fixed_files += 1
                n_fixes += len(result.applied)
    reports = lint_paths(args.paths, profile=args.profile, config=config)
    if not reports:
        print("no python files found", file=sys.stderr)
        return 2
    n_errors = sum(len(r.errors()) for r in reports)
    n_warnings = sum(len(r.warnings()) for r in reports)
    if args.output_format == "json":
        print(json.dumps([
            {"path": r.path, "findings": [f.to_dict() for f in r.findings]}
            for r in reports if r.findings
        ], indent=2))
    else:
        rendered = render_findings(r for r in reports if r.findings)
        if rendered:
            print(rendered)
        if args.fix:
            print(f"fix: {n_fixes} fixes applied across {fixed_files} files")
        print(f"lint: {len(reports)} files, profile={args.profile} "
              f"-> {n_errors} errors, {n_warnings} warnings")
    if n_errors or (args.strict and n_warnings):
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib
    import os

    # Experiments drive run_system, whose every run records its own
    # ledger entry once tracing is on.  Grid-shaped
    # experiments additionally run on the parallel scheduler and record
    # one runner.cell entry per grid cell (the --resume key).
    # The exec knobs travel through the environment: every execution in
    # every scheduler worker thread resolves $REPRO_EXEC_MODE, so one
    # flag moves a whole grid onto the subprocess pool.
    if args.exec_mode is not None:
        os.environ[MODE_ENV] = args.exec_mode
    if args.exec_memory_mb is not None:
        os.environ[MEMORY_ENV] = str(args.exec_memory_mb)
    _begin_trace(args)
    module_name, kwargs = _EXPERIMENTS[args.artifact]
    kwargs = dict(kwargs)
    if args.artifact in _GRID_EXPERIMENTS:
        kwargs.update(workers=args.workers, resume=args.resume,
                      progress=args.progress)
        if args.datasets:
            kwargs["datasets"] = tuple(
                name.strip() for name in args.datasets.split(",") if name.strip()
            )
    elif args.workers is not None or args.resume or args.datasets:
        print(f"error: --workers/--resume/--datasets are only supported by "
              f"grid experiments ({', '.join(sorted(_GRID_EXPERIMENTS))})",
              file=sys.stderr)
        return 2
    module = importlib.import_module(module_name)
    result = module.run(**kwargs)
    print(result.render())
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import (
        RunLedger,
        default_ledger_path,
        render_diff,
        render_record,
        render_records_table,
    )

    ledger = RunLedger(args.dir or default_ledger_path())
    if args.runs_command == "list":
        records = ledger.records()
        if not records:
            print(f"no runs recorded in {ledger.path}")
            return 0
        print(render_records_table(records))
        return 0
    try:
        if args.runs_command == "show":
            print(render_record(ledger.get(args.run_id)))
            return 0
        if args.runs_command == "diff":
            print(render_diff(ledger.diff(args.run_a, args.run_b)))
            return 0
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "results":
        from repro.experiments.summary import collate_results

        print(collate_results(args.dir))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
