"""End-to-end and per-layer benchmark of the CatDB reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload gen-exec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload grid-pool --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --record-reference [--workload W]   # rewrites reference.json

Workloads (inputs are fixed so every output can be checked exactly;
``--seed`` shuffles the op order of each pass, which moves cache and
allocator state between ops but not what any op computes):

- ``gen-exec``: single-prompt CatDB (gpt-4o) in-process on eu_it and
  bike_sharing; almost all time is generated-pipeline execution.
- ``catalog``: batch profile + refine + prompt plan on wide tables and an
  8-table join, and streaming profile of a tall CSV written at set-up;
  no pipeline runs.
- ``grid-pool``: an 8-cell paper-style grid (two datasets x two LLM
  profiles x beta 1/2) run through ``run_grid`` with 2 workers and
  pooled, time-bounded execution; its diabetes cells run the repair loop.

``--trace 0`` sets up three times (``setup_s`` is the median import time
in a fresh interpreter plus the median set-up), then times untraced
passes for ``--seconds`` and prints the end-to-end metrics as medians
over passes; ``op_mid_s`` is the interquartile mean of the ops' median
times (the plain median of a few cell times of very different sizes
jumps when two of them swap order).  Every end-to-end time is in
seconds at reference speed: the host speed gauge (``gauge.py``) is read
before and after each pass, set-up and import, and the raw seconds
between two readings are scaled by their factor.  ``score_mean`` is
the mean primary test metric of the final pipelines, and a constant
1.0 on ``catalog``, which trains no model.  ``--trace 1`` alternates
untraced passes with traced ones, whose span wrappers (``layers.py``)
give the per-layer metrics in raw seconds.  Every op is checked against
``reference.json``; the last stdout line is the JSON result, and the
exit code is 1 when any op failed or mismatched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable

from arith import compare_to_reference, fail_share, interquartile_mean
from gauge import Gauge
from probe import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench-work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_mid_s": "s",
    "op_max_s": "s",
    "tokens": "count",
    "llm_calls": "count",
    "score_mean": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MiB",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=37.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="run one pass of --workload (default: every workload) and rewrite its reference",
    )
    return parser.parse_args(argv)


def _check(op: Any, reference: dict[str, Any]) -> list[str]:
    """Why an op failed; empty when it matched its reference cleanly."""
    if op.error:
        return [op.error]
    reasons = []
    if op.key not in reference:
        reasons.append("no reference")
    else:
        reasons += [f"mismatch:{f}" for f in compare_to_reference(reference[op.key], op.outcome)]
    if op.outcome.get("success") is False:
        reasons.append("failed")
    if op.outcome.get("fallback"):
        reasons.append("fallback")
    if op.extra.get("timeouts", 0) or op.extra.get("kills", 0):
        reasons.append("timeout/kill")
    return reasons


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    ``RUSAGE_CHILDREN`` gives the peak of the single largest child, not
    a sum; on ``grid-pool`` that is one pool worker, elsewhere 0 as long
    as this is read before any helper process is started and reaped.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _machine(workload: Any) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "exec_mode": workload.exec_mode,
    }


def _end_to_end(
    passes: list[tuple[float, list, float]],
    setup_s: float,
    peak_rss_mb: float,
    reference: dict[str, Any],
    trains_models: bool,
) -> dict[str, float]:
    """End-to-end metrics over untraced passes ``(wall, ops, scale)``.

    Each pass's wall and op times are multiplied by its gauge ``scale``;
    per-pass figures are medians over passes, and ``op_mid_s`` is the
    interquartile mean of each op's median time over passes.
    """
    ops = [op for _, pass_ops, _ in passes for op in pass_ops]
    failed = sum(1 for op in ops if _check(op, reference))

    def per_pass(fn: Callable[[list], float]) -> float:
        return median([fn(pass_ops) for _, pass_ops, _ in passes])

    def score(pass_ops: list) -> float:
        # a pipeline that produced no test metric scores 0
        return statistics.fmean(op.outcome.get("primary") or 0.0 for op in pass_ops)

    times_by_op: dict[str, list[float]] = {}
    for _, pass_ops, scale in passes:
        for op in pass_ops:
            times_by_op.setdefault(op.key, []).append(op.seconds * scale)
    return {
        "setup_s": setup_s,
        "wall_s": median([wall * scale for wall, _, scale in passes]),
        "op_mid_s": interquartile_mean([median(t) for t in times_by_op.values()]),
        "op_max_s": median([
            max(op.seconds for op in pass_ops) * scale for _, pass_ops, scale in passes
        ]),
        "tokens": per_pass(lambda p: sum(op.outcome.get("tokens", 0) for op in p)),
        "llm_calls": per_pass(lambda p: sum(op.outcome.get("llm_calls", 0) for op in p)),
        # a workload that trains no model has no test metric to average
        "score_mean": per_pass(score) if trains_models else 1.0,
        "ok_share": 1.0 - fail_share(failed, len(ops)),
        "peak_rss_mb": peak_rss_mb,
    }


def _import_seconds(repeats: int, gauge: Gauge) -> list[float]:
    """Time importing the benchmark and the program in fresh interpreters
    (this process has already imported both, so cannot time it again),
    each scaled to reference speed."""
    script = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; "
        "start = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - start)"
    )
    times = []
    for _ in range(repeats):
        before = gauge.read()
        done = subprocess.run(
            [sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append(seconds * gauge.scale(before, gauge.read()))
    return times


def _read_program_spans(ledger_path: str) -> list[dict[str, Any]]:
    from repro.obs.ledger import RunLedger

    if not os.path.exists(ledger_path):
        return []
    spans = []
    for record in RunLedger(ledger_path).iter_records():
        for span in record.spans:
            spans.append({**span, "record": record.run_id})
    return spans


def _print_ops(
    workload: str, label: str, ops: list, scale: float, reference: dict[str, Any]
) -> None:
    for op in ops:
        reasons = _check(op, reference)
        print(
            f"op workload={workload} pass={label} dataset={op.dataset} seed={op.seed} "
            f"variant={op.variant} key={op.key} wall_s={op.seconds:.4f} scale={scale:.4f} "
            f"tokens={op.outcome.get('tokens', '-')} "
            f"execute_runs={op.outcome.get('execute_runs', '-')} "
            f"timeouts={op.extra.get('timeouts', 0):g} kills={op.extra.get('kills', 0):g} "
            f"result={'ok' if not reasons else 'FAIL(' + ';'.join(reasons) + ')'}"
        )


def _report_trace(
    index: int, spans: list, program_spans: list, layer: dict[str, float], wall: float
) -> None:
    """Print the span cross-check and the self-time balance of one traced pass."""
    from layers import LAYERS, span_agreement

    for row in span_agreement(spans, program_spans):
        print(
            f"span-check pass=t{index} {row['span']} bench={row['bench_s']:.4f}s/"
            f"{row['bench_calls']} program={row['program_s']:.4f}s/"
            f"{row['program_calls']} {'ok' if row['agree'] else 'DISAGREE'}"
        )
    # equals the traced wall on one thread; on the grid it also counts
    # the time cells overlapped on the scheduler threads
    accounted = sum(layer[f"self.{name}_s"] for name in LAYERS)
    print(
        f"self-time pass=t{index} traced_wall_s={wall:.4f} "
        f"layers_plus_leftover_s={accounted:.4f} "
        f"leftover_s={layer['self.bench_s']:.4f} concurrency={accounted / wall:.3f}"
    )


def _record_reference(names: list[str], work_dir: str) -> int:
    """One pass per workload, in definition order; the grid runs
    sequentially in-process so its rows are the reference the pooled,
    parallel grid must reproduce."""
    from workloads import WORKLOADS, GridPool

    reference: dict[str, Any] = (
        json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    )
    for name in names:
        workload = WORKLOADS[name](Recorder(), work_dir)
        workload.setup()
        try:
            if isinstance(workload, GridPool):
                ops = workload.run_grid_pass(1, "inproc", None)
            else:
                ops = workload.run_pass(lambda items: list(items))
        finally:
            workload.teardown()
        bad = [op for op in ops if op.error or op.outcome.get("success") is False
               or op.outcome.get("fallback")]
        if bad:
            for op in bad:
                print(f"cannot record {name} {op.key}: {op.error or op.outcome}", file=sys.stderr)
            return 1
        reference[name] = {op.key: op.outcome for op in ops}
        print(f"recorded {name}: {len(ops)} ops")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def _run(args: argparse.Namespace, work_dir: str) -> int:
    from layers import PER_LAYER_UNITS, build_probe, per_layer_metrics
    from workloads import SETUP_REPEATS, WORKLOADS, GRID_WORKERS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    recorder = Recorder()
    workload = WORKLOADS[args.workload](recorder, work_dir)
    probe = build_probe(recorder, workload)
    gauge = Gauge()
    print("machine " + json.dumps(_machine(workload), sort_keys=True))

    def traced(fn: Callable[[], Any]) -> Any:
        recorder.reset()
        recorder.enabled = True
        probe.install()
        try:
            return fn()
        finally:
            probe.remove()
            recorder.enabled = False

    setups = []
    setup_spans: list = []
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = gauge.read()
            start = time.perf_counter()
            if args.trace:
                traced(workload.setup)
                setup_spans = list(recorder.spans)
            else:
                workload.setup()
            setups.append((time.perf_counter() - start) * gauge.scale(before, gauge.read()))

        rng = random.Random(args.seed)

        def order(items: list) -> list:
            return rng.sample(items, len(items))

        def untraced_pass() -> tuple[float, list, float]:
            before = gauge.read()
            start = time.perf_counter()
            ops = workload.run_pass(order)
            wall = time.perf_counter() - start
            return wall, ops, gauge.scale(before, gauge.read())

        def traced_pass(index: int) -> tuple[float, list, float, dict[str, float]]:
            ledger = os.path.join(work_dir, f"ledger-{index}.jsonl")
            workload.ledger_path = ledger
            spawns_before = workload.pool_spawns()

            def body() -> list:
                with recorder.span("bench", "pass"):
                    return workload.run_pass(order)

            before = gauge.read()
            try:
                ops = traced(body)
            finally:
                workload.ledger_path = None
            scale = gauge.scale(before, gauge.read())
            root = recorder.named("pass")[0]
            spans = list(recorder.spans)
            program_spans = _read_program_spans(ledger)
            # the untraced wall at this pass's speed, for the overhead share
            untraced_wall = median([w * s for w, _, s in untraced]) / scale
            layer = per_layer_metrics(
                setup_spans, spans, program_spans, ops, root.duration,
                untraced_wall, workload.pool_spawns() - spawns_before, GRID_WORKERS,
            )
            _report_trace(index, spans, program_spans, layer, root.duration)
            return root.duration, ops, scale, layer

        deadline = time.perf_counter() + args.seconds
        untraced: list[tuple[float, list, float]] = []
        traced_runs: list[tuple[float, list, float, dict[str, float]]] = []
        rounds: list[float] = []
        while True:
            round_start = time.perf_counter()
            untraced.append(untraced_pass())
            if args.trace:
                traced_runs.append(traced_pass(len(traced_runs)))
            rounds.append(time.perf_counter() - round_start)
            if time.perf_counter() + median(rounds) > deadline:
                break
    finally:
        workload.teardown()

    for i, (_, ops, scale) in enumerate(untraced):
        _print_ops(args.workload, f"u{i}", ops, scale, reference)
    for i, (_, ops, scale, _) in enumerate(traced_runs):
        _print_ops(args.workload, f"t{i}", ops, scale, reference)

    all_ops = [op for _, ops, _ in untraced for op in ops]
    all_ops += [op for _, ops, _, _ in traced_runs for op in ops]
    failed = sum(1 for op in all_ops if _check(op, reference))
    print(
        f"summary workload={args.workload} order_seed={args.seed} passes={len(untraced)}+{len(traced_runs)} "
        f"attempted={len(all_ops)} failed={failed} "
        f"fail_share={fail_share(failed, len(all_ops)):.4f}"
    )
    if args.trace:
        values = {
            name: median([layer[name] for _, _, _, layer in traced_runs])
            for name in PER_LAYER_UNITS
        }
        units = PER_LAYER_UNITS
    else:
        # before the import helpers below add themselves to RUSAGE_CHILDREN
        peak_rss_mb = _peak_rss_mb()
        setup_s = median(_import_seconds(SETUP_REPEATS, gauge)) + median(setups)
        values = _end_to_end(
            untraced, setup_s, peak_rss_mb, reference, workload.exec_mode != "none"
        )
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {src}; run from the root of a "
            "repository checkout",
            file=sys.stderr,
        )
        return 2
    # the benchmark fixes every program setting itself
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.record_reference:
            names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
            return _record_reference(names, work_dir)
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
