"""Micro-benchmark of the parallel experiment scheduler.

Times a representative 12-cell grid (fig13-shaped: shared
``prepare_dataset`` upstream, one ``run_system`` fan-out per
cell) sequentially (``workers=1``) and on a 4-thread pool,
and records the speedup alongside the results.  On the single-core CI
container the speedup is expected to be roughly neutral (the simulated
LLM latency still overlaps, the numpy work does not); the recorded
number is the point — multi-core machines should see it well above 1.

A correctness gate rides along: both runs must produce identical rows
(the scheduler's parallel == sequential determinism contract).
"""

import time

from benchmarks.conftest import save_result
from repro.experiments import fig13_tokens

_DATASETS = ("wifi", "cmc", "etailing")  # x 4 systems = 12 cells
_SYSTEMS = ("catdb", "catdb-chain", "aide", "autogen")


def _run(workers: int):
    start = time.perf_counter()
    result = fig13_tokens.run(
        datasets=_DATASETS, llms=("gemini-1.5",), systems=_SYSTEMS,
        quick=True, workers=workers,
    )
    return result, time.perf_counter() - start


def test_runner_parallel_speedup(benchmark):
    sequential, sequential_seconds = _run(workers=1)
    parallel, parallel_seconds = benchmark.pedantic(
        lambda: _run(workers=4), rounds=1, iterations=1,
    )

    # determinism contract: identical tables at any worker count
    assert sequential.rows == parallel.rows
    assert sequential.render() == parallel.render()
    assert len(sequential.rows) == len(_DATASETS) * len(_SYSTEMS)

    speedup = sequential_seconds / max(parallel_seconds, 1e-9)
    save_result("runner_speedup", "\n".join([
        "Scheduler micro-benchmark: 12-cell fig13 grid",
        f"sequential (workers=1): {sequential_seconds:8.2f}s",
        f"parallel   (workers=4): {parallel_seconds:8.2f}s",
        f"speedup:                {speedup:8.2f}x",
    ]))
    # Neutral-or-better even on one core: the pool must not make the
    # grid meaningfully slower than the sequential replay.
    assert parallel_seconds <= sequential_seconds * 1.5
