"""Benchmarks for the process-isolated execution pool.

The headline number is warm pool-mode overhead versus in-process
execution of the *same* generated pipeline: one pickle round-trip of the
job tables over a pipe plus frame bookkeeping.  CI's bench job gates on
the ratio (the ``pool_overhead`` row of ``make_bench_report.GATES``
fails the build when a warm pool execution costs more than 2x inproc on
the clean pipeline).

Also measured, informationally: the cold-spawn cost of a worker (paid
once per ``max_jobs_per_worker`` jobs) and the price of containing a
worker-killing pipeline (kill + classify + respawn on the next job).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_result
from repro.catalog.profiler import profile_table
from repro.execpool import PoolConfig
from repro.execpool.adversarial import ADVERSARIAL_PIPELINES, adversarial_tables
from repro.execpool.pool import ExecPool
from repro.generation.executor import execute_pipeline_code
from repro.llm.codegen import generate_pipeline_code
from repro.llm.profiles import get_profile
from repro.prompt.builder import build_prompt_plan
from repro.table.table import Table


@pytest.fixture(scope="module")
def workload():
    """A realistic generated pipeline + its train/test split."""
    import numpy as np

    rng = np.random.default_rng(7)
    data = {f"v{i}": rng.normal(size=800) for i in range(12)}
    data["cat"] = rng.choice(["a", "b", "c", "d"], size=800).tolist()
    data["y"] = np.where(rng.normal(size=800) > 0, "p", "n").tolist()
    table = Table.from_dict(data, name="execpool-bench")
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    payload = {
        "task": "pipeline",
        "dataset": catalog.info.to_dict(),
        "schema": plan._full_schema,
        "rules": [r.to_payload() for r in plan.rules],
    }
    code = generate_pipeline_code(payload, get_profile("gpt-4o"))
    train, test = table.take(range(560)), table.take(range(560, 800))
    return code, train, test


def test_execpool_inproc_clean(benchmark, workload):
    code, train, test = workload
    result = benchmark.pedantic(
        lambda: execute_pipeline_code(
            code, train, test, timeout_seconds=60.0, mode="inproc"
        ),
        rounds=5, iterations=1,
    )
    assert result.success


def test_execpool_pool_clean_warm(benchmark, workload):
    code, train, test = workload
    with ExecPool(PoolConfig(size=1)) as pool:
        # pay the spawn + preload outside the measured region
        assert pool.execute(code, train, test, timeout_seconds=60.0).success
        result = benchmark.pedantic(
            lambda: pool.execute(code, train, test, timeout_seconds=60.0),
            rounds=5, iterations=1,
        )
    assert result.success
    assert pool.stats["spawns"] == 1  # every measured round reused the worker


def test_execpool_cold_spawn(benchmark, workload):
    """Worker spawn + numpy/repro.ml preload; amortized over a worker's life."""
    code, train, test = workload

    def spawn_and_run():
        with ExecPool(PoolConfig(size=1)) as pool:
            return pool.execute(code, train, test, timeout_seconds=60.0)

    result = benchmark.pedantic(spawn_and_run, rounds=3, iterations=1)
    assert result.success


def test_execpool_containment_cost(benchmark):
    """Contain an ``os._exit`` pipeline and restore service: kill +
    classify + respawn-on-next-job, measured end to end."""
    train, test = adversarial_tables(seed=0)
    hostile, _ = ADVERSARIAL_PIPELINES["os_exit"]

    with ExecPool(PoolConfig(size=1)) as pool:

        def contain():
            result = pool.execute(hostile, train, test, timeout_seconds=30.0)
            assert not result.success
            return result

        result = benchmark.pedantic(contain, rounds=3, iterations=1)
    assert result.error is not None
    assert result.error.details.get("worker_exit") == 7


def test_execpool_overhead_summary(workload):
    """Persist a paper-style summary of the measured modes (no gate here;
    the CI gate reads the pytest-benchmark JSON in make_bench_report)."""
    import time

    code, train, test = workload
    t0 = time.perf_counter()
    inproc = execute_pipeline_code(
        code, train, test, timeout_seconds=60.0, mode="inproc"
    )
    inproc_s = time.perf_counter() - t0
    with ExecPool(PoolConfig(size=1)) as pool:
        pool.execute(code, train, test, timeout_seconds=60.0)  # warm
        t0 = time.perf_counter()
        pooled = pool.execute(code, train, test, timeout_seconds=60.0)
        pool_s = time.perf_counter() - t0
    assert inproc.success and pooled.success
    assert pooled.metrics == inproc.metrics
    ratio = pool_s / max(inproc_s, 1e-9)
    save_result(
        "execpool_overhead",
        "Execution pool overhead (clean generated pipeline)\n"
        f"  inproc:     {inproc_s * 1000:8.1f} ms\n"
        f"  pool(warm): {pool_s * 1000:8.1f} ms\n"
        f"  ratio:      {ratio:8.2f}x  (CI gate: <= 2x)",
    )
