"""Tests for the process-isolated pipeline execution pool.

Covers the three contracts ``docs/execution_pool.md`` documents:

- **parity** — a clean pipeline returns bit-identical results in
  ``inproc`` and ``pool`` modes;
- **containment** — every adversarial pipeline (hang, 2 GB allocation,
  ``sys.exit``/``os._exit``, ctypes segfault, stdout flood) is reaped
  and classified onto the existing RE taxonomy, never crashing the
  orchestrator;
- **lifecycle** — workers are reused across jobs, recycled after
  ``max_jobs_per_worker``, replaced after a kill, and safe to borrow
  from concurrent threads.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.execpool import PoolConfig, resolve_exec_mode, resolve_memory_mb
from repro.execpool.adversarial import (
    ADVERSARIAL_PIPELINES,
    CLEAN_PIPELINE,
    adversarial_tables,
    pick_variant,
    run_adversarial_soak,
)
from repro.execpool.config import MEMORY_ENV, MODE_ENV
from repro.execpool.pool import ExecPool, shutdown_pool
from repro.execpool.protocol import classify_worker_death
from repro.generation.errors import ERROR_TYPES
from repro.generation.executor import execute_pipeline_code
from repro.obs.metrics import MetricsRegistry, set_metrics

TIMEOUT = 5.0
MEMORY_MB = 512


@pytest.fixture(scope="module")
def pool():
    p = ExecPool(PoolConfig(size=2, kill_grace_seconds=0.5))
    yield p
    p.shutdown()


@pytest.fixture(scope="module")
def tables():
    return adversarial_tables(seed=0)


@pytest.fixture(autouse=True, scope="module")
def _shared_pool_teardown():
    yield
    shutdown_pool()  # tests that exercise execute_pipeline_code(mode="pool")


# ---------------------------------------------------------------------------
# Mode / config resolution
# ---------------------------------------------------------------------------


class TestModeResolution:
    def test_default_is_inproc(self, monkeypatch):
        monkeypatch.delenv(MODE_ENV, raising=False)
        assert resolve_exec_mode(None) == "inproc"

    def test_env_selects_pool(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "pool")
        assert resolve_exec_mode(None) == "pool"

    def test_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "pool")
        assert resolve_exec_mode("inproc") == "inproc"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_exec_mode("fork")

    def test_unknown_env_mode_rejected(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "container")
        with pytest.raises(ValueError):
            resolve_exec_mode(None)

    def test_memory_resolution(self, monkeypatch):
        monkeypatch.delenv(MEMORY_ENV, raising=False)
        assert resolve_memory_mb(None) is None
        assert resolve_memory_mb(256) == 256
        assert resolve_memory_mb(0) is None  # 0 = unlimited
        monkeypatch.setenv(MEMORY_ENV, "512")
        assert resolve_memory_mb(None) == 512
        assert resolve_memory_mb(128) == 128  # arg beats env
        monkeypatch.setenv(MEMORY_ENV, "")
        assert resolve_memory_mb(None) is None
        monkeypatch.setenv(MEMORY_ENV, "-1")
        assert resolve_memory_mb(None) is None

    @pytest.mark.parametrize("raw", ["512MB", "not-a-number", "1.5"])
    def test_malformed_memory_env_rejected(self, monkeypatch, raw):
        # a typo must not silently lift the memory cap
        monkeypatch.setenv(MEMORY_ENV, raw)
        with pytest.raises(ValueError, match=MEMORY_ENV):
            resolve_memory_mb(None)
        assert resolve_memory_mb(64) == 64  # an explicit cap skips the env


# ---------------------------------------------------------------------------
# Death classification (unit-level: no subprocesses involved)
# ---------------------------------------------------------------------------


class TestClassifyWorkerDeath:
    def test_taxonomy_unchanged(self):
        # crash classification reuses existing types; no new ones
        assert len(ERROR_TYPES) == 23

    def test_parent_kill_is_timeout(self):
        error = classify_worker_death(
            None, killed_on_timeout=True, timeout_seconds=2.0
        )
        assert error.error_type.name == "no_convergence"
        assert error.details["timed_out"] is True
        assert error.details["worker_killed"] is True
        assert error.details["timeout_seconds"] == 2.0

    def test_sigkill_suggests_oom(self):
        error = classify_worker_death(-9, killed_on_timeout=False)
        assert error.error_type.name == "resource_limit"
        assert error.details["oom_suspected"] is True
        assert error.details["signal"] == "SIGKILL"

    def test_sigsegv_is_crash(self):
        error = classify_worker_death(-11, killed_on_timeout=False)
        assert error.error_type.name == "no_convergence"
        assert error.details["crashed"] is True
        assert error.details["signal"] == "SIGSEGV"

    def test_plain_exit_is_crash_with_code(self):
        error = classify_worker_death(7, killed_on_timeout=False)
        assert error.error_type.name == "no_convergence"
        assert error.details["crashed"] is True
        assert error.details["worker_exit"] == 7


# ---------------------------------------------------------------------------
# Result parity
# ---------------------------------------------------------------------------


class TestParity:
    def test_clean_pipeline_bit_identical(self, pool, tables):
        train, test = tables
        pooled = pool.execute(
            CLEAN_PIPELINE, train, test, timeout_seconds=TIMEOUT
        )
        inproc = execute_pipeline_code(
            CLEAN_PIPELINE, train, test,
            timeout_seconds=TIMEOUT, mode="inproc",
        )
        assert pooled.success and inproc.success
        assert pooled.metrics == inproc.metrics  # exact, not approximate
        assert pooled.primary_metric == inproc.primary_metric

    def test_error_classification_parity(self, pool, tables):
        # a plain in-pipeline exception classifies identically via the pool
        train, test = tables
        code = "def run_pipeline(train, test):\n    return {}[0]\n"
        pooled = pool.execute(code, train, test, timeout_seconds=TIMEOUT)
        inproc = execute_pipeline_code(
            code, train, test, timeout_seconds=TIMEOUT, mode="inproc"
        )
        assert not pooled.success and not inproc.success
        assert pooled.error.error_type.name == inproc.error.error_type.name
        assert pooled.error.line == inproc.error.line


# ---------------------------------------------------------------------------
# Adversarial containment
# ---------------------------------------------------------------------------


class TestContainment:
    @pytest.mark.parametrize("variant", sorted(ADVERSARIAL_PIPELINES))
    def test_hostile_pipeline_contained(self, pool, tables, variant):
        train, test = tables
        code, expected_types = ADVERSARIAL_PIPELINES[variant]
        timeout = 2.0 if "hang" in variant else TIMEOUT
        result = pool.execute(
            code, train, test, timeout_seconds=timeout, memory_mb=MEMORY_MB
        )
        assert not result.success
        assert result.error is not None
        assert result.error.error_type.name in expected_types
        # the pool must stay serviceable right after any containment
        follow_up = pool.execute(
            CLEAN_PIPELINE, train, test, timeout_seconds=TIMEOUT
        )
        assert follow_up.success

    def test_hang_reports_timeout_details(self, pool, tables):
        train, test = tables
        code, _ = ADVERSARIAL_PIPELINES["hang"]
        result = pool.execute(code, train, test, timeout_seconds=1.0)
        assert result.error.details.get("timed_out") is True

    def test_os_exit_code_recovered(self, pool, tables):
        train, test = tables
        code, _ = ADVERSARIAL_PIPELINES["os_exit"]
        result = pool.execute(code, train, test, timeout_seconds=TIMEOUT)
        assert result.error.details.get("worker_exit") == 7

    def test_segfault_signal_recovered(self, pool, tables):
        train, test = tables
        code, _ = ADVERSARIAL_PIPELINES["segfault"]
        result = pool.execute(code, train, test, timeout_seconds=TIMEOUT)
        details = result.error.details
        assert details.get("signal") == "SIGSEGV" or details.get("crashed")


# ---------------------------------------------------------------------------
# Worker lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_worker_reused_across_jobs(self, tables):
        train, test = tables
        with ExecPool(PoolConfig(size=1)) as pool:
            for _ in range(3):
                assert pool.execute(
                    CLEAN_PIPELINE, train, test, timeout_seconds=TIMEOUT
                ).success
            assert pool.stats["spawns"] == 1
            assert pool.stats["jobs"] == 3

    def test_worker_recycled_after_max_jobs(self, tables):
        train, test = tables
        with ExecPool(PoolConfig(size=1, max_jobs_per_worker=2)) as pool:
            for _ in range(3):
                assert pool.execute(
                    CLEAN_PIPELINE, train, test, timeout_seconds=TIMEOUT
                ).success
            assert pool.stats["recycles"] == 1
            assert pool.stats["spawns"] == 2

    def test_killed_worker_replaced(self, tables):
        train, test = tables
        code, _ = ADVERSARIAL_PIPELINES["os_exit"]
        with ExecPool(PoolConfig(size=1)) as pool:
            assert not pool.execute(
                code, train, test, timeout_seconds=TIMEOUT
            ).success
            assert pool.execute(
                CLEAN_PIPELINE, train, test, timeout_seconds=TIMEOUT
            ).success
            assert pool.stats["kills"] == 1
            assert pool.stats["spawns"] == 2

    def test_concurrent_borrowers(self, pool, tables):
        train, test = tables
        results: list = [None] * 4

        def work(i: int) -> None:
            results[i] = pool.execute(
                CLEAN_PIPELINE, train, test, timeout_seconds=TIMEOUT
            )

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert all(r is not None and r.success for r in results)
        assert len({tuple(sorted(r.metrics.items())) for r in results}) == 1


# ---------------------------------------------------------------------------
# Executor wiring + observability
# ---------------------------------------------------------------------------


class TestWiring:
    def test_execute_pipeline_code_pool_mode(self, tables):
        train, test = tables
        result = execute_pipeline_code(
            CLEAN_PIPELINE, train, test,
            timeout_seconds=TIMEOUT, mode="pool",
        )
        inproc = execute_pipeline_code(
            CLEAN_PIPELINE, train, test,
            timeout_seconds=TIMEOUT, mode="inproc",
        )
        assert result.success
        assert result.metrics == inproc.metrics

    def test_bounded_run_off_main_thread_routes_to_pool(self, tables):
        # SIGALRM only reaches the main thread, so a bounded inproc request
        # from any other thread runs in the pool; an unbounded one stays
        # in-process and spawns nothing
        from repro.execpool.pool import get_pool
        from repro.obs.trace import Tracer, set_tracer

        train, test = tables
        hang, _ = ADVERSARIAL_PIPELINES["hang"]
        registry = MetricsRegistry()
        tracer = Tracer()

        def caller():
            set_metrics(registry)
            set_tracer(tracer)
            bounded = execute_pipeline_code(
                hang, train, test, timeout_seconds=1.0, mode="inproc",
            )
            spawns = get_pool().stats["spawns"]
            unbounded = execute_pipeline_code(
                CLEAN_PIPELINE, train, test, mode="inproc",
            )
            return bounded, unbounded, get_pool().stats["spawns"] - spawns

        with ThreadPoolExecutor(max_workers=1) as threads:
            bounded, unbounded, new_spawns = (
                threads.submit(caller).result(timeout=60.0)
            )
        assert not bounded.success
        assert bounded.error.error_type.name == "no_convergence"
        assert bounded.error.details["timed_out"] is True
        assert bounded.error.details["timeout_seconds"] == 1.0
        modes = [s.attributes["mode"] for s in tracer.spans
                 if s.name == "execute.pipeline"]
        assert modes == ["pool", "inproc"]
        assert registry.counter_value("execute.timeouts") == 1
        assert unbounded.success
        assert new_spawns == 0

    def test_env_mode_routes_to_pool(self, monkeypatch, tables):
        train, test = tables
        monkeypatch.setenv(MODE_ENV, "pool")
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            result = execute_pipeline_code(
                CLEAN_PIPELINE, train, test, timeout_seconds=TIMEOUT
            )
        finally:
            set_metrics(previous)
        assert result.success
        # the execpool metric proves the pool backend actually ran
        assert registry.counter_value("execpool.jobs", status="ok") == 1

    def test_pool_metrics_on_kill(self, tables):
        train, test = tables
        code, _ = ADVERSARIAL_PIPELINES["os_exit"]
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            with ExecPool(PoolConfig(size=1)) as pool:
                pool.execute(code, train, test, timeout_seconds=TIMEOUT)
        finally:
            set_metrics(previous)
        assert registry.counter_value("execpool.spawns") == 1
        assert registry.counter_value("execpool.kills", reason="crashed") == 1
        assert registry.counter_value("execpool.jobs", status="crashed") == 1

    def test_generator_accepts_exec_mode(self):
        from repro.generation.generator import CatDB
        from repro.llm.mock import MockLLM

        generator = CatDB(MockLLM(), exec_mode="pool", exec_memory_mb=256)
        assert generator.exec_mode == "pool"
        assert generator.exec_memory_mb == 256


# ---------------------------------------------------------------------------
# Adversarial soak (the CI gate, shrunk)
# ---------------------------------------------------------------------------


class TestAdversarialSoak:
    def test_variant_schedule_deterministic(self):
        first = [pick_variant(seed) for seed in range(50)]
        again = [pick_variant(seed) for seed in range(50)]
        assert first == again
        # the 50-seed schedule exercises every variant plus clean runs
        assert set(first) == set(ADVERSARIAL_PIPELINES) | {"clean"}

    def test_small_soak_passes(self, capsys):
        status = run_adversarial_soak(
            seeds=6, timeout_seconds=2.0, memory_mb=MEMORY_MB,
            exec_mode="pool", verbose=False,
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
