"""Oracle for fit reuse in pooled execution.

Pool workers once opened no reuse scope: every pooled job fitted its
models again.  That scope-less path is embedded below as the reference:
the worker's job loop and ``ExecPool.execute`` as they were before a job
carried its caller's reuse entries.  On a seeded corpus (clean runs at
beta 1/2/3, code-generation faults at three seeds, a flaky transport
without retries, and a run whose first pipeline exceeds its execution
budget) three ways of executing must leave the same report field by
field: in-process, pooled with reuse, and the reference.  In-process
and pooled runs must also count the same ``ml.fit_reuse`` outcomes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import pytest

import repro.execpool.pool as pool_module
from repro.execpool import PoolConfig
from repro.execpool.pool import ExecPool, PoolWorker
from repro.execpool.protocol import (
    ExecJob,
    FrameTimeout,
    WorkerDied,
    WorkerReply,
    classify_worker_death,
    read_frame,
)
from repro.generation.executor import ExecutionResult
from repro.generation.generator import CatDB, CatDBChain
from repro.llm.mock import MockLLM
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.trace import get_tracer
from tests.test_generate_loop_oracle import _build_corpus, _flaky

# -- reference: the scope-less worker loop and execute ----------------------------

_REFERENCE_WORKER = '''
import os
import resource
import signal
from typing import Any

from repro.execpool.worker import (
    _JobLimits,
    _contain_stdio,
    _install_sigxcpu,
    _preload,
)


def serve(job_stream: Any, reply_stream: Any) -> None:
    """The worker loop: one reply frame per job frame, until EOF."""
    from repro.execpool.protocol import (
        ExecJob,
        WorkerDied,
        WorkerReply,
        read_frame,
        write_frame,
    )
    from repro.generation.executor import _execute_pipeline_code_impl

    _install_sigxcpu()
    jobs_done = 0
    write_frame(reply_stream, WorkerReply(kind="ready", pid=os.getpid()))
    job_fd = job_stream.fileno()
    while True:
        try:
            job: ExecJob = read_frame(job_fd)
        except (WorkerDied, EOFError):
            return  # parent closed the job pipe: clean shutdown
        cpu_seconds = job.cpu_seconds
        if cpu_seconds is None and job.timeout_seconds:
            # wall budget implies a CPU ceiling too (headroom for BLAS
            # threads); kills tight C loops even if SIGALRM cannot
            cpu_seconds = 4.0 * job.timeout_seconds + 5.0
        limits = _JobLimits(job.memory_mb, cpu_seconds)
        try:
            result = _execute_pipeline_code_impl(
                job.code,
                job.train,
                job.test,
                job.filename,
                timeout_seconds=job.timeout_seconds,
            )
        finally:
            limits.restore()
        jobs_done += 1
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        try:
            write_frame(reply_stream, WorkerReply(
                kind="result",
                result=result,
                peak_rss_bytes=peak_rss,
                jobs_done=jobs_done,
                pid=os.getpid(),
            ))
        except BrokenPipeError:
            return  # parent went away mid-reply


job_stream, reply_stream = _contain_stdio()
signal.signal(signal.SIGINT, signal.SIG_IGN)
_preload()
serve(job_stream, reply_stream)
'''


class _ReferenceWorker(PoolWorker):
    """A warm subprocess running the reference job loop."""

    def __init__(self, config: PoolConfig) -> None:
        env = dict(os.environ)
        src = str(Path(pool_module.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.process = subprocess.Popen(
            [sys.executable, "-c", _REFERENCE_WORKER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, close_fds=True,
        )
        self.jobs_done = 0
        self._reply_fd = self.process.stdout.fileno()
        ready: WorkerReply = read_frame(
            self._reply_fd, deadline=time.monotonic() + config.spawn_timeout_seconds,
        )
        assert ready.kind == "ready"


def _reference_execute(
    self,
    code: str,
    train: Any,
    test: Any,
    filename: str = "<pipeline>",
    timeout_seconds: float | None = None,
    memory_mb: int | None = None,
    cpu_seconds: float | None = None,
) -> ExecutionResult:
    """Run one pipeline on a borrowed worker; never raises for
    pipeline-attributable failures — crashes come back classified."""
    if memory_mb is None:
        memory_mb = self.config.memory_mb
    job = ExecJob(
        code=code, train=train, test=test, filename=filename,
        timeout_seconds=timeout_seconds, memory_mb=memory_mb,
        cpu_seconds=cpu_seconds,
    )
    metrics = get_metrics()
    start = time.perf_counter()
    with get_tracer().span("execpool.execute") as span:
        worker = self._acquire()
        span.set(worker_pid=worker.pid)
        deadline = (
            time.monotonic() + timeout_seconds
            + self.config.kill_grace_seconds
            if timeout_seconds
            else None
        )
        try:
            worker.submit(job)
            reply = worker.read_reply(deadline)
        except FrameTimeout:
            self._retire(worker, reason="timeout")
            metrics.inc("execpool.jobs", status="killed_timeout")
            self.stats["jobs"] += 1
            span.set(status="killed_timeout")
            return ExecutionResult(
                success=False,
                error=classify_worker_death(
                    None, killed_on_timeout=True,
                    timeout_seconds=timeout_seconds, memory_mb=memory_mb,
                ),
                runtime_seconds=time.perf_counter() - start,
            )
        except (WorkerDied, BrokenPipeError, OSError):
            # the pipe closed first; reap the child so the death is
            # classified from its real exit status (signal vs code)
            try:
                returncode = worker.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                returncode = worker.process.poll()
            self._retire(worker, reason="crashed")
            metrics.inc("execpool.jobs", status="crashed")
            self.stats["jobs"] += 1
            span.set(status="crashed", returncode=returncode)
            return ExecutionResult(
                success=False,
                error=classify_worker_death(
                    returncode, killed_on_timeout=False,
                    timeout_seconds=timeout_seconds, memory_mb=memory_mb,
                ),
                runtime_seconds=time.perf_counter() - start,
            )
        worker.jobs_done = reply.jobs_done
        self._release(worker)
        self.stats["jobs"] += 1
        result: ExecutionResult = reply.result
        metrics.inc(
            "execpool.jobs", status="ok" if result.success else "error"
        )
        if reply.peak_rss_bytes:
            metrics.gauge(
                "execpool.peak_child_rss_bytes", reply.peak_rss_bytes
            )
        span.set(
            status="ok" if result.success else "error",
            peak_rss_bytes=reply.peak_rss_bytes,
        )
        return result


class _ReferencePool(ExecPool):
    execute = _reference_execute


# -- corpus ------------------------------------------------------------------------

#: the first pipeline of a stalling run sleeps past this budget
EXEC_TIMEOUT = 0.5


class _StallingLLM(MockLLM):
    """The mock LLM whose first pipeline sleeps on one line of its own."""

    def complete(self, messages):
        response = super().complete(messages)
        if not getattr(self, "_stalled", False):
            self._stalled = True
            response.content = response.content.replace(
                "def run_pipeline(train, test):\n",
                "def run_pipeline(train, test):\n    import time; time.sleep(60)\n", 1,
            )
        return response


CASES = {
    **{f"clean-b{beta}": (beta, lambda: MockLLM("gpt-4o", seed=0, fault_injection=False), {})
       for beta in (1, 2, 3)},
    **{f"faults-s{seed}": (2, lambda seed=seed: MockLLM("llama3.1-70b", seed=seed), {})
       for seed in (0, 1, 2)},
    **{f"flaky-s{seed}": (2, lambda seed=seed: _flaky(seed), {}) for seed in (0, 3, 5)},
    # repairs keep the sleep, so two of them end in the fallback
    "exec-timeout": (1, lambda: _StallingLLM("gpt-4o", seed=0, fault_injection=False),
                     {"exec_timeout_seconds": EXEC_TIMEOUT, "max_fix_attempts": 2}),
}


@pytest.fixture(scope="module")
def corpus():
    return _build_corpus()


@pytest.fixture(scope="module")
def pools():
    reuse = ExecPool(PoolConfig(size=2, kill_grace_seconds=0.5))
    reference = _ReferencePool(PoolConfig(size=2, kill_grace_seconds=0.5))
    yield {"pool": reuse, "reference": reference}
    reuse.shutdown()
    reference.shutdown()


def _run(case: str, way: str, data, pools, monkeypatch) -> dict[str, Any]:
    beta, make_llm, kwargs = CASES[case]
    if way == "reference":
        monkeypatch.setattr(pool_module, "PoolWorker", _ReferenceWorker)
    if way != "inproc":
        monkeypatch.setattr(pool_module, "get_pool", lambda: pools[way])
    cls = CatDB if beta == 1 else CatDBChain
    chain = {"beta": beta} if beta > 1 else {}
    generator = cls(make_llm(), exec_mode="inproc" if way == "inproc" else "pool",
                    **chain, **kwargs)
    train, test, catalog = data
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        report = generator.generate(train, test, catalog)
    finally:
        set_metrics(previous)
        monkeypatch.undo()
    counters = registry.snapshot()["counters"]
    return {
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
        "static_exec_skipped": report.static_exec_skipped,
        "prompt_tokens": report.cost.prompt_tokens,
        "completion_tokens": report.cost.completion_tokens,
        "execute.runs": counters.get("execute.runs", 0),
        "execute.timeouts": counters.get("execute.timeouts", 0),
        "fit_reuse": {k: v for k, v in counters.items() if k.startswith("ml.fit_reuse{")},
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_pooled_reuse_matches_inproc_and_the_scopeless_reference(case, corpus, pools, monkeypatch):
    data = corpus["multi" if case == "exec-timeout" else "mixed"]
    inproc = _run(case, "inproc", data, pools, monkeypatch)
    pooled = _run(case, "pool", data, pools, monkeypatch)
    reference = _run(case, "reference", data, pools, monkeypatch)
    # the reference worker counts its fits in its own registry only
    assert reference.pop("fit_reuse") == {}
    assert pooled == inproc
    pooled.pop("fit_reuse")
    assert pooled == reference


def test_corpus_reaches_reuse_and_timeouts(corpus, pools, monkeypatch):
    faulty = _run("faults-s0", "pool", corpus["mixed"], pools, monkeypatch)
    assert any("outcome=hit" in key for key in faulty["fit_reuse"])
    stalled = _run("exec-timeout", "pool", corpus["multi"], pools, monkeypatch)
    assert stalled["execute.timeouts"] >= 1 and stalled["fallback_used"]
