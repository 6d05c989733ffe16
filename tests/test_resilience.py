"""Tests for the resilience layer: retry policy, deadlines, wall-clock
budgets, circuit breaker, transient-fault injection, the ResilientLLM
transport stack, executor timeouts, and graceful generator degradation."""

import time

import numpy as np
import pytest

from repro.catalog.profiler import profile_table
from repro.generation.executor import execute_pipeline_code
from repro.generation.generator import CatDB, CatDBChain
from repro.llm import build_client
from repro.llm.base import ResilientLLM
from repro.llm.faults import (
    TRANSIENT_FAULT_TYPES,
    ConnectionDropped,
    FlakyLLM,
    TruncatedCompletion,
)
from repro.llm.mock import MockLLM
from repro.ml.model_selection import train_test_split
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.resilience import (
    BreakerOpen,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    ExecutionTimeout,
    ResilienceGiveUp,
    RetryExhausted,
    RetryPolicy,
    TransientError,
    retry_call,
    run_with_timeout,
    signal_timeout_available,
    stable_jitter_point,
)
from repro.resilience.breaker import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN
from repro.table.table import Table


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# RetryPolicy + retry_call
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_jitter_point_is_stable_and_bounded(self):
        a = stable_jitter_point("x", 1, 2)
        assert a == stable_jitter_point("x", 1, 2)
        assert 0.0 <= a < 1.0
        assert a != stable_jitter_point("x", 1, 3)

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0,
                             jitter=0.5, seed=7)
        for attempt in range(6):
            raw = min(1.0, 0.1 * 2.0 ** attempt)
            d = policy.delay(attempt, "salt")
            assert d == policy.delay(attempt, "salt")
            assert raw * 0.5 <= d <= raw

    def test_zero_jitter_gives_exact_exponential(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0,
                             jitter=0.0)
        assert [policy.delay(k) for k in range(4)] == [0.1, 0.2, 0.4, 0.8]

    def test_seed_changes_schedule(self):
        a = RetryPolicy(seed=0).delay(1, "s")
        b = RetryPolicy(seed=1).delay(1, "s")
        assert a != b

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientError("x"))
        assert policy.is_retryable(ConnectionDropped("x"))
        assert policy.is_retryable(TimeoutError("x"))
        assert policy.is_retryable(ConnectionError("x"))
        assert not policy.is_retryable(ValueError("x"))
        assert not policy.is_retryable(KeyError("x"))


class TestRetryCall:
    def test_first_try_success_sleeps_never(self):
        sleeps = []
        result = retry_call(lambda: 42, RetryPolicy(), sleep=sleeps.append)
        assert result == 42
        assert sleeps == []

    def test_recovers_after_transient(self, metrics):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransientError("blip")
            return "ok"

        sleeps = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5)
        assert retry_call(flaky, policy, sleep=sleeps.append) == "ok"
        assert attempts["n"] == 3
        assert sleeps == [policy.delay(0), policy.delay(1)]
        assert metrics.counter_value("retry.attempts") == 2
        assert metrics.counter_value("retry.recoveries") == 1
        assert metrics.counter_value("retry.giveups") == 0

    def test_sleep_schedule_is_deterministic(self):
        def run():
            sleeps = []
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                if calls["n"] < 4:
                    raise TransientError("blip")
                return True

            retry_call(flaky, RetryPolicy(seed=3), sleep=sleeps.append,
                       salt=("model", 9))
            return sleeps

        assert run() == run()

    def test_non_retryable_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(broken, RetryPolicy(max_attempts=5))
        assert calls["n"] == 1

    def test_exhaustion_raises_retry_exhausted(self, metrics):
        def dead():
            raise ConnectionDropped("reset")

        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(RetryExhausted) as info:
            retry_call(dead, policy, sleep=lambda _s: None)
        exc = info.value
        assert exc.attempts == 3
        assert isinstance(exc.last_error, ConnectionDropped)
        assert isinstance(exc.__cause__, ConnectionDropped)
        assert isinstance(exc, ResilienceGiveUp)
        assert metrics.counter_value("retry.giveups") == 1
        assert metrics.counter_value("retry.attempts") == 3

    def test_on_transient_observes_each_failure(self):
        seen = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("blip")
            return True

        retry_call(flaky, RetryPolicy(), sleep=lambda _s: None,
                   on_transient=seen.append)
        assert len(seen) == 2

    def test_open_breaker_rejects_without_calling_fn(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=4, min_calls=2, cooldown_seconds=10,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_OPEN
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            return 1

        with pytest.raises(BreakerOpen):
            retry_call(fn, RetryPolicy(), breaker=breaker,
                       sleep=lambda _s: None)
        assert calls["n"] == 0

    def test_breaker_records_outcomes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=10, min_calls=5, clock=clock)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("blip")
            return True

        retry_call(flaky, RetryPolicy(), breaker=breaker,
                   sleep=lambda _s: None)
        assert breaker.failure_rate() == 0.5  # one failure, one success


# ---------------------------------------------------------------------------
# Deadline + run_with_timeout
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0)

    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == 5.0
        assert not deadline.expired
        deadline.check()
        clock.advance(5.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.check("LLM call")

    def test_deadline_exceeded_is_transient(self):
        # late responses are retryable: the next attempt may be fast
        assert issubclass(DeadlineExceeded, TransientError)


class TestRunWithTimeout:
    def test_no_budget_runs_directly(self):
        assert run_with_timeout(lambda: "x", None) == "x"
        assert run_with_timeout(lambda: "x", 0) == "x"

    def test_within_budget_returns_result(self):
        assert run_with_timeout(lambda: 7, 5.0) == 7

    def test_fn_exception_propagates(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError):
            run_with_timeout(boom, 5.0)

    @pytest.mark.skipif(not signal_timeout_available(),
                        reason="needs SIGALRM on the main thread")
    def test_signal_mode_interrupts_sleep(self):
        start = time.monotonic()
        with pytest.raises(ExecutionTimeout):
            run_with_timeout(lambda: time.sleep(30), 0.2)
        assert time.monotonic() - start < 1.0

    def test_timeout_is_runtime_error(self):
        # the taxonomy must classify budget exhaustion as an RE-group error
        assert issubclass(ExecutionTimeout, RuntimeError)

    def test_off_main_thread_budget_refused(self):
        # SIGALRM cannot reach a non-main thread: a positive budget is
        # refused there, while an unbounded call still runs fn directly
        from concurrent.futures import ThreadPoolExecutor

        def probe():
            with pytest.raises(RuntimeError, match="main thread"):
                run_with_timeout(lambda: "never", 5.0)
            return (run_with_timeout(lambda: "x", None),
                    run_with_timeout(lambda: "y", 0))

        with ThreadPoolExecutor(max_workers=1) as threads:
            assert threads.submit(probe).result(timeout=10.0) == ("x", "y")


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        defaults = dict(failure_threshold=0.5, window=4, min_calls=4,
                        cooldown_seconds=10.0, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)

    def test_stays_closed_below_min_calls(self):
        breaker = self._breaker(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.before_call()  # admits

    def test_opens_at_failure_threshold(self):
        breaker = self._breaker(FakeClock())
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()  # 2/4 = threshold
        assert breaker.state == STATE_OPEN

    def test_open_rejects_with_retry_after(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(4.0)
        with pytest.raises(BreakerOpen) as info:
            breaker.before_call()
        assert info.value.retry_after_seconds == pytest.approx(6.0)

    def test_half_open_probe_quota(self):
        clock = FakeClock()
        breaker = self._breaker(clock, half_open_max_calls=1)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()  # first probe admitted
        assert breaker.state == STATE_HALF_OPEN
        with pytest.raises(BreakerOpen):
            breaker.before_call()  # probe quota exhausted

    def test_probe_success_closes_and_clears_window(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.failure_rate() == 0.0

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        with pytest.raises(BreakerOpen):
            breaker.before_call()  # new cooldown started

    def test_reset(self):
        breaker = self._breaker(FakeClock())
        for _ in range(4):
            breaker.record_failure()
        breaker.reset()
        assert breaker.state == STATE_CLOSED
        assert breaker.failure_rate() == 0.0

    def test_transitions_emit_metrics(self, metrics):
        clock = FakeClock()
        breaker = self._breaker(clock, name="t")
        for _ in range(4):
            breaker.record_failure()
        with pytest.raises(BreakerOpen):
            breaker.before_call()
        clock.advance(10.0)
        breaker.before_call()
        breaker.record_success()
        assert metrics.counter_value(
            "breaker.transitions",
            **{"from": "closed", "to": "open", "breaker": "t"}) == 1
        assert metrics.counter_value(
            "breaker.transitions",
            **{"from": "open", "to": "half_open", "breaker": "t"}) == 1
        assert metrics.counter_value(
            "breaker.transitions",
            **{"from": "half_open", "to": "closed", "breaker": "t"}) == 1
        assert metrics.counter_value("breaker.rejections", breaker="t") == 1


# ---------------------------------------------------------------------------
# FlakyLLM
# ---------------------------------------------------------------------------


def _complete_or_fault(client, prompt):
    try:
        return client.complete(prompt).content
    except TransientError as exc:
        return type(exc).__name__


class TestFlakyLLM:
    def test_validation(self):
        inner = MockLLM("gpt-4o", fault_injection=False)
        with pytest.raises(ValueError):
            FlakyLLM(inner, fault_rate=1.5)
        with pytest.raises(ValueError):
            FlakyLLM(inner, fault_types=("dns_hijack",))

    def test_zero_rate_is_passthrough(self):
        bare = MockLLM("gpt-4o", seed=0, fault_injection=False)
        flaky = FlakyLLM(MockLLM("gpt-4o", seed=0, fault_injection=False),
                         fault_rate=0.0)
        prompt = "hello"
        assert flaky.complete(prompt).content == bare.complete(prompt).content
        assert flaky.faults_injected == 0

    def test_schedule_is_deterministic(self):
        def run():
            client = FlakyLLM(MockLLM("gpt-4o", fault_injection=False),
                              fault_rate=0.5, seed=11,
                              sleep=lambda _s: None)
            return [_complete_or_fault(client, f"p{i}") for i in range(30)]

        assert run() == run()

    def test_seed_changes_schedule(self):
        def run(seed):
            client = FlakyLLM(MockLLM("gpt-4o", fault_injection=False),
                              fault_rate=0.5, seed=seed,
                              sleep=lambda _s: None)
            return [_complete_or_fault(client, f"p{i}") for i in range(30)]

        assert run(0) != run(1)

    def test_fault_rate_observed(self):
        client = FlakyLLM(MockLLM("gpt-4o", fault_injection=False),
                          fault_rate=0.3, seed=0, sleep=lambda _s: None)
        for i in range(300):
            _complete_or_fault(client, f"p{i}")
        assert 0.2 < client.faults_injected / client.calls < 0.4

    def test_all_fault_types_reachable(self):
        client = FlakyLLM(MockLLM("gpt-4o", fault_injection=False),
                          fault_rate=1.0, seed=0, sleep=lambda _s: None)
        seen = set()
        for i in range(60):
            with pytest.raises(TransientError) as info:
                client.complete(f"p{i}")
            seen.add(type(info.value).__name__)
        assert seen == {"RateLimited", "ConnectionDropped",
                        "TruncatedCompletion", "SlowResponse"}
        assert len(TRANSIENT_FAULT_TYPES) == 4

    def test_truncated_spends_inner_tokens_and_carries_partial(self):
        inner = MockLLM("gpt-4o", fault_injection=False)
        client = FlakyLLM(inner, fault_rate=1.0, seed=0,
                          fault_types=("truncated_completion",),
                          sleep=lambda _s: None)
        before = inner.usage.n_requests
        with pytest.raises(TruncatedCompletion) as info:
            client.complete("generate a pipeline")
        assert inner.usage.n_requests == before + 1
        assert info.value.partial  # half the real completion

    def test_usage_delegates_to_inner(self):
        inner = MockLLM("gpt-4o", fault_injection=False)
        client = FlakyLLM(inner, fault_rate=0.0)
        client.complete("x")
        assert client.usage is inner.usage
        assert client.usage.n_requests == 1


# ---------------------------------------------------------------------------
# ResilientLLM
# ---------------------------------------------------------------------------


class _DeadClient:
    """Transport that always raises; counts attempts."""

    model = "dead"

    def __init__(self, exc_factory=lambda: ConnectionDropped("reset")):
        from repro.llm.base import LLMUsage

        self.usage = LLMUsage()
        self.attempts = 0
        self._exc_factory = exc_factory

    def complete(self, messages):
        self.attempts += 1
        raise self._exc_factory()


class TestResilientLLM:
    def _policy(self, **kwargs):
        defaults = dict(max_attempts=4, base_delay=0.0, jitter=0.0)
        defaults.update(kwargs)
        return RetryPolicy(**defaults)

    def test_recovery_matches_bare_client(self):
        prompt = "describe the schema"
        bare = MockLLM("gpt-4o", seed=0, fault_injection=False).complete(prompt)
        flaky = FlakyLLM(MockLLM("gpt-4o", seed=0, fault_injection=False),
                         fault_rate=0.5, seed=5, sleep=lambda _s: None)
        resilient = ResilientLLM(flaky, policy=self._policy(max_attempts=8),
                                 sleep=lambda _s: None)
        for _ in range(10):
            assert resilient.complete(prompt).content == bare.content
        assert flaky.faults_injected > 0  # retries actually happened

    def test_exhaustion_raises_retry_exhausted(self, metrics):
        dead = _DeadClient()
        resilient = ResilientLLM(dead, policy=self._policy(max_attempts=3),
                                 sleep=lambda _s: None)
        with pytest.raises(RetryExhausted):
            resilient.complete("x")
        assert dead.attempts == 3
        assert metrics.counter_value(
            "llm.transient_errors", type="ConnectionDropped") == 3

    def test_usage_delegates_to_inner(self):
        inner = MockLLM("gpt-4o", fault_injection=False)
        resilient = ResilientLLM(inner, policy=self._policy())
        resilient.complete("x")
        assert resilient.usage is inner.usage
        assert resilient.usage.n_requests == 1

    def test_breaker_opens_after_repeated_giveups(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=0.5, window=4, min_calls=4,
                                 cooldown_seconds=60.0, clock=clock)
        dead = _DeadClient()
        resilient = ResilientLLM(dead, policy=self._policy(max_attempts=4),
                                 breaker=breaker, sleep=lambda _s: None)
        with pytest.raises(RetryExhausted):
            resilient.complete("x")
        assert breaker.state == STATE_OPEN
        before = dead.attempts
        with pytest.raises(BreakerOpen):
            resilient.complete("y")
        assert dead.attempts == before  # rejected before reaching transport

    @pytest.mark.skipif(not signal_timeout_available(),
                        reason="needs SIGALRM on the main thread")
    def test_deadline_interrupts_slow_call(self):
        class Slow:
            model = "slow"

            def __init__(self):
                from repro.llm.base import LLMUsage

                self.usage = LLMUsage()

            def complete(self, messages):
                time.sleep(30)

        resilient = ResilientLLM(Slow(), policy=self._policy(max_attempts=1),
                                 timeout_seconds=0.2, sleep=lambda _s: None)
        start = time.monotonic()
        with pytest.raises(RetryExhausted) as info:
            resilient.complete("x")
        assert time.monotonic() - start < 2.0
        assert isinstance(info.value.last_error, DeadlineExceeded)


class TestBuildClient:
    def test_defaults_return_bare_mock(self):
        client = build_client("gpt-4o", seed=3)
        assert type(client) is MockLLM

    def test_fault_rate_assembles_full_stack(self):
        client = build_client("gpt-4o", fault_rate=0.3)
        assert isinstance(client, ResilientLLM)
        assert isinstance(client.inner, FlakyLLM)
        assert isinstance(client.inner.inner, MockLLM)

    def test_max_retries_wraps_without_faults(self):
        client = build_client("gpt-4o", max_retries=5)
        assert isinstance(client, ResilientLLM)
        assert isinstance(client.inner, MockLLM)
        assert client.policy.max_attempts == 6


# ---------------------------------------------------------------------------
# executor wall-clock budget (satellite: infinite pipeline must not hang)
# ---------------------------------------------------------------------------


def _toy_tables():
    rng = np.random.default_rng(0)
    t = Table.from_dict({"a": rng.normal(size=30).tolist(),
                         "y": (["u", "v"] * 15)}, name="toy")
    return t, t


class TestExecutorTimeout:
    def test_infinite_loop_is_killed_and_classified(self):
        code = ("def run_pipeline(train, test):\n"
                "    while True:\n"
                "        pass\n")
        train, test = _toy_tables()
        start = time.monotonic()
        result = execute_pipeline_code(code, train, test, timeout_seconds=0.5)
        elapsed = time.monotonic() - start
        assert elapsed < 0.5 + 1.0  # acceptance bound: budget + 1s
        assert not result.success
        assert result.error is not None
        assert result.error.error_type.name == "no_convergence"
        assert result.error.group.value == "RE"
        assert result.error.details.get("timed_out") is True
        assert result.error.details.get("timeout_seconds") == 0.5

    def test_fast_pipeline_unaffected_by_budget(self):
        code = ("def run_pipeline(train, test):\n"
                "    return {'train_accuracy': 1.0, 'test_accuracy': 1.0}\n")
        train, test = _toy_tables()
        result = execute_pipeline_code(code, train, test, timeout_seconds=5.0)
        assert result.success

    def test_timeout_counter_emitted(self, metrics):
        code = ("def run_pipeline(train, test):\n"
                "    while True:\n"
                "        pass\n")
        train, test = _toy_tables()
        execute_pipeline_code(code, train, test, timeout_seconds=0.3)
        assert metrics.counter_value("execute.timeouts") == 1


# ---------------------------------------------------------------------------
# generator degradation + repair budget audit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(2)
    n = 240
    data = {f"v{i}": rng.normal(size=n) for i in range(6)}
    data["y"] = np.where(data["v0"] + data["v1"] > 0, "a", "b").tolist()
    t = Table.from_dict(data, name="resil")
    labels = [str(v) for v in t["y"]]
    train, test = train_test_split(t, test_size=0.3, random_state=0,
                                   stratify=labels)
    return train, test, profile_table(t, target="y", task_type="binary")


def _dead_transport():
    """A transport that fails every attempt and exhausts quickly."""
    flaky = FlakyLLM(MockLLM("gpt-4o", seed=0, fault_injection=False),
                     fault_rate=1.0, seed=0, sleep=lambda _s: None)
    policy = RetryPolicy(max_attempts=2, base_delay=0.0)
    return ResilientLLM(flaky, policy=policy, sleep=lambda _s: None)


class TestGeneratorDegradation:
    def test_catdb_degrades_gracefully(self, dataset):
        train, test, catalog = dataset
        report = CatDB(_dead_transport()).generate(train, test, catalog)
        assert report.degraded
        assert "RetryExhausted" in report.degraded_reason
        assert report.success  # handcraft fallback still executes
        assert report.fallback_used

    def test_chain_degrades_gracefully(self, dataset):
        train, test, catalog = dataset
        report = CatDBChain(_dead_transport(), beta=2).generate(
            train, test, catalog
        )
        assert report.degraded
        assert report.success
        assert report.fallback_used

    def test_degradation_emits_metric(self, metrics, dataset):
        train, test, catalog = dataset
        CatDB(_dead_transport()).generate(train, test, catalog)
        assert metrics.counter_value(
            "generate.degraded", reason="RetryExhausted") == 1

    def test_breaker_giveup_also_degrades(self, dataset):
        train, test, catalog = dataset
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=0.5, window=2, min_calls=2,
                                 cooldown_seconds=3600.0, clock=clock)
        flaky = FlakyLLM(MockLLM("gpt-4o", seed=0, fault_injection=False),
                         fault_rate=1.0, seed=0, sleep=lambda _s: None)
        llm = ResilientLLM(flaky, policy=RetryPolicy(max_attempts=3,
                                                     base_delay=0.0),
                           breaker=breaker, sleep=lambda _s: None)
        report = CatDB(llm).generate(train, test, catalog)
        assert report.degraded
        assert report.success


class TestRepairBudgetAudit:
    """A repair budget of beta must never buy more than beta repair calls,
    transport retries excluded."""

    @pytest.mark.parametrize("beta", [0, 1, 3])
    def test_error_prompts_bounded_by_budget(self, dataset, beta):
        train, test, catalog = dataset
        for seed in range(6):
            llm = MockLLM("llama3.1-70b", seed=seed,
                          error_rate_multiplier=10.0)
            report = CatDB(llm, max_fix_attempts=beta).generate(
                train, test, catalog, iteration=seed
            )
            assert report.cost.n_error_prompts <= beta
            assert report.cost.gamma <= 1 + beta
            assert report.fix_attempts <= beta

    def test_transport_retries_do_not_consume_budget(self, dataset):
        train, test, catalog = dataset
        beta = 2
        for seed in range(8):
            inner = MockLLM("llama3.1-70b", seed=seed,
                            error_rate_multiplier=10.0)
            flaky = FlakyLLM(inner, fault_rate=0.4, seed=seed,
                             sleep=lambda _s: None)
            llm = ResilientLLM(
                flaky, policy=RetryPolicy(max_attempts=6, base_delay=0.0),
                sleep=lambda _s: None,
            )
            report = CatDB(llm, max_fix_attempts=beta).generate(
                train, test, catalog, iteration=seed
            )
            assert report.cost.gamma <= 1 + beta
            if flaky.faults_injected:
                # the transport saw more attempts than the budget admits
                assert inner.usage.n_requests >= report.cost.gamma
            if not report.degraded:
                assert report.success


# ---------------------------------------------------------------------------
# mini soak: the CI job's contract in miniature
# ---------------------------------------------------------------------------


class TestMiniSoak:
    def test_faulted_runs_complete_and_match_baseline(self, dataset):
        train, test, catalog = dataset
        for seed in range(8):
            baseline = CatDB(build_client("gpt-4o", seed=seed)).generate(
                train, test, catalog, iteration=seed
            )
            llm = build_client("gpt-4o", seed=seed, fault_rate=0.3,
                               retry_base_delay=0.0, slow_seconds=0.0)
            report = CatDB(llm).generate(train, test, catalog, iteration=seed)
            assert report.success or report.degraded
            if not report.degraded:
                assert report.code == baseline.code
                assert report.metrics == baseline.metrics
