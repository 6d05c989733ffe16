"""Resilience layer: retries and deadlines.

Separates orchestration robustness (how calls survive transient failure)
from generation logic (what the calls do) — see ``docs/resilience.md``.
Everything here is deterministic under a seed: backoff jitter comes from
stable hashes, and clocks are injectable for tests and soaks.
"""

from repro.resilience.deadline import (
    Deadline,
    ExecutionTimeout,
    run_with_timeout,
    signal_timeout_available,
)
from repro.resilience.errors import (
    DeadlineExceeded,
    ResilienceError,
    ResilienceGiveUp,
    RetryExhausted,
    TransientError,
)
from repro.resilience.retry import (
    DEFAULT_RETRYABLE,
    RetryPolicy,
    retry_call,
    stable_jitter_point,
)

__all__ = [
    "Deadline",
    "ExecutionTimeout",
    "run_with_timeout",
    "signal_timeout_available",
    "ResilienceError",
    "TransientError",
    "DeadlineExceeded",
    "ResilienceGiveUp",
    "RetryExhausted",
    "RetryPolicy",
    "retry_call",
    "stable_jitter_point",
    "DEFAULT_RETRYABLE",
]
