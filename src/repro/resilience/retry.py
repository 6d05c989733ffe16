"""Bounded retries with exponential backoff and deterministic seeded jitter.

:class:`RetryPolicy` is a frozen value object: how many attempts, how the
backoff grows, which exceptions count as retryable.  :func:`retry_call`
executes a callable under a policy and emits through the observability
layer (``retry.attempts`` / ``retry.recoveries`` / ``retry.giveups``
counters, ``retry.backoff`` spans).

Jitter is *deterministic*: it is derived from a stable hash of the policy
seed plus the caller-supplied salt, never from wall-clock or a global RNG,
so a seeded run schedules exactly the same backoffs every time — parallel
and sequential runs stay bit-identical.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.errors import RetryExhausted, TransientError

__all__ = ["RetryPolicy", "retry_call", "stable_jitter_point"]

T = TypeVar("T")

#: Exception classes retried by default: the simulated transient family
#: plus the builtin transport errors a real HTTP driver would surface.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TransientError,
    TimeoutError,
    ConnectionError,
)


def stable_jitter_point(*parts: Any) -> float:
    """Deterministic point in ``[0, 1)`` from a stable md5 hash of ``parts``."""
    digest = hashlib.md5(
        "\x1f".join(str(p) for p in parts).encode("utf-8")
    ).hexdigest()
    return int(digest[:12], 16) / 16**12


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry one logical call.

    ``max_attempts`` counts the first try, so ``max_attempts=4`` means one
    call plus up to three retries.  The delay before retry ``k`` (0-based)
    is ``min(max_delay, base_delay * multiplier**k)`` scaled down by up to
    ``jitter`` (a fraction in ``[0, 1]``) using deterministic seeded
    jitter — "full jitter" capped at the deterministic point.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth another attempt under this policy."""
        return isinstance(exc, self.retryable)

    def delay(self, attempt: int, *salt: Any) -> float:
        """Backoff before retry ``attempt`` (0-based), with seeded jitter."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if raw <= 0 or self.jitter <= 0:
            return max(0.0, raw)
        point = stable_jitter_point("retry-jitter", self.seed, attempt, *salt)
        return raw * (1.0 - self.jitter * point)


def retry_call(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    *,
    sleep: Callable[[float], None] = time.sleep,
    salt: tuple[Any, ...] = (),
    on_transient: Callable[[BaseException], None] | None = None,
) -> T:
    """Run ``fn`` under ``policy``; raise :class:`RetryExhausted` on give-up.

    ``salt`` feeds the deterministic jitter so distinct call sites
    schedule distinct (but reproducible) backoffs.  ``on_transient``
    observes each retryable failure (used for fault-type metrics).
    """
    policy = policy or RetryPolicy()
    metrics = get_metrics()
    tracer = get_tracer()
    last_error: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            result = fn()
        except BaseException as exc:  # noqa: BLE001 - classified right below
            if not policy.is_retryable(exc):
                raise
            last_error = exc
            if on_transient is not None:
                on_transient(exc)
            metrics.inc("retry.attempts")
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.delay(attempt, *salt)
            with tracer.span(
                "retry.backoff", attempt=attempt,
                delay_seconds=round(delay, 6),
                error_type=type(exc).__name__,
            ):
                if delay > 0:
                    sleep(delay)
            continue
        if attempt > 0:
            metrics.inc("retry.recoveries")
        return result
    metrics.inc("retry.giveups")
    raise RetryExhausted(
        f"gave up after {policy.max_attempts} attempts: "
        f"{type(last_error).__name__}: {last_error}",
        attempts=policy.max_attempts,
        last_error=last_error,
    ) from last_error
