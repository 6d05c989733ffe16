"""Exception family for the resilience layer.

The hierarchy separates *transient* failures (a retry may succeed: rate
limits, dropped connections, slow responses) from *give-up* outcomes (the
policy decided to stop: retries exhausted).  Callers
that want graceful degradation catch :class:`ResilienceGiveUp`; transport
wrappers raise :class:`TransientError` subclasses and let
:func:`repro.resilience.retry.retry_call` absorb them.
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "TransientError",
    "DeadlineExceeded",
    "ResilienceGiveUp",
    "RetryExhausted",
]


class ResilienceError(Exception):
    """Base class for every resilience-layer exception."""


class TransientError(ResilienceError):
    """A failure that is expected to clear on retry (default-retryable)."""


class DeadlineExceeded(TransientError):
    """One call exceeded its per-call deadline; the attempt is discarded.

    Subclasses :class:`TransientError` because a slow call is worth
    retrying — the *overall* budget is the retry policy's concern.
    """


class ResilienceGiveUp(ResilienceError):
    """The resilience layer stopped trying; degrade gracefully."""


class RetryExhausted(ResilienceGiveUp):
    """Every allowed attempt failed with a retryable error."""

    def __init__(
        self,
        message: str,
        attempts: int = 0,
        last_error: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error
