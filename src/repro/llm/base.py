"""LLM client protocol, responses, usage accounting, and resilience.

:class:`ResilientLLM` is the transport-resilience decorator every driver
can opt into: it retries transient failures under a seeded
:class:`~repro.resilience.retry.RetryPolicy`, enforces a per-call
deadline, and routes every attempt through an optional
:class:`~repro.resilience.breaker.CircuitBreaker` — see
``docs/resilience.md`` for the exact semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.llm.tokenizer import count_tokens
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    ExecutionTimeout,
    run_with_timeout,
    signal_timeout_available,
)
from repro.resilience.errors import DeadlineExceeded, ResilienceGiveUp
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "ChatMessage",
    "LLMUsage",
    "LLMResponse",
    "LLMClient",
    "extract_code_block",
    "ResilientLLM",
    "record_llm_call",
]


def record_llm_call(response: "LLMResponse") -> None:
    """Feed one completion into the active metrics registry.

    Every :class:`LLMClient` implementation should call this from
    ``complete`` (next to its ``self.usage.add``) so ``llm.calls`` and the
    token counters stay consistent across backends.  No-op unless a run
    session is active.
    """
    metrics = get_metrics()
    metrics.inc("llm.calls")
    metrics.inc("llm.calls.by_model", model=response.model)
    metrics.inc("llm.tokens_prompt", response.prompt_tokens)
    metrics.inc("llm.tokens_completion", response.completion_tokens)
    task = response.metadata.get("task")
    if task:
        metrics.inc("llm.calls.by_task", task=task)


@dataclass
class ChatMessage:
    """One message in a conversation (role: 'system' | 'user' | 'assistant')."""

    role: str
    content: str

    @property
    def tokens(self) -> int:
        return count_tokens(self.content)


@dataclass
class LLMUsage:
    """Cumulative token accounting across a client's lifetime."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    n_requests: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def add(self, prompt_tokens: int, completion_tokens: int) -> None:
        self.prompt_tokens += prompt_tokens
        self.completion_tokens += completion_tokens
        self.n_requests += 1

    def snapshot(self) -> "LLMUsage":
        return LLMUsage(self.prompt_tokens, self.completion_tokens, self.n_requests)

    def delta_since(self, earlier: "LLMUsage") -> "LLMUsage":
        return LLMUsage(
            self.prompt_tokens - earlier.prompt_tokens,
            self.completion_tokens - earlier.completion_tokens,
            self.n_requests - earlier.n_requests,
        )


@dataclass
class LLMResponse:
    """One model response plus its token cost."""

    content: str
    prompt_tokens: int
    completion_tokens: int
    model: str
    metadata: dict = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


def extract_code_block(response_text: str) -> str:
    """Pull the code out of a model response.

    Prefers ``<CODE>...</CODE>`` tags; falls back to the raw text.  Leftover
    markdown fences are intentionally NOT stripped here — detecting them is
    the static analyzer's job (they are one of the 23 error types).
    """
    text = response_text
    if "<CODE>" in text and "</CODE>" in text:
        text = text.split("<CODE>", 1)[1].split("</CODE>", 1)[0]
    return text.strip("\n")


class LLMClient:
    """Minimal chat-completion interface all model backends implement."""

    model: str

    def __init__(self) -> None:
        self.usage = LLMUsage()

    def complete(self, messages: Sequence[ChatMessage] | str) -> LLMResponse:
        """Run one completion; implementations must update ``self.usage``."""
        raise NotImplementedError

    def _coerce_messages(
        self, messages: Sequence[ChatMessage] | str
    ) -> list[ChatMessage]:
        if isinstance(messages, str):
            return [ChatMessage("user", messages)]
        return list(messages)

    def reset_usage(self) -> None:
        self.usage = LLMUsage()


class ResilientLLM(LLMClient):
    """Retry + deadline + circuit-breaker decorator for any client.

    Wraps ``inner.complete`` so that transient failures (the
    :class:`~repro.resilience.errors.TransientError` family plus builtin
    ``TimeoutError``/``ConnectionError``) are retried with deterministic
    seeded backoff.  When ``timeout_seconds`` is set, each attempt runs
    under a per-call deadline: SIGALRM-based interruption on a POSIX main
    thread, a post-hoc lateness check elsewhere.  On give-up the wrapper
    raises :class:`~repro.resilience.errors.RetryExhausted` or
    :class:`~repro.resilience.errors.BreakerOpen`; callers that must not
    fail catch :class:`~repro.resilience.errors.ResilienceGiveUp` and
    degrade (the generator's repair loop does exactly that).

    Emits ``retry.attempts`` / ``retry.recoveries`` / ``retry.giveups``
    and ``llm.transient_errors{type=}`` counters plus ``retry.backoff``
    spans through the active observability session.
    """

    def __init__(
        self,
        inner: LLMClient,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        timeout_seconds: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.model = inner.model
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker
        self.timeout_seconds = timeout_seconds
        self._sleep = sleep
        self._call_index = 0

    @property
    def usage(self) -> LLMUsage:
        """Token accounting lives with the inner client."""
        return self.inner.usage

    def reset_usage(self) -> None:
        self.inner.reset_usage()

    # -- one attempt, under the per-call deadline ------------------------------

    def _attempt(self, messages: Sequence[ChatMessage] | str) -> LLMResponse:
        if not self.timeout_seconds:
            return self.inner.complete(messages)
        deadline = Deadline(self.timeout_seconds)
        if signal_timeout_available():
            try:
                response = run_with_timeout(
                    lambda: self.inner.complete(messages),
                    self.timeout_seconds,
                )
            except ExecutionTimeout as exc:
                raise DeadlineExceeded(
                    f"LLM call exceeded its {self.timeout_seconds:g}s deadline"
                ) from exc
        else:
            response = self.inner.complete(messages)
        # a response that arrived after the deadline is discarded (the
        # fallback path above cannot interrupt the call mid-flight)
        deadline.check("LLM call")
        return response

    def complete(self, messages: Sequence[ChatMessage] | str) -> LLMResponse:
        self._call_index += 1
        call_index = self._call_index
        metrics = get_metrics()
        transient_count = 0

        def _note_transient(exc: BaseException) -> None:
            nonlocal transient_count
            transient_count += 1
            metrics.inc("llm.transient_errors", type=type(exc).__name__)

        with get_tracer().span(
            "llm.resilient", model=self.model, call=call_index
        ) as span:
            try:
                response = retry_call(
                    lambda: self._attempt(messages),
                    self.policy,
                    breaker=self.breaker,
                    sleep=self._sleep,
                    salt=(self.model, call_index),
                    on_transient=_note_transient,
                )
            except ResilienceGiveUp as exc:
                span.set(
                    gave_up=True,
                    giveup_type=type(exc).__name__,
                    transient_errors=transient_count,
                )
                raise
            span.set(transient_errors=transient_count)
            return response
