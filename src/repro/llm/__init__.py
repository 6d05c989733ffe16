"""Simulated LLM substrate.

The original CatDB calls commercial LLM APIs (GPT-4o, Gemini-1.5-pro,
Llama3.1-70b).  This package replaces them with a deterministic,
offline :class:`MockLLM` that

- parses CatDB's structured prompts (rules ``R`` + schema ``S``),
- emits *real, runnable* pipeline code over :mod:`repro.ml`,
- answers the catalog-refinement questions (feature types, category
  deduplication) through the :mod:`repro.llm.semantics` layer, and
- fails with the paper's empirical error distribution (Table 2 /
  Figure 8) via :mod:`repro.llm.faults`, per-model profiles included.

Everything is seeded and reproducible; "iterations" differ through an
explicit iteration counter mixed into the fault hash, mirroring the
residual randomness the paper observes at temperature zero.
"""

from repro.llm.base import (
    ChatMessage,
    LLMClient,
    LLMResponse,
    LLMUsage,
    ResilientLLM,
)
from repro.llm.faults import FlakyLLM
from repro.llm.mock import MockLLM
from repro.llm.profiles import LLMProfile, get_profile, list_profiles
from repro.llm.tokenizer import count_tokens
from repro.resilience.retry import RetryPolicy

__all__ = [
    "ChatMessage",
    "LLMClient",
    "LLMResponse",
    "LLMUsage",
    "ResilientLLM",
    "FlakyLLM",
    "MockLLM",
    "LLMProfile",
    "get_profile",
    "list_profiles",
    "count_tokens",
    "build_client",
]


def build_client(
    model: str,
    seed: int = 0,
    fault_injection: bool = True,
    fault_rate: float = 0.0,
    max_retries: int | None = None,
    llm_timeout: float | None = None,
    retry_base_delay: float = 0.05,
    slow_seconds: float = 0.05,
) -> LLMClient:
    """Assemble the offline LLM stack: MockLLM → FlakyLLM → ResilientLLM.

    With every resilience knob at its default the bare :class:`MockLLM`
    is returned, so legacy call paths stay bit-identical.  ``fault_rate``
    > 0 inserts the :class:`FlakyLLM` transient-fault injector; any of
    ``fault_rate``/``max_retries``/``llm_timeout`` being set
    wraps the stack in :class:`ResilientLLM` (``max_retries`` counts
    retries *after* the first attempt; default 3).
    """
    client: LLMClient = MockLLM(model, seed=seed, fault_injection=fault_injection)
    if fault_rate > 0:
        client = FlakyLLM(
            client, fault_rate=fault_rate, seed=seed, slow_seconds=slow_seconds
        )
    if fault_rate > 0 or max_retries is not None or llm_timeout is not None:
        policy = RetryPolicy(
            max_attempts=(3 if max_retries is None else max_retries) + 1,
            base_delay=retry_base_delay,
            seed=seed,
        )
        client = ResilientLLM(client, policy=policy, timeout_seconds=llm_timeout)
    return client
