"""Execution-mode and pool configuration (env-resolvable, import-light).

This module is imported by :mod:`repro.generation.executor` at module
load, so it must not import anything from the executor side — it only
reads environment variables and holds the :class:`PoolConfig` value
object.  The knobs:

- ``REPRO_EXEC_MODE``            — ``inproc`` (default) | ``pool``
- ``REPRO_EXEC_MEMORY_MB``       — per-execution address-space soft
  limit applied inside pool workers (unset = unlimited)

Pool sizing, recycling and kill grace are :class:`PoolConfig` fields set
in code; they have no environment switch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EXEC_MODES",
    "MODE_ENV",
    "MEMORY_ENV",
    "PoolConfig",
    "resolve_exec_mode",
    "resolve_memory_mb",
    "pool_config_from_env",
]

EXEC_MODES = ("inproc", "pool")

MODE_ENV = "REPRO_EXEC_MODE"
MEMORY_ENV = "REPRO_EXEC_MEMORY_MB"


def resolve_exec_mode(mode: str | None = None) -> str:
    """Normalize an execution mode: explicit arg > ``$REPRO_EXEC_MODE`` >
    ``inproc``.  Raises ``ValueError`` on anything else."""
    if mode is None:
        mode = os.environ.get(MODE_ENV, "").strip().lower() or "inproc"
    if mode not in EXEC_MODES:
        raise ValueError(
            f"unknown exec mode {mode!r}; expected one of {EXEC_MODES}"
        )
    return mode


def resolve_memory_mb(memory_mb: int | None = None) -> int | None:
    """Per-execution memory cap: explicit arg > ``$REPRO_EXEC_MEMORY_MB``
    > unlimited (``None``).  ``0`` or negative also means unlimited.
    Raises ``ValueError`` when the variable is set but not an integer."""
    if memory_mb is None:
        env = os.environ.get(MEMORY_ENV, "").strip()
        if not env:
            return None
        try:
            memory_mb = int(env)
        except ValueError:
            raise ValueError(
                f"{MEMORY_ENV} must be an integer number of MiB, got {env!r}"
            ) from None
    return memory_mb if memory_mb > 0 else None


@dataclass(frozen=True)
class PoolConfig:
    """Sizing and containment knobs for one :class:`~repro.execpool.pool.\
ExecPool`."""

    size: int = 0  # 0 = one worker per CPU core
    memory_mb: int | None = None  # default per-execution RLIMIT_AS (soft)
    max_jobs_per_worker: int = 64  # recycle cadence (leak containment)
    kill_grace_seconds: float = 1.0  # past-budget slack before SIGKILL
    spawn_timeout_seconds: float = 60.0  # worker must report ready by then

    def resolved_size(self) -> int:
        if self.size > 0:
            return self.size
        return os.cpu_count() or 1


def pool_config_from_env() -> PoolConfig:
    """The default pool configuration (the ``get_pool()`` singleton's)."""
    return PoolConfig(memory_mb=resolve_memory_mb(None))
