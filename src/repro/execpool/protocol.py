"""Wire protocol between the orchestrator and pool workers.

Frames are length-prefixed pickles (4-byte big-endian length + payload)
over plain pipes.  The parent writes :class:`ExecJob` frames to the
worker's stdin; the worker answers each with one reply frame on a
duplicate of its original stdout (its *real* fd 1 is pointed at
``/dev/null`` before any pipeline code runs, so a stdout-flooding
pipeline can never corrupt the protocol stream — see
:mod:`repro.execpool.worker`).

The parent-side read is deadline-aware (`read_frame` with ``deadline``)
so a worker that never answers — hung in C code, stopped, or livelocked
— is detected and killed instead of hanging the orchestrator.

:func:`classify_worker_death` maps a worker that died *without replying*
(SIGKILL'd by us at the budget, OOM-killed by the kernel, segfaulted, or
``os._exit``'d by hostile code) onto the existing RE taxonomy, so the
repair loop consumes crashes exactly like in-process failures.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import time
from dataclasses import dataclass, field
from typing import Any, BinaryIO

from repro.generation.errors import ERROR_TYPES, PipelineError

__all__ = [
    "ExecJob",
    "WorkerReply",
    "FrameTimeout",
    "WorkerDied",
    "write_frame",
    "read_frame",
    "classify_worker_death",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame; a reply larger than this means the worker is
#: broken (a pipeline's metrics dict is tiny; tables dominate job frames).
MAX_FRAME_BYTES = 1 << 30


class FrameTimeout(Exception):
    """No complete frame arrived before the deadline."""


class WorkerDied(Exception):
    """The pipe closed mid-frame: the worker process is gone."""


@dataclass
class ExecJob:
    """One pipeline execution request (pickled whole, tables included)."""

    code: str
    train: Any  # repro.table.table.Table
    test: Any
    filename: str = "<pipeline>"
    timeout_seconds: float | None = None
    memory_mb: int | None = None
    cpu_seconds: float | None = None
    #: the caller's fit reuse entries (``repro.ml.reuse.scope_entries``);
    #: ``None`` when the caller runs outside a reuse scope
    reuse: dict[bytes, Any] | None = None


@dataclass
class WorkerReply:
    """One worker → parent message."""

    kind: str  # "ready" | "result"
    result: Any = None  # ExecutionResult for kind == "result"
    peak_rss_bytes: int = 0
    jobs_done: int = 0
    pid: int = 0
    extra: dict[str, Any] = field(default_factory=dict)
    #: what the job's fits added to its seeded scope
    #: (``repro.ml.reuse.ScopeDelta``); ``None`` for a job without one
    reuse: Any = None


def write_frame(stream: BinaryIO, payload: Any) -> None:
    """Pickle ``payload`` and write it as one length-prefixed frame."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(blob)))
    stream.write(blob)
    stream.flush()


def _read_exact(fd: int, n: int, deadline: float | None) -> bytes:
    """Read exactly ``n`` bytes from ``fd``; deadline-aware via select."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise FrameTimeout("frame read exceeded its deadline")
            readable, _, _ = select.select([fd], [], [], budget)
            if not readable:
                raise FrameTimeout("frame read exceeded its deadline")
        chunk = os.read(fd, remaining)
        if not chunk:
            raise WorkerDied("pipe closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(fd: int, deadline: float | None = None) -> Any:
    """Read one frame from raw ``fd``.

    ``deadline`` is an absolute ``time.monotonic()`` instant; ``None``
    blocks indefinitely (the caller opted out of a wall budget, matching
    in-process semantics).  Raises :class:`FrameTimeout` past the
    deadline and :class:`WorkerDied` on a closed pipe.
    """
    header = _read_exact(fd, _HEADER.size, deadline)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WorkerDied(f"oversized frame ({length} bytes)")
    return pickle.loads(_read_exact(fd, length, deadline))


def classify_worker_death(
    returncode: int | None,
    killed_on_timeout: bool,
    timeout_seconds: float | None = None,
    memory_mb: int | None = None,
) -> PipelineError:
    """Map a reply-less worker death onto the RE taxonomy.

    - killed by the parent at the wall budget  → ``no_convergence`` with
      ``timed_out`` details (the in-process timeout classification)
    - SIGKILL it did not ask for (kernel OOM killer) → ``resource_limit``
    - SIGSEGV / SIGBUS / SIGABRT / SIGFPE (ctypes, native crashes)
      → ``no_convergence`` with ``crashed`` details
    - plain exit without a reply (``os._exit``)  → ``no_convergence``
      with the exit code in details
    """
    if killed_on_timeout:
        error = PipelineError(
            ERROR_TYPES["no_convergence"],
            f"execution exceeded its {timeout_seconds:g}s wall-clock budget "
            "(pool worker killed)",
        )
        error.details["timed_out"] = True
        error.details["timeout_seconds"] = timeout_seconds
        error.details["worker_killed"] = True
        return error
    if returncode is not None and returncode < 0:
        signum = -returncode
        try:
            signame = signal.Signals(signum).name
        except ValueError:
            signame = f"signal {signum}"
        if signum == signal.SIGKILL:
            error = PipelineError(
                ERROR_TYPES["resource_limit"],
                "pool worker was SIGKILLed mid-execution "
                "(kernel OOM killer or external kill)",
            )
            error.details["oom_suspected"] = True
        else:
            error = PipelineError(
                ERROR_TYPES["no_convergence"],
                f"pool worker crashed with {signame} while executing the "
                "pipeline",
            )
            error.details["crashed"] = True
        error.details["signal"] = signame
        if memory_mb is not None:
            error.details["memory_mb"] = memory_mb
        return error
    error = PipelineError(
        ERROR_TYPES["no_convergence"],
        f"pool worker exited (code {returncode}) without returning a "
        "result (os._exit or interpreter teardown inside the pipeline)",
    )
    error.details["crashed"] = True
    error.details["worker_exit"] = returncode
    return error
