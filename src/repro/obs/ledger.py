"""Persistent run ledger: one JSONL record per observed run.

A record captures everything needed to answer "where did the time and
tokens go" after the fact: the full span tree, the metrics snapshot, the
run configuration, and the outcome.  The ledger supports appending,
listing, loading by id (or unique prefix), and diffing two runs into a
per-phase wall-time + token delta table.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.trace import aggregate_spans, render_span_tree
from repro.text_table import format_table

__all__ = [
    "RunRecord",
    "RunLedger",
    "default_ledger_path",
    "render_record",
    "render_records_table",
    "render_diff",
]

_RUNS_DIR_ENV = "REPRO_RUNS_DIR"


def default_ledger_path() -> Path:
    """``$REPRO_RUNS_DIR/ledger.jsonl`` or ``./runs/ledger.jsonl``."""
    return Path(os.environ.get(_RUNS_DIR_ENV, "runs")) / "ledger.jsonl"


@dataclass
class RunRecord:
    """One persisted observation of a generation / experiment run."""

    run_id: str
    kind: str  # "generate" | "profile" | "catdb" | "baseline" | "automl" | ...
    created_at: str  # ISO-8601 UTC
    dataset: str = ""
    llm: str = ""
    config: dict[str, Any] = field(default_factory=dict)
    outcome: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    @staticmethod
    def new_id() -> str:
        return uuid.uuid4().hex[:10]

    @staticmethod
    def now_iso() -> str:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    # -- derived views ------------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Duration of the root span(s)."""
        return sum(
            float(s.get("duration_seconds", 0.0))
            for s in self.spans
            if s.get("parent_id") is None
        )

    @property
    def total_tokens(self) -> int:
        counters = self.metrics.get("counters", {})
        return int(
            counters.get("llm.tokens_prompt", 0)
            + counters.get("llm.tokens_completion", 0)
        )

    def phase_summary(self) -> dict[str, dict[str, float]]:
        """Per-span-name ``{count, seconds, tokens}`` aggregates."""
        return aggregate_spans(self.spans)

    # -- (de)serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "created_at": self.created_at,
            "dataset": self.dataset,
            "llm": self.llm,
            "config": self.config,
            "outcome": self.outcome,
            "metrics": self.metrics,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=payload["run_id"],
            kind=payload.get("kind", ""),
            created_at=payload.get("created_at", ""),
            dataset=payload.get("dataset", ""),
            llm=payload.get("llm", ""),
            config=payload.get("config", {}),
            outcome=payload.get("outcome", {}),
            metrics=payload.get("metrics", {}),
            spans=payload.get("spans", []),
        )


# One lock per ledger *path*, not per RunLedger instance: every session
# constructs its own RunLedger, so instance locks would not serialize
# concurrent appenders targeting the same file.
_PATH_LOCKS: dict[str, threading.Lock] = {}
_PATH_LOCKS_GUARD = threading.Lock()


def _lock_for(path: Path) -> threading.Lock:
    key = str(path)
    with _PATH_LOCKS_GUARD:
        lock = _PATH_LOCKS.get(key)
        if lock is None:
            lock = _PATH_LOCKS[key] = threading.Lock()
        return lock


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` entries.

    Appends are concurrency-safe: the record is serialized to one string
    first, then written in a single ``write()`` call under a per-path
    lock, so parallel runs (the experiment scheduler's workers) cannot
    interleave partial lines.  Reads skip — and count, in
    ``skipped_lines`` — malformed lines rather than raising, so one
    corrupt line (e.g. from a killed process) cannot take down
    ``--resume`` or ``runs list``.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()
        # Accept a directory (existing or not): store ledger.jsonl inside.
        if self.path.suffix not in (".jsonl", ".json"):
            self.path = self.path / "ledger.jsonl"
        self.skipped_lines = 0

    def append(self, record: RunRecord) -> str:
        line = json.dumps(record.to_dict(), default=str) + "\n"
        with _lock_for(self.path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
        return record.run_id

    def iter_records(self) -> Iterator[RunRecord]:
        """Yield records in append order, skipping malformed lines."""
        self.skipped_lines = 0
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    record = RunRecord.from_dict(payload)
                except (ValueError, KeyError, TypeError):
                    self.skipped_lines += 1
                    continue
                yield record

    def records(self) -> list[RunRecord]:
        return list(self.iter_records())

    def get(self, run_id: str) -> RunRecord:
        """Load one record by exact id or unique prefix."""
        matches = [
            r for r in self.records() if r.run_id.startswith(run_id)
        ]
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.path}")
        exact = [r for r in matches if r.run_id == run_id]
        if exact:
            return exact[-1]
        if len({r.run_id for r in matches}) > 1:
            raise KeyError(
                f"run prefix {run_id!r} is ambiguous: "
                f"{sorted({r.run_id for r in matches})}"
            )
        return matches[-1]

    def diff(self, run_a: str, run_b: str) -> "RunDiff":
        return RunDiff(self.get(run_a), self.get(run_b))


@dataclass
class RunDiff:
    """Per-phase wall-time and token deltas between two recorded runs."""

    a: RunRecord
    b: RunRecord

    def phase_rows(self) -> list[dict[str, Any]]:
        phases_a = self.a.phase_summary()
        phases_b = self.b.phase_summary()
        rows = []
        for name in sorted(set(phases_a) | set(phases_b)):
            pa = phases_a.get(name, {"count": 0, "seconds": 0.0, "tokens": 0})
            pb = phases_b.get(name, {"count": 0, "seconds": 0.0, "tokens": 0})
            rows.append({
                "phase": name,
                "seconds_a": pa["seconds"], "seconds_b": pb["seconds"],
                "delta_seconds": pb["seconds"] - pa["seconds"],
                "tokens_a": pa["tokens"], "tokens_b": pb["tokens"],
                "delta_tokens": pb["tokens"] - pa["tokens"],
            })
        return rows

    def counter_rows(self) -> list[dict[str, Any]]:
        counters_a = self.a.metrics.get("counters", {})
        counters_b = self.b.metrics.get("counters", {})
        rows = []
        for key in sorted(set(counters_a) | set(counters_b)):
            va, vb = counters_a.get(key, 0), counters_b.get(key, 0)
            if va != vb:
                rows.append({"counter": key, "a": va, "b": vb, "delta": vb - va})
        return rows

    def render(self) -> str:
        header = (
            f"run A: {self.a.run_id}  ({self.a.kind} {self.a.dataset} "
            f"{self.a.llm}, {self.a.created_at})\n"
            f"run B: {self.b.run_id}  ({self.b.kind} {self.b.dataset} "
            f"{self.b.llm}, {self.b.created_at})"
        )
        phase_table = format_table(
            ["phase", "A [s]", "B [s]", "Δ [s]", "A tok", "B tok", "Δ tok"],
            [
                [r["phase"], f"{r['seconds_a']:.3f}", f"{r['seconds_b']:.3f}",
                 f"{r['delta_seconds']:+.3f}", r["tokens_a"], r["tokens_b"],
                 f"{r['delta_tokens']:+d}"]
                for r in self.phase_rows()
            ],
            title="per-phase wall time and tokens",
        )
        counter_rows = self.counter_rows()
        parts = [header, "", phase_table]
        if counter_rows:
            parts += ["", format_table(
                ["counter", "A", "B", "Δ"],
                [[r["counter"], r["a"], r["b"], f"{r['delta']:+g}"]
                 for r in counter_rows],
                title="changed counters",
            )]
        return "\n".join(parts)


# -- rendering ---------------------------------------------------------------------


def render_record(record: RunRecord) -> str:
    """Human-readable view: header, span tree, metrics summary."""
    lines = [
        f"run {record.run_id}  kind={record.kind}  dataset={record.dataset}  "
        f"llm={record.llm}  at={record.created_at}",
        f"wall: {record.wall_seconds:.3f}s  tokens: {record.total_tokens}  "
        f"outcome: {json.dumps(record.outcome, default=str)}",
    ]
    if record.config:
        lines.append(f"config: {json.dumps(record.config, default=str)}")
    if record.spans:
        lines += ["", "span tree:", render_span_tree(record.spans)]
    counters = record.metrics.get("counters", {})
    if counters:
        lines += ["", format_table(
            ["counter", "value"],
            [[k, f"{v:g}"] for k, v in sorted(counters.items())],
            title="counters",
        )]
    return "\n".join(lines)


def render_records_table(records: list[RunRecord]) -> str:
    if not records:
        return "(no recorded runs)"
    return format_table(
        ["run id", "kind", "dataset", "llm", "created", "wall[s]",
         "tokens", "success"],
        [
            [r.run_id, r.kind, r.dataset, r.llm, r.created_at,
             f"{r.wall_seconds:.3f}", r.total_tokens,
             r.outcome.get("success", "")]
            for r in records
        ],
        title=f"{len(records)} recorded run(s)",
    )


def render_diff(diff: RunDiff) -> str:
    return diff.render()
