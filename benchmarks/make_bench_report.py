"""Collate pytest-benchmark JSON output into the CI bench artifact.

Usage::

    python benchmarks/make_bench_report.py --out BENCH_10.json bench.json ...

Reads one or more ``--benchmark-json`` files, groups the entries into
the perf-trajectory sections (``table``, ``profile``, ``runner``,
``streaming``, ``execpool``, ``other``), and writes one consolidated
report.

This is also the bench job's gate.  Each row of :data:`GATES` bounds one
benchmark's mean, or the ratio of two benchmarks' means, and one loop
checks them all:

- warm pool-mode execution of the clean generated pipeline
  (``test_execpool_pool_clean_warm``) costs at most 2x the in-process
  run (``test_execpool_inproc_clean``);
- the flow-sensitive static-analysis pass with schema grounding
  (``test_micro_static_analysis_flow_catalog``) averages at most 15 ms
  per pipeline;
- the dictionary-encoded data plane beats the seed per-row
  implementation (``bench_table_ops.py``) at least 3x on CSV ingest +
  profile and at least 5x on the 100k-row join.

The verdicts go under the report's ``gates`` key.  The script exits
non-zero when a bound is broken *or* when a gated benchmark is missing
— a gate that cannot measure is a failure, not a pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

# name -> (benchmark, divisor benchmark or None, "max" | "min", bound).
# With a divisor the gated value is the ratio of the two means (x);
# without, the benchmark's mean in milliseconds.
GATES: dict[str, tuple[str, str | None, str, float]] = {
    "pool_overhead": (
        "test_execpool_pool_clean_warm", "test_execpool_inproc_clean",
        "max", 2.0,
    ),
    "analyzer_ms": ("test_micro_static_analysis_flow_catalog", None, "max", 15.0),
    "ingest_speedup": (
        "test_table_ingest_profile_seed", "test_table_ingest_profile_encoded",
        "min", 3.0,
    ),
    "join_speedup": (
        "test_table_join_100k_seed", "test_table_join_100k_encoded",
        "min", 5.0,
    ),
}

_SECTION_RULES = (
    ("table", ("test_table_",)),
    ("analysis", ("static_analysis",)),
    ("execpool", ("execpool",)),
    ("streaming", ("streaming",)),
    ("runner", ("runner",)),
    ("profile", ("profiling",)),
)


def _section_for(name: str) -> str:
    for section, needles in _SECTION_RULES:
        if any(needle in name for needle in needles):
            return section
    return "other"


def _entry(bench: dict[str, Any]) -> dict[str, Any]:
    stats = bench["stats"]
    return {
        "name": bench["name"],
        "mean_s": stats["mean"],
        "min_s": stats["min"],
        "max_s": stats["max"],
        "stddev_s": stats["stddev"],
        "rounds": stats["rounds"],
    }


def build_report(paths: list[str]) -> dict[str, Any]:
    sections: dict[str, list[dict[str, Any]]] = {}
    machine: dict[str, Any] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        machine = machine or data.get("machine_info", {})
        for bench in data.get("benchmarks", []):
            sections.setdefault(_section_for(bench["name"]), []).append(
                _entry(bench)
            )
    for entries in sections.values():
        entries.sort(key=lambda e: e["name"])
    return {
        "schema": "bench-report/v1",
        "machine": {
            key: machine.get(key)
            for key in ("node", "processor", "python_version", "cpu")
            if key in machine
        },
        "sections": sections,
    }


def check_gates(report: dict[str, Any]) -> tuple[bool, list[str]]:
    """Check every :data:`GATES` row; record the verdicts under ``gates``."""
    means = {
        entry["name"]: entry["mean_s"]
        for entries in report["sections"].values()
        for entry in entries
    }
    results: dict[str, dict[str, Any]] = {}
    verdicts = []
    for name, (bench, divisor, limit, bound) in GATES.items():
        missing = [b for b in (bench, divisor) if b is not None and b not in means]
        if missing:
            results[name] = {"passed": False, "missing": missing}
            verdicts.append(f"{name} unmeasurable (missing {', '.join(missing)})")
            continue
        if divisor is None:
            value, unit = means[bench] * 1000, " ms"
        else:
            value, unit = means[bench] / max(means[divisor], 1e-12), "x"
        passed = value <= bound if limit == "max" else value >= bound
        results[name] = {"value": value, limit: bound, "passed": passed}
        verdicts.append(
            f"{name} {value:.2f}{unit} ({limit} {bound:g}{unit})"
            + ("" if passed else " FAILED")
        )
    report["gates"] = results
    return all(result["passed"] for result in results.values()), verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+",
                        help="pytest-benchmark JSON files")
    parser.add_argument("--out", default="BENCH_10.json",
                        help="consolidated report path")
    args = parser.parse_args(argv)

    report = build_report(args.inputs)
    ok, verdicts = check_gates(report)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    total = sum(len(v) for v in report["sections"].values())
    for section in sorted(report["sections"]):
        print(f"  {section}: {len(report['sections'][section])} benchmarks")
    print(f"{args.out}: {total} benchmarks, {'; '.join(verdicts)}")
    if not ok:
        print("bench gate FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
