"""The bench job's gate loop (``benchmarks/make_bench_report.py``).

Each :data:`GATES` row is fed synthetic pytest-benchmark JSON at its
bound, just past it, and with its benchmark absent.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.make_bench_report import GATES, main

# the divisor benchmark's mean: a power of two keeps ratios exact
_DIVISOR_MEAN_S = 2.0 ** -7


def _benchmarks(overrides: dict[str, float | None]) -> list[dict]:
    """Every gated benchmark, all gates passing by a wide margin,
    with ``overrides`` setting a mean (``None`` leaves it out)."""
    means: dict[str, float] = {}
    for bench, divisor, limit, bound in GATES.values():
        if divisor is None:
            means[bench] = bound / 1000 / 2
        else:
            means[divisor] = _DIVISOR_MEAN_S
            factor = bound / 2 if limit == "max" else bound * 2
            means[bench] = _DIVISOR_MEAN_S * factor
    means.update(overrides)
    return [
        {"name": name, "stats": {"mean": mean, "min": mean, "max": mean,
                                 "stddev": 0.0, "rounds": 5}}
        for name, mean in means.items() if mean is not None
    ]


def _run(tmp_path, overrides: dict[str, float | None]) -> tuple[int, dict]:
    raw = tmp_path / "bench-raw.json"
    raw.write_text(json.dumps({"benchmarks": _benchmarks(overrides)}))
    out = tmp_path / "report.json"
    code = main([str(raw), "--out", str(out)])
    return code, json.loads(out.read_text())["gates"]


def _mean_at(name: str, scale: float) -> dict[str, float]:
    """The gated benchmark's mean putting the gate at ``bound * scale``."""
    bench, divisor, _, bound = GATES[name]
    if divisor is None:
        return {bench: bound * scale / 1000}
    return {bench: _DIVISOR_MEAN_S * bound * scale}


def test_all_gates_pass(tmp_path):
    code, gates = _run(tmp_path, {})
    assert code == 0
    assert set(gates) == set(GATES)
    assert all(gate["passed"] for gate in gates.values())


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_passes_at_its_bound(tmp_path, name):
    code, gates = _run(tmp_path, _mean_at(name, 1.0))
    assert code == 0
    assert gates[name]["passed"]
    assert gates[name]["value"] == pytest.approx(GATES[name][3])


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_fails_just_past_its_bound(tmp_path, name):
    limit = GATES[name][2]
    code, gates = _run(tmp_path, _mean_at(name, 1.01 if limit == "max" else 0.99))
    assert code == 1
    assert not gates[name]["passed"]
    assert [n for n, gate in gates.items() if not gate["passed"]] == [name]


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_fails_when_its_benchmark_is_absent(tmp_path, name):
    bench = GATES[name][0]
    code, gates = _run(tmp_path, {bench: None})
    assert code == 1
    assert gates[name] == {"passed": False, "missing": [bench]}

