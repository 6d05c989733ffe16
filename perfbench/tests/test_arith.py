"""Tests of the benchmark's own arithmetic (``perfbench/arith.py``, the
gauge scale in ``perfbench/gauge.py`` and the end-to-end aggregation in
``perfbench/run.py``).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from arith import (  # noqa: E402
    SpanRecord,
    busy_share,
    compare_to_reference,
    digest,
    fail_share,
    interquartile_mean,
    layer_self_times,
    self_times,
)
from gauge import REFERENCE_S, Gauge  # noqa: E402
from run import _end_to_end  # noqa: E402


def _tree() -> list[SpanRecord]:
    """pass [0, 10]
         op A [1, 6]            (generation)
           analyze [1, 2]       (analysis)
           execute [2, 5]       (execute)
             fit [2.5, 4.5]     (ml)
         op B [6, 9]            (generation)
           llm [6, 7]           (llm)
           llm [7.5, 8]         (llm)
    """
    return [
        SpanRecord(1, None, "bench", "pass", 0.0, 10.0),
        SpanRecord(2, 1, "generation", "op", 1.0, 6.0),
        SpanRecord(3, 2, "analysis", "analyze", 1.0, 2.0),
        SpanRecord(4, 2, "execute", "execute", 2.0, 5.0),
        SpanRecord(5, 4, "ml", "fit", 2.5, 4.5),
        SpanRecord(6, 1, "generation", "op", 6.0, 9.0),
        SpanRecord(7, 6, "llm", "llm", 6.0, 7.0),
        SpanRecord(8, 6, "llm", "llm", 7.5, 8.0),
    ]


def test_self_time_subtracts_nested_and_sibling_children():
    own = self_times(_tree())
    assert own[1] == pytest.approx(10.0 - 5.0 - 3.0)
    assert own[2] == pytest.approx(5.0 - 1.0 - 3.0)
    assert own[4] == pytest.approx(3.0 - 2.0)
    assert own[5] == pytest.approx(2.0)
    assert own[6] == pytest.approx(3.0 - 1.0 - 0.5)


def test_layer_self_times_add_up_to_the_root_wall():
    by_layer = layer_self_times(_tree())
    assert by_layer == pytest.approx({
        "bench": 2.0, "generation": 1.0 + 1.5, "analysis": 1.0,
        "execute": 1.0, "ml": 2.0, "llm": 1.5,
    })
    assert sum(by_layer.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_against_the_parent():
    # two grid cells on different threads overlap in [2, 3]
    spans = [
        SpanRecord(1, None, "runner", "run_grid", 0.0, 5.0),
        SpanRecord(2, 1, "runner", "cell", 1.0, 3.0),
        SpanRecord(3, 1, "runner", "cell", 2.0, 4.0),
    ]
    assert self_times(spans)[1] == pytest.approx(5.0 - 3.0)


def test_child_sticking_out_of_its_parent_is_clipped():
    spans = [
        SpanRecord(1, None, "bench", "pass", 0.0, 2.0),
        SpanRecord(2, 1, "llm", "llm", 1.5, 3.0),
    ]
    assert self_times(spans)[1] == pytest.approx(1.5)


def _op(key: str, seconds: float, **outcome: object) -> SimpleNamespace:
    return SimpleNamespace(key=key, seconds=seconds, outcome=outcome, extra={}, error="")


_REFERENCE = {"a": {"primary": 0.5, "tokens": 10}, "b": {"primary": 0.7, "tokens": 30}}


def test_end_to_end_takes_medians_over_passes_of_each_pass_figure():
    passes = [
        (4.0, [_op("a", 1.0, primary=0.5, tokens=10), _op("b", 3.0, primary=0.7, tokens=30)], 1.0),
        (6.0, [_op("b", 5.0, primary=0.7, tokens=30), _op("a", 2.0, primary=0.5, tokens=10)], 1.0),
        (9.0, [_op("a", 1.5, primary=0.5, tokens=10), _op("b", 8.0, primary=0.7, tokens=30)], 1.0),
    ]
    values = _end_to_end(passes, 0.5, 80.0, _REFERENCE, trains_models=True)
    assert values["wall_s"] == 6.0
    assert values["op_max_s"] == 5.0  # slowest op of each pass: 3, 5, 8
    assert values["op_mid_s"] == pytest.approx((1.5 + 5.0) / 2)  # per-op medians
    assert values["tokens"] == 40
    assert values["score_mean"] == pytest.approx(0.6)
    assert values["ok_share"] == 1.0
    assert (values["setup_s"], values["peak_rss_mb"]) == (0.5, 80.0)
    assert _end_to_end(passes, 0.5, 80.0, _REFERENCE, trains_models=False)["score_mean"] == 1.0


def test_end_to_end_scales_each_pass_by_its_gauge_factor():
    # the same work timed at reference, half and double speed
    passes = [
        (4.0, [_op("a", 1.0, primary=0.5, tokens=10), _op("b", 3.0, primary=0.7, tokens=30)], 1.0),
        (8.0, [_op("a", 2.0, primary=0.5, tokens=10), _op("b", 6.0, primary=0.7, tokens=30)], 0.5),
        (2.0, [_op("a", 0.5, primary=0.5, tokens=10), _op("b", 1.5, primary=0.7, tokens=30)], 2.0),
    ]
    values = _end_to_end(passes, 0.5, 80.0, _REFERENCE, trains_models=True)
    assert (values["wall_s"], values["op_max_s"]) == (4.0, 3.0)
    assert values["op_mid_s"] == pytest.approx((1.0 + 3.0) / 2)
    assert values["tokens"] == 40


def test_gauge_scale_takes_readings_to_reference_speed():
    assert Gauge.scale(REFERENCE_S) == 1.0
    assert Gauge.scale(0.5 * REFERENCE_S, 1.5 * REFERENCE_S) == pytest.approx(1.0)
    assert Gauge.scale(2.0 * REFERENCE_S) == pytest.approx(0.5)
    assert Gauge(repeats=3).read() > 0.0


def test_end_to_end_counts_a_mismatch_against_every_op_attempted():
    passes = [
        (1.0, [_op("a", 1.0, primary=0.5, tokens=10), _op("b", 1.0, primary=0.7, tokens=31)], 1.0),
        (1.0, [_op("a", 1.0, primary=0.5, tokens=10), _op("b", 1.0, primary=0.7, tokens=30)], 1.0),
    ]
    assert _end_to_end(passes, 0.5, 80.0, _REFERENCE, True)["ok_share"] == 0.75


def test_interquartile_mean_drops_a_quarter_from_each_end():
    assert interquartile_mean([5.0, 1.0]) == 3.0
    assert interquartile_mean([100.0, 1.0, 2.0, 3.0, 0.0]) == 2.0
    eight = [0.1, 0.2, 0.6, 0.7, 0.9, 1.0, 4.0, 9.0]
    assert interquartile_mean(eight) == pytest.approx((0.6 + 0.7 + 0.9 + 1.0) / 4)
    with pytest.raises(ValueError):
        interquartile_mean([])


def test_fail_share_counts_every_attempted_op():
    assert fail_share(0, 12) == 0.0
    assert fail_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        fail_share(0, 0)
    with pytest.raises(ValueError):
        fail_share(5, 4)


def test_busy_share_is_cell_time_over_worker_capacity():
    assert busy_share([1.0, 2.0, 3.0], workers=2, makespan=4.0) == pytest.approx(0.75)
    assert busy_share([4.0, 4.0], workers=2, makespan=4.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        busy_share([1.0], workers=0, makespan=1.0)


def test_reference_mismatch_names_each_bad_field():
    expected = {"success": True, "tokens": 100, "primary": 0.75, "code_md5": "ab"}
    assert compare_to_reference(expected, dict(expected)) == []
    assert compare_to_reference(expected, {**expected, "primary": 0.75 + 1e-13}) == []
    actual = {"success": True, "tokens": 101, "primary": 0.7, "extra": 1}
    assert compare_to_reference(expected, actual) == ["tokens", "primary", "code_md5"]
    assert compare_to_reference({"primary": None}, {"primary": 0.5}) == ["primary"]


def test_digest_ignores_float_noise_beyond_nine_digits():
    assert digest({"x": 0.1 + 0.2}) == digest({"x": 0.3})
    assert digest({"x": 0.3}) != digest({"x": 0.3001})
    assert digest({"a": 1, "b": [1.0, "s"]}) == digest({"b": [1.0, "s"], "a": 1})
