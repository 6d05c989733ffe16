"""Tests for the observability subsystem: tracer, metrics, ledger, sessions.

Covers span nesting (including worker threads attached to a parent),
metrics counter atomicity, ledger round-trips (write -> list -> show ->
diff), the no-op tracer's overhead bound, and the traced CLI path end to
end.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.catalog.profiler import profile_table
from repro.cli import main
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    default_ledger_path,
    render_diff,
    render_record,
    render_records_table,
)
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    get_metrics,
    metric_key,
    set_metrics,
)
from repro.obs.session import (
    active_session,
    disable_tracing,
    enable_tracing,
    run_session,
    tracing_enabled,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    aggregate_spans,
    get_tracer,
    render_span_tree,
    set_tracer,
    traced,
)
from repro.table.table import Table


@pytest.fixture
def tracer():
    """Install a live tracer for the test, restoring the previous one."""
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


@pytest.fixture
def registry():
    r = MetricsRegistry()
    previous = set_metrics(r)
    yield r
    set_metrics(previous)


class TestSpans:
    def test_nesting_builds_parent_links(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_attributes_at_open_and_late(self, tracer):
        with tracer.span("s", rows=10) as s:
            s.set(cols=3)
        assert s.attributes == {"rows": 10, "cols": 3}

    def test_durations_recorded(self, tracer):
        with tracer.span("s"):
            time.sleep(0.01)
        assert tracer.spans[0].duration_seconds >= 0.01

    def test_exception_marks_error_and_type(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad")
        span = tracer.spans[0]
        assert span.status == "error"
        assert span.attributes["error_type"] == "ValueError"

    def test_sibling_spans_share_parent(self, tracer):
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].parent_id == parent.span_id
        assert by_name["b"].parent_id == parent.span_id

    def test_null_tracer_is_free_of_state(self):
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y")
        assert NULL_TRACER.to_dicts() == []
        assert not NULL_TRACER.enabled

    def test_traced_decorator_only_wraps_when_enabled(self, tracer):
        calls = []

        @traced("fn.call", lambda x: {"x": x})
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(3) == 6
        assert tracer.spans[0].name == "fn.call"
        assert tracer.spans[0].attributes == {"x": 3}

        set_tracer(NULL_TRACER)
        assert fn(4) == 8  # no new span, no attrs_fn evaluation errors
        assert len(tracer.spans) == 1

    def test_profile_table_column_spans_parent_correctly(self, tracer):
        """Every per-column span is a child of the one profile.columns
        span."""
        n = 200
        data = {f"c{i}": list(range(n)) for i in range(6)}
        data["label"] = ["a", "b"] * (n // 2)
        table = Table.from_dict(data, name="columns")
        profile_table(table, target="label", task_type="binary")

        by_name: dict[str, list] = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (columns_span,) = by_name["profile.columns"]
        column_spans = by_name["profile.column"]
        assert len(column_spans) == len(data)
        assert all(
            s.parent_id == columns_span.span_id for s in column_spans
        )


class TestThreadedSpans:
    def test_attach_roots_worker_spans_under_parent(self, tracer):
        with tracer.span("submit") as parent:
            captured = tracer.current()

            def work(i):
                with tracer.attach(captured):
                    with tracer.span("item", i=i):
                        pass

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        items = [s for s in tracer.spans if s.name == "item"]
        assert len(items) == 4
        assert all(s.parent_id == parent.span_id for s in items)


class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
        assert metric_key("m", {}) == "m"

    def test_counters_and_gauges(self, registry):
        registry.inc("hits")
        registry.inc("hits", 2)
        registry.gauge("depth", 7)
        snap = registry.snapshot()
        assert snap == {"counters": {"hits": 3}, "gauges": {"depth": 7}}

    def test_counter_atomicity_under_threads(self, registry):
        n_threads, n_incs = 8, 1000

        def bump():
            for _ in range(n_incs):
                registry.inc("atomic", type="x")

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert registry.counter_value("atomic", type="x") == n_threads * n_incs

    def test_null_metrics_records_nothing(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.gauge("y", 1)
        snap = NULL_METRICS.snapshot()
        assert snap == {"counters": {}, "gauges": {}}


class TestLedger:
    def _record(self, run_id, seconds=1.0, tokens=100, **outcome):
        return RunRecord(
            run_id=run_id,
            kind="catdb",
            created_at="2026-01-01T00:00:00Z",
            dataset="wifi",
            llm="gpt-4o",
            config={"beta": 1},
            outcome=outcome,
            metrics={"counters": {
                "llm.tokens_prompt": tokens, "llm.tokens_completion": 0,
            }},
            spans=[
                {"name": "run.catdb", "span_id": 1, "parent_id": None,
                 "attributes": {}, "duration_seconds": seconds,
                 "status": "ok"},
                {"name": "llm.call", "span_id": 2, "parent_id": 1,
                 "attributes": {"prompt_tokens": tokens,
                                "completion_tokens": 0},
                 "duration_seconds": seconds / 2, "status": "ok"},
            ],
        )

    def test_round_trip_write_list_show_diff(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self._record("aaaa111111", seconds=1.0, tokens=100))
        ledger.append(self._record("bbbb222222", seconds=2.0, tokens=150))

        records = ledger.records()
        assert [r.run_id for r in records] == ["aaaa111111", "bbbb222222"]
        assert records[0].wall_seconds == 1.0
        assert records[0].total_tokens == 100

        listing = render_records_table(records)
        assert "aaaa111111" in listing and "bbbb222222" in listing

        shown = render_record(ledger.get("aaaa"))  # unique prefix
        assert "run aaaa111111" in shown
        assert "llm.call" in shown

        diff = ledger.diff("aaaa", "bbbb")
        rows = {r["phase"]: r for r in diff.phase_rows()}
        assert rows["run.catdb"]["delta_seconds"] == pytest.approx(1.0)
        assert rows["llm.call"]["delta_tokens"] == 50
        rendered = render_diff(diff)
        assert "per-phase wall time and tokens" in rendered
        assert "+50" in rendered

    def test_records_with_histograms_still_load(self, tmp_path):
        # records written while the registry had histograms keep the key
        ledger = RunLedger(tmp_path)
        for run_id, tokens in (("aaaa111111", 100), ("bbbb222222", 150)):
            record = self._record(run_id, tokens=tokens)
            record.metrics["histograms"] = {
                "latency": {"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0,
                            "mean": 1.0},
            }
            ledger.append(record)
        assert "run aaaa111111" in render_record(ledger.get("aaaa"))
        assert "+50" in render_diff(ledger.diff("aaaa", "bbbb"))

    def test_get_unknown_and_ambiguous(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self._record("abc1111111"))
        ledger.append(self._record("abc2222222"))
        with pytest.raises(KeyError):
            ledger.get("zzz")
        with pytest.raises(KeyError):
            ledger.get("abc")  # ambiguous prefix
        assert ledger.get("abc1").run_id == "abc1111111"

    def test_dir_and_file_paths_agree(self, tmp_path):
        assert RunLedger(tmp_path).path == tmp_path / "ledger.jsonl"
        explicit = RunLedger(tmp_path / "other.jsonl")
        assert explicit.path == tmp_path / "other.jsonl"

    def test_default_path_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "obs"))
        assert default_ledger_path() == tmp_path / "obs" / "ledger.jsonl"

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self._record("aaaa111111"))
        lines = ledger.path.read_text().strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["run_id"] == "aaaa111111"


class TestRunSession:
    def test_disabled_by_default_yields_none(self):
        assert not tracing_enabled()
        with run_session("catdb", dataset="wifi") as session:
            assert session is None

    def test_enabled_records_to_ledger(self, tmp_path):
        enable_tracing(tmp_path)
        try:
            with run_session("catdb", dataset="wifi", llm="gpt-4o",
                             config={"beta": 1}) as session:
                assert session is active_session()
                with get_tracer().span("llm.call", prompt_tokens=10):
                    pass
                get_metrics().inc("llm.calls")
                session.outcome["success"] = True
        finally:
            disable_tracing()
        assert isinstance(get_tracer(), NullTracer)
        assert isinstance(get_metrics(), NullMetrics)
        record = session.record
        assert record is not None
        assert record.outcome["success"] is True
        assert record.metrics["counters"]["llm.calls"] == 1
        names = {s["name"] for s in record.spans}
        assert names == {"run.catdb", "llm.call"}
        assert RunLedger(tmp_path).get(record.run_id).dataset == "wifi"

    def test_nested_sessions_share_one_record(self, tmp_path):
        enable_tracing(tmp_path)
        try:
            with run_session("generate", dataset="wifi") as outer:
                with run_session("catdb", dataset="wifi") as inner:
                    assert inner is outer
        finally:
            disable_tracing()
        assert len(RunLedger(tmp_path).records()) == 1

    def test_env_variable_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert tracing_enabled()
        with run_session("catdb", dataset="wifi") as session:
            assert session is not None
        assert len(RunLedger(tmp_path).records()) == 1

    def test_concurrent_sessions_emit_disjoint_records(self, tmp_path):
        """Two threads, two sessions, two disjoint span trees.

        Session/tracer/metrics tracking is contextvars-based; with the
        old module-global tracking, the second thread would nest into
        the first session and the ledger would get one conflated record.
        """
        enable_tracing(tmp_path)
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def observed_run(name: str) -> None:
            try:
                with run_session("catdb", dataset=name) as session:
                    barrier.wait(timeout=10)  # both sessions open at once
                    assert active_session() is session
                    with get_tracer().span(f"work.{name}"):
                        get_metrics().inc("llm.calls")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=observed_run, args=(name,))
                   for name in ("alpha", "beta")]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            disable_tracing()
        assert not errors
        records = RunLedger(tmp_path).records()
        assert sorted(r.dataset for r in records) == ["alpha", "beta"]
        by_dataset = {r.dataset: r for r in records}
        for name in ("alpha", "beta"):
            record = by_dataset[name]
            assert {s["name"] for s in record.spans} == {
                "run.catdb", f"work.{name}"
            }
            assert record.metrics["counters"]["llm.calls"] == 1
            roots = [s for s in record.spans if s["parent_id"] is None]
            assert len(roots) == 1  # its own tree, not a shared one
        # disjoint trees: neither session saw the other's work span
        assert not any(s["name"] == "work.beta"
                       for s in by_dataset["alpha"].spans)
        assert not any(s["name"] == "work.alpha"
                       for s in by_dataset["beta"].spans)


class TestOverhead:
    def test_null_tracer_overhead_under_5_percent(
        self, small_classification_table
    ):
        """The disabled tracer's per-span cost, scaled to the span count a
        traced profile_table produces, must stay below 5% of the profiling
        call itself (deterministic proxy for enabled-vs-disabled timing)."""
        table = small_classification_table
        # Count the spans a traced run emits.
        probe = Tracer()
        previous = set_tracer(probe)
        try:
            profile_table(table, target="label", task_type="binary")
        finally:
            set_tracer(previous)
        n_spans = len(probe.spans)
        assert n_spans > 0

        baseline = min(
            _timed(lambda: profile_table(
                table, target="label", task_type="binary"
            ))
            for _ in range(3)
        )
        null_cost = min(
            _timed(lambda: _null_spans(n_spans)) for _ in range(3)
        )
        assert null_cost < 0.05 * baseline, (
            f"{n_spans} null spans cost {null_cost:.6f}s vs "
            f"profile baseline {baseline:.6f}s"
        )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _null_spans(n):
    tracer = NULL_TRACER
    for i in range(n):
        with tracer.span("x", i=i) as s:
            s.set(done=True)


class TestCLI:
    def test_generate_trace_writes_acceptance_record(self, tmp_path, capsys):
        """Acceptance: a traced generate run persists profile, prompt,
        llm-call, validate, and execute spans with token attributes."""
        rc = main([
            "generate", "wifi", "--rows", "120",
            "--trace", "--runs-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace: run" in out

        records = RunLedger(tmp_path).records()
        assert len(records) == 1
        names = {s["name"] for s in records[0].spans}
        assert {"run.generate", "profile.table", "prompt.build",
                "llm.call", "generate.validate",
                "execute.pipeline"} <= names
        llm_spans = [s for s in records[0].spans if s["name"] == "llm.call"]
        assert llm_spans[0]["attributes"]["prompt_tokens"] > 0
        execs = [
            s for s in records[0].spans if s["name"] == "execute.pipeline"
        ]
        assert all("success" in s["attributes"] for s in execs)
        assert records[0].total_tokens > 0

    def test_runs_list_show_diff(self, tmp_path, capsys):
        for seed in ("0", "3"):
            assert main([
                "generate", "wifi", "--rows", "120", "--seed", seed,
                "--trace", "--runs-dir", str(tmp_path),
            ]) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "2 recorded run(s)" in listing

        records = RunLedger(tmp_path).records()
        a, b = records[0].run_id, records[1].run_id
        assert main(["runs", "show", a, "--dir", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        assert f"run {a}" in shown and "span tree" in shown

        assert main(["runs", "diff", a, b, "--dir", str(tmp_path)]) == 0
        diffed = capsys.readouterr().out
        assert "per-phase wall time and tokens" in diffed
        assert "llm.call" in diffed

    def test_runs_show_unknown_id_fails(self, tmp_path, capsys):
        assert main(["runs", "show", "nope", "--dir", str(tmp_path)]) == 1
        assert "no run" in capsys.readouterr().err

    def test_untraced_generate_leaves_no_ledger(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["generate", "wifi", "--rows", "120"]) == 0
        assert not (tmp_path / "ledger.jsonl").exists()


class TestRendering:
    def test_aggregate_spans_counts_and_tokens(self):
        spans = [
            {"name": "llm.call", "span_id": 1, "parent_id": None,
             "duration_seconds": 0.5,
             "attributes": {"prompt_tokens": 40, "completion_tokens": 10}},
            {"name": "llm.call", "span_id": 2, "parent_id": None,
             "duration_seconds": 0.25, "attributes": {"prompt_tokens": 50}},
        ]
        agg = aggregate_spans(spans)
        assert agg["llm.call"]["count"] == 2
        assert agg["llm.call"]["seconds"] == pytest.approx(0.75)
        assert agg["llm.call"]["tokens"] == 100

    def test_render_span_tree_collapses_siblings(self):
        spans = [{"name": "root", "span_id": 0, "parent_id": None,
                  "duration_seconds": 1.0, "attributes": {}}]
        spans += [
            {"name": "profile.column", "span_id": i, "parent_id": 0,
             "duration_seconds": 0.01, "attributes": {}}
            for i in range(1, 7)
        ]
        tree = render_span_tree(spans)
        assert "profile.column x6" in tree
        assert tree.count("profile.column") == 1
