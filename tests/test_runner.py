"""Tests for the parallel experiment scheduler (``repro.runner``).

Covers the JobGraph model (validation, insertion order), per-job seeded
RNG, worker-count determinism (the parallel == sequential property),
failure isolation + skip propagation under the resilience taxonomy,
ledger-backed resume, concurrent ledger appends, and the live progress
reporter.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.experiments.common import grid_rows, run_grid
from repro.obs.ledger import RunLedger, RunRecord
from repro.resilience.errors import ResilienceGiveUp, TransientError
from repro.runner import (
    GridProgress,
    Job,
    JobGraph,
    JobResult,
    Scheduler,
    config_fingerprint,
    job_rng,
    resolve_experiment_workers,
)


def _grid(n_cells: int = 8, fail_ids: set[str] | None = None) -> JobGraph:
    """A synthetic prepare + fan-out grid whose cells draw from job_rng."""
    fail_ids = fail_ids or set()
    graph = JobGraph()
    graph.add("prepare", lambda: 10.0, seed=0)
    for i in range(n_cells):

        def cell(base, i=i):
            if f"cell:{i}" in fail_ids:
                raise ValueError(f"boom {i}")
            return base + i + float(job_rng().random())

        graph.add(f"cell:{i}", cell, deps=("prepare",),
                  config={"index": i}, seed=0)
    return graph


class TestJobGraph:
    def test_duplicate_id_rejected(self):
        graph = JobGraph()
        graph.add("a", lambda: 1)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add("a", lambda: 2)

    def test_unknown_dep_rejected(self):
        graph = JobGraph()
        with pytest.raises(ValueError, match="unknown job"):
            graph.add("b", lambda: 1, deps=("missing",))

    def test_cycle_detected_by_validate(self):
        graph = JobGraph()
        graph.add("a", lambda: 1)
        graph.add("b", lambda: 2, deps=("a",))
        # add() forbids forward references, so a cycle needs surgery
        graph.jobs["a"].deps = ("b",)
        with pytest.raises(ValueError, match="cycle"):
            graph.validate()

    def test_cells_in_insertion_order(self):
        graph = _grid(5)
        assert [job.job_id for job in graph.cells()] == [
            f"cell:{i}" for i in range(5)
        ]

    def test_fingerprint_is_key_order_invariant_and_distinct(self):
        assert (config_fingerprint({"a": 1, "b": "x"})
                == config_fingerprint({"b": "x", "a": 1}))
        assert (config_fingerprint({"a": 1})
                != config_fingerprint({"a": 2}))

    def test_job_fingerprint_namespaced_by_grid(self):
        job = Job("j", lambda: 1, config={"a": 1})
        assert job.fingerprint("fig13") != job.fingerprint("table8")


class TestJobRng:
    def test_unavailable_outside_scheduled_job(self):
        with pytest.raises(RuntimeError, match="scheduled job"):
            job_rng()

    def test_stream_keyed_by_job_id_and_seed(self):
        a = Job("a", lambda: 1, seed=0).spawn_rng().random()
        a_again = Job("a", lambda: 1, seed=0).spawn_rng().random()
        b = Job("b", lambda: 1, seed=0).spawn_rng().random()
        a_seed1 = Job("a", lambda: 1, seed=1).spawn_rng().random()
        assert a == a_again
        assert a != b
        assert a != a_seed1


class TestScheduler:
    def test_dep_values_passed_in_declaration_order(self):
        graph = JobGraph()
        graph.add("x", lambda: "X")
        graph.add("y", lambda: "Y")
        graph.add("join", lambda x, y: x + y, deps=("x", "y"),
                  config={"cell": True})
        results = Scheduler(workers=2).run(graph)
        assert results["join"].value == "XY"

    def test_results_keyed_in_insertion_order(self):
        graph = _grid(6)
        results = Scheduler(workers=4).run(graph)
        assert list(results) == ["prepare"] + [f"cell:{i}" for i in range(6)]

    def test_parallel_equals_sequential(self):
        sequential = Scheduler(workers=1).run(_grid(12))
        parallel = Scheduler(workers=4).run(_grid(12))
        assert ({k: r.value for k, r in sequential.items()}
                == {k: r.value for k, r in parallel.items()})

    def test_failed_cell_is_isolated(self):
        graph = _grid(6, fail_ids={"cell:3"})
        results = Scheduler(workers=4).run(graph)
        assert results["cell:3"].status == "failed"
        assert results["cell:3"].error_type == "ValueError"
        assert "boom 3" in results["cell:3"].error
        others = [r for k, r in results.items() if k != "cell:3"]
        assert all(r.status == "ok" for r in others)

    def test_failure_classified_by_resilience_taxonomy(self):
        graph = JobGraph()

        def transient():
            raise TransientError("flaky")

        def gave_up():
            raise ResilienceGiveUp("retries exhausted")

        graph.add("t", transient, config={"cell": "t"})
        graph.add("g", gave_up, config={"cell": "g"})
        results = Scheduler(workers=2).run(graph)
        assert results["t"].error_type == "transient"
        assert results["g"].error_type == "give_up"

    def test_failed_setup_skips_dependents_not_grid(self):
        graph = JobGraph()
        graph.add("good", lambda: 1.0)

        def bad():
            raise RuntimeError("no dataset")

        graph.add("bad", bad)
        graph.add("on_bad", lambda b: b, deps=("bad",), config={"c": 1})
        graph.add("on_good", lambda g: g, deps=("good",), config={"c": 2})
        results = Scheduler(workers=2).run(graph)
        assert results["on_bad"].status == "skipped"
        assert results["on_bad"].error_type == "upstream_failed"
        assert "bad" in results["on_bad"].error
        assert results["on_good"].status == "ok"

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPERIMENT_WORKERS", raising=False)
        assert resolve_experiment_workers(None) == 1
        assert resolve_experiment_workers(3) == 3
        assert resolve_experiment_workers(0) >= 1
        monkeypatch.setenv("REPRO_EXPERIMENT_WORKERS", "5")
        assert resolve_experiment_workers(None) == 5
        monkeypatch.setenv("REPRO_EXPERIMENT_WORKERS", "nope")
        assert resolve_experiment_workers(None) == 1


class TestRunGrid:
    def test_rows_follow_definition_order_not_completion(self):
        # Slow early cells + fast late cells: completion order inverts
        # definition order at workers=4, rows must not.
        import time

        graph = JobGraph()
        graph.add("prepare", lambda: 0)
        for i in range(8):

            def cell(_base, i=i):
                time.sleep(0.05 if i < 2 else 0.0)
                return {"index": i}

            graph.add(f"cell:{i}", cell, deps=("prepare",),
                      config={"index": i})
        results = run_grid(graph, workers=4)
        rows = grid_rows(graph, results)
        assert [row["index"] for row in rows] == list(range(8))

    def test_grid_rows_flattens_lists_and_applies_fallback(self):
        graph = JobGraph()
        graph.add("multi", lambda: [{"r": 1}, {"r": 2}], config={"kind": "m"})

        def explode():
            raise ValueError("dead cell")

        graph.add("dead", explode, config={"kind": "d"})
        results = run_grid(graph, workers=2)
        rows = grid_rows(
            graph, results,
            fallback=lambda config, res: {"r": None, "kind": config["kind"]},
        )
        assert rows == [{"r": 1}, {"r": 2}, {"r": None, "kind": "d"}]
        assert grid_rows(graph, results) == [{"r": 1}, {"r": 2}]

    def test_driver_grid_parallel_equals_sequential(self):
        """The acceptance property on a real experiment driver."""
        from repro.experiments import fig13_tokens

        r1 = fig13_tokens.run(datasets=("wifi",), llms=("gemini-1.5",),
                              workers=1)
        r4 = fig13_tokens.run(datasets=("wifi",), llms=("gemini-1.5",),
                              workers=4)
        assert r1.rows == r4.rows
        assert r1.render() == r4.render()

    def test_bounded_inproc_grid_matches_unbounded_sequential(self):
        # grid cells run on scheduler threads, where SIGALRM cannot bound
        # them: bounded inproc cells execute in the pool and must still
        # reproduce the unbounded in-process grid
        from functools import partial

        from repro.execpool.pool import get_pool, shutdown_pool
        from repro.experiments.common import prepare_dataset, run_catdb

        def cell(llm, exec_timeout, prepared):
            report = run_catdb(prepared, llm_name=llm, exec_mode="inproc",
                               exec_timeout=exec_timeout)
            return (report.success, report.code, report.primary_metric)

        def grid(workers, exec_timeout):
            graph = JobGraph()
            graph.add("prepare", partial(prepare_dataset, "wifi", n=150))
            for llm in ("gpt-4o", "gemini-1.5"):
                graph.add(f"cell:{llm}", partial(cell, llm, exec_timeout),
                          deps=("prepare",), config={"llm": llm})
            return grid_rows(graph, run_grid(graph, workers=workers))

        try:
            sequential = grid(workers=1, exec_timeout=None)
            jobs = get_pool().stats["jobs"]
            bounded = grid(workers=2, exec_timeout=30)
            pooled_jobs = get_pool().stats["jobs"] - jobs
        finally:
            shutdown_pool()
        assert len(sequential) == 2
        assert all(success for success, _, _ in sequential)
        assert bounded == sequential
        assert pooled_jobs > 0


class TestResume:
    def _counting_grid(self, executed: list[str], n: int = 6,
                       fail_ids: set[str] | None = None) -> JobGraph:
        fail_ids = fail_ids or set()
        lock = threading.Lock()
        graph = JobGraph()
        graph.add("prepare", lambda: 1)
        for i in range(n):

            def cell(base, i=i):
                with lock:
                    executed.append(f"cell:{i}")
                if f"cell:{i}" in fail_ids:
                    raise ValueError("first-run failure")
                return base + i

            graph.add(f"cell:{i}", cell, deps=("prepare",),
                      config={"index": i}, seed=0)
        return graph

    def test_second_run_restores_every_cell(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        first_exec: list[str] = []
        first = Scheduler(workers=2, ledger_path=ledger).run(
            self._counting_grid(first_exec)
        )
        assert sorted(first_exec) == sorted(f"cell:{i}" for i in range(6))

        second_exec: list[str] = []
        second = Scheduler(workers=2, ledger_path=ledger, resume=True).run(
            self._counting_grid(second_exec)
        )
        assert second_exec == []  # every cell restored from the ledger
        for i in range(6):
            assert second[f"cell:{i}"].status == "cached"
            assert second[f"cell:{i}"].value == first[f"cell:{i}"].value

    def test_partial_resume_reexecutes_exactly_the_missing_cells(
        self, tmp_path
    ):
        ledger = tmp_path / "ledger.jsonl"
        failing = {"cell:2", "cell:4"}
        first_exec: list[str] = []
        Scheduler(workers=2, ledger_path=ledger).run(
            self._counting_grid(first_exec, fail_ids=failing)
        )
        assert len(first_exec) == 6

        # The retry (same grid, failures gone) must only run the M-K
        # cells that never landed an ok record.
        second_exec: list[str] = []
        results = Scheduler(workers=2, ledger_path=ledger, resume=True).run(
            self._counting_grid(second_exec)
        )
        assert sorted(second_exec) == sorted(failing)
        assert all(results[f"cell:{i}"].ok for i in range(6))
        statuses = {i: results[f"cell:{i}"].status for i in range(6)}
        assert statuses == {0: "cached", 1: "cached", 2: "ok",
                            3: "cached", 4: "ok", 5: "cached"}

    def test_resume_keys_are_grid_namespaced(self, tmp_path):
        # The same cell config under another grid label must not match.
        ledger = tmp_path / "ledger.jsonl"
        first_exec: list[str] = []
        Scheduler(workers=1, ledger_path=ledger, label="gridA").run(
            self._counting_grid(first_exec)
        )
        second_exec: list[str] = []
        Scheduler(workers=1, ledger_path=ledger, resume=True,
                  label="gridB").run(self._counting_grid(second_exec))
        assert len(second_exec) == 6

    def test_one_well_formed_record_per_cell_under_concurrency(
        self, tmp_path
    ):
        ledger_path = tmp_path / "ledger.jsonl"
        Scheduler(workers=4, ledger_path=ledger_path).run(
            self._counting_grid([], n=12)
        )
        ledger = RunLedger(ledger_path)
        cells = [r for r in ledger.iter_records() if r.kind == "runner.cell"]
        assert ledger.skipped_lines == 0
        assert len(cells) == 12
        assert len({r.config["fingerprint"] for r in cells}) == 12


class TestLedgerConcurrency:
    def test_concurrent_appends_stay_line_atomic(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)

        def writer(k: int) -> None:
            barrier.wait(timeout=30)
            for i in range(per_thread):
                # separate RunLedger instances, same path: the per-path
                # lock registry must still serialize them
                RunLedger(ledger.path).append(RunRecord(
                    run_id=f"t{k:02d}i{i:03d}", kind="runner.cell",
                    created_at="2026-01-01T00:00:00Z",
                    outcome={"status": "ok", "value": k * 1000 + i},
                ))

        threads = [threading.Thread(target=writer, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        records = ledger.records()
        assert ledger.skipped_lines == 0
        assert len(records) == n_threads * per_thread
        assert len({r.run_id for r in records}) == n_threads * per_thread

    def test_malformed_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(RunRecord(run_id="good1", kind="runner.cell",
                                created_at="2026-01-01T00:00:00Z"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json at all\n")
            handle.write('{"valid_json": "but no run_id"}\n')
        ledger.append(RunRecord(run_id="good2", kind="runner.cell",
                                created_at="2026-01-01T00:00:00Z"))
        records = ledger.records()
        assert [r.run_id for r in records] == ["good1", "good2"]
        assert ledger.skipped_lines == 2


class TestGridProgress:
    def test_progress_lines_track_counts(self, capsys):
        progress = GridProgress(total_cells=3, label="demo", enabled=True)
        progress.update(JobResult(job_id="a", status="ok"))
        progress.update(JobResult(job_id="b", status="failed"))
        err = capsys.readouterr().err
        assert "[demo] 1/3 cells, 0 failures" in err
        assert "[demo] 2/3 cells, 1 failures" in err
        assert progress.failures == 1

    def test_disabled_progress_is_silent(self, capsys):
        progress = GridProgress(total_cells=2, label="demo", enabled=False)
        progress.update(JobResult(job_id="a", status="ok"))
        assert capsys.readouterr().err == ""
        assert progress.done == 1


class TestRunnerObservability:
    def test_runner_session_and_per_cell_records(self, tmp_path):
        from repro.obs import disable_tracing, enable_tracing

        enable_tracing(tmp_path)
        try:
            run_grid(_grid(4), workers=2, label="obs-grid")
        finally:
            disable_tracing()
        records = RunLedger(tmp_path / "ledger.jsonl").records()
        kinds = sorted(r.kind for r in records)
        assert kinds.count("runner") == 1
        assert kinds.count("runner.cell") == 4
        runner = next(r for r in records if r.kind == "runner")
        assert runner.config["workers"] == 2
        assert runner.outcome["success"] is True
        counters = runner.metrics["counters"]
        assert counters["runner.jobs_total"] == 5
        assert counters["runner.jobs{status=ok}"] == 5
        assert any(s["name"] == "runner.job" for s in runner.spans)

    def test_worker_rng_streams_match_sequential(self):
        values: dict[int, dict[str, float]] = {}
        for workers in (1, 4):
            graph = JobGraph()
            for i in range(10):
                graph.add(f"cell:{i}",
                          lambda: float(job_rng().standard_normal()),
                          config={"i": i}, seed=7)
            results = Scheduler(workers=workers).run(graph)
            values[workers] = {k: r.value for k, r in results.items()}
        assert values[1] == values[4]
        assert len(set(values[1].values())) == 10  # streams are disjoint


class TestSeedSequenceSpawning:
    def test_rng_matches_seedsequence_contract(self):
        import hashlib

        job = Job("cell:wifi:gemini", lambda: 1, seed=3)
        digest = hashlib.md5(b"cell:wifi:gemini").digest()
        entropy = [3] + [int.from_bytes(digest[i:i + 4], "little")
                         for i in (0, 4, 8, 12)]
        expected = np.random.default_rng(np.random.SeedSequence(entropy))
        assert job.spawn_rng().random() == expected.random()
