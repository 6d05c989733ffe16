"""Micro-benchmarks of the substrate layers.

Not paper artifacts — these time the building blocks every experiment
rests on (profiling, vectorization, tree fitting, prompt construction,
simulated LLM round-trips), so substrate regressions are visible
independently of the end-to-end replays.
"""

import numpy as np

from repro.catalog.cache import clear_default_cache
from repro.catalog.embeddings import pairwise_similarities
from repro.catalog.profiler import profile_table
from repro.generation.executor import execute_pipeline_code
from repro.llm.base import ResilientLLM
from repro.llm.codegen import generate_pipeline_code
from repro.llm.mock import MockLLM
from repro.llm.profiles import get_profile
from repro.resilience.retry import RetryPolicy
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.pipeline import TableVectorizer
from repro.obs.trace import Tracer, set_tracer
from repro.prompt.builder import build_prompt_plan
from repro.table.table import Table


def _wide_table(n=800, d=40, seed=0):
    rng = np.random.default_rng(seed)
    data = {f"v{i}": rng.normal(size=n) for i in range(d)}
    data["cat"] = rng.choice(["a", "b", "c", "d"], size=n).tolist()
    data["y"] = np.where(rng.normal(size=n) > 0, "p", "n").tolist()
    return Table.from_dict(data, name="micro")


def test_micro_profiling(benchmark):
    table = _wide_table()
    catalog = benchmark(
        lambda: profile_table(table, target="y", task_type="binary")
    )
    assert len(catalog) == 42


def _substrate_table(n=500, d=60, seed=0):
    """>=50 columns, mixed types — the profiling-substrate stress shape."""
    rng = np.random.default_rng(seed)
    data = {}
    for i in range(d):
        if i % 3 == 0:
            data[f"c{i}"] = rng.choice(
                [f"k{j}" for j in range(12)], size=n
            ).tolist()
        else:
            data[f"c{i}"] = rng.normal(size=n)
    data["y"] = np.where(rng.normal(size=n) > 0, "p", "n").tolist()
    return Table.from_dict(data, name="substrate")


def test_micro_profiling_sequential_wide(benchmark):
    table = _substrate_table()

    def run():
        clear_default_cache()  # time the cold path, not cache hits
        return profile_table(table, target="y", task_type="binary")

    catalog = benchmark(run)
    assert len(catalog) == 61


def test_micro_profiling_warm_cache(benchmark):
    """Re-profiling unchanged content (the refinement path) is near-free."""
    table = _substrate_table()
    clear_default_cache()
    profile_table(table, target="y", task_type="binary")  # warm

    catalog = benchmark(
        lambda: profile_table(table, target="y", task_type="binary")
    )
    assert len(catalog) == 61


def test_micro_profiling_tracer_off(benchmark):
    """Profiling with the default null tracer — the overhead baseline.

    Compare against ``test_micro_profiling_tracer_on``: the acceptance
    bound is <5% overhead when tracing is disabled (this pair also shows
    what *enabled* tracing costs, which is allowed to be higher).
    """
    table = _substrate_table()

    def run():
        clear_default_cache()
        return profile_table(table, target="y", task_type="binary")

    catalog = benchmark(run)
    assert len(catalog) == 61


def test_micro_profiling_tracer_on(benchmark):
    """Same profiling call with a live tracer collecting the span tree."""
    table = _substrate_table()

    def run():
        clear_default_cache()
        previous = set_tracer(Tracer())
        try:
            return profile_table(table, target="y", task_type="binary")
        finally:
            set_tracer(previous)

    catalog = benchmark(run)
    assert len(catalog) == 61


def test_micro_pairwise_similarities(benchmark):
    table = _substrate_table()

    def run():
        clear_default_cache()
        return pairwise_similarities(table)

    sims = benchmark(run)
    assert len(sims) == 61


def test_micro_vectorizer(benchmark):
    table = _wide_table()
    vectorizer = TableVectorizer(target="y").fit(table)

    X = benchmark(lambda: vectorizer.transform(table))
    assert X.shape[0] == table.n_rows


def test_micro_forest_fit(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 20))
    y = np.where(X[:, 0] + X[:, 1] > 0, "a", "b")

    model = benchmark(
        lambda: RandomForestClassifier(
            n_estimators=10, max_depth=8, random_state=0
        ).fit(X, y)
    )
    assert model.score(X, y) > 0.8


def test_micro_forest_predict(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 20))
    y = np.where(X[:, 0] + X[:, 1] > 0, "a", "b")
    model = RandomForestClassifier(n_estimators=10, max_depth=8, random_state=0).fit(X, y)

    proba = benchmark(lambda: model.predict_proba(X))
    assert proba.shape == (600, 2)


def test_micro_forest_regressor_fit(benchmark):
    # Many small nodes: the per-node cost of the regression split search.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 15))
    y = X[:, 0] - 2 * X[:, 1] + rng.normal(scale=0.5, size=300)

    model = benchmark(
        lambda: RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
    )
    assert model.score(X, y) > 0.8


def test_micro_prompt_construction(benchmark):
    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")

    plan = benchmark(lambda: build_prompt_plan(catalog, beta=1))
    assert plan.single is not None


def test_micro_llm_roundtrip(benchmark):
    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    llm = MockLLM("gpt-4o", fault_injection=False)

    response = benchmark(lambda: llm.complete(plan.single.text))
    assert "<CODE>" in response.content


def test_micro_llm_roundtrip_resilient(benchmark):
    """The same round-trip through the ResilientLLM wrapper (no faults).

    Compare against ``test_micro_llm_roundtrip``: the happy-path cost of
    the retry/deadline machinery should be negligible next to
    the completion itself.
    """
    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    llm = ResilientLLM(
        MockLLM("gpt-4o", fault_injection=False),
        policy=RetryPolicy(max_attempts=4),
    )

    response = benchmark(lambda: llm.complete(plan.single.text))
    assert "<CODE>" in response.content


def test_micro_pipeline_execution(benchmark):
    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    payload = {
        "task": "pipeline",
        "dataset": catalog.info.to_dict(),
        "schema": plan._full_schema,
        "rules": [r.to_payload() for r in plan.rules],
    }
    code = generate_pipeline_code(payload, get_profile("gpt-4o"))
    train, test = table.take(range(560)), table.take(range(560, 800))

    result = benchmark.pedantic(
        lambda: execute_pipeline_code(code, train, test), rounds=3, iterations=1
    )
    assert result.success


def test_micro_static_analysis(benchmark):
    """Full pipeline-profile analysis of one generated pipeline.

    Target: well under 10 ms per pipeline — the gate runs once per
    repair iteration, so it must be negligible next to an execution
    (compare ``test_micro_pipeline_execution``).
    """
    from repro.analysis import analyze_source

    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    payload = {
        "task": "pipeline",
        "dataset": catalog.info.to_dict(),
        "schema": plan._full_schema,
        "rules": [r.to_payload() for r in plan.rules],
    }
    code = generate_pipeline_code(payload, get_profile("gpt-4o"))

    report = benchmark(lambda: analyze_source(code))
    assert report.ok


def test_micro_static_analysis_flow_catalog(benchmark):
    """Flow-sensitive analysis of one pipeline, schema grounding on.

    The expensive configuration: per-scope CFG construction, the
    reaching-definitions/definite-assignment fixpoints, provenance-taint
    propagation, and the catalog-grounded ``schema-*`` rules all run.
    This is the bench job's analyzer gate — the ``analyzer_ms`` row of
    ``make_bench_report.GATES`` fails CI when the mean pass exceeds 15 ms,
    keeping the gate negligible next to an execution attempt (compare
    ``test_micro_pipeline_execution``).
    """
    from repro.analysis import analyze_source

    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    payload = {
        "task": "pipeline",
        "dataset": catalog.info.to_dict(),
        "schema": plan._full_schema,
        "rules": [r.to_payload() for r in plan.rules],
    }
    code = generate_pipeline_code(payload, get_profile("gpt-4o"))

    report = benchmark(lambda: analyze_source(code, catalog=catalog))
    assert report.ok


def test_micro_repair_loop_exec_skip_on(benchmark):
    """Repair-loop cost with the static gate ON for a syntax-faulted
    candidate: classification happens without executing the pipeline."""
    from repro.analysis import analyze_source
    from repro.llm.faults import _INJECTORS

    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    payload = {
        "task": "pipeline",
        "dataset": catalog.info.to_dict(),
        "schema": plan._full_schema,
        "rules": [r.to_payload() for r in plan.rules],
    }
    code = generate_pipeline_code(payload, get_profile("gpt-4o"))
    dirty = _INJECTORS["truncated_code"](code, 3)

    report = benchmark(lambda: analyze_source(dirty))
    assert report.first_error() is not None


def _tall_table(n=20_000, seed=0):
    """Few columns, many rows — the streaming-profiler stress shape."""
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "uid": [f"u{i}" for i in range(n)],
            "amount": rng.normal(50, 9, size=n),
            "city": rng.choice(
                ["ams", "ber", "par", "rom", "mad"], size=n
            ).tolist(),
            "y": np.where(rng.normal(size=n) > 0, "p", "n").tolist(),
        },
        name="tall",
    )


def test_micro_profiling_batch_tall(benchmark):
    """Batch profiler on the tall shape — the streaming pair's baseline."""
    table = _tall_table()

    def run():
        clear_default_cache()
        return profile_table(table, target="y", task_type="binary")

    catalog = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(catalog) == 4


def test_micro_profiling_streaming_tall(benchmark):
    """Streaming profiler on the same rows, chunked as on disk.

    Compare against ``test_micro_profiling_batch_tall``: the sketch path
    pays a constant factor for mergeable summaries; what it buys is the
    constant memory ceiling (``test_micro_profiling_streaming_memory``).
    """
    from repro.catalog import chunks_from_table, profile_table_streaming

    table = _tall_table()

    def run():
        clear_default_cache()
        return profile_table_streaming(
            chunks_from_table(table, 4000),
            target="y",
            task_type="binary",
            chunk_rows=4000,
        )

    catalog = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(catalog) == 4


def test_micro_profiling_streaming_memory(tmp_path):
    """Allocation-peak pair: streaming must profile a 120k-row CSV with
    a far lower peak than load-then-batch (tracemalloc, Python+numpy)."""
    import csv
    import tracemalloc

    from repro.catalog import profile_table_streaming
    from repro.table.io_csv import read_csv

    rng = np.random.default_rng(0)
    path = tmp_path / "tall.csv"
    n = 120_000
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["uid", "amount", "city", "y"])
        cities = ["ams", "ber", "par", "rom", "mad"]
        for i in range(n):
            writer.writerow(
                [f"u{i}", f"{rng.normal(50, 9):.4f}",
                 cities[int(rng.integers(5))],
                 "p" if rng.random() > 0.5 else "n"]
            )

    clear_default_cache()
    tracemalloc.start()
    profile_table(read_csv(path), target="y", task_type="binary")
    _, batch_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    clear_default_cache()
    tracemalloc.start()
    profile_table_streaming(
        str(path), target="y", task_type="binary",
        chunk_rows=10_000,
    )
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(f"\npeak allocations: batch {batch_peak / 1e6:.1f} MB, "
          f"streaming {stream_peak / 1e6:.1f} MB")
    # The gap widens with row count (fixed sketch state vs O(rows)
    # columns): ~1.4x at 120k rows here, ~2.6x RSS at 1M rows in the
    # CI streaming-smoke job.
    assert stream_peak < batch_peak * 0.85


def test_micro_repair_loop_exec_skip_off(benchmark):
    """The same faulted candidate classified the pre-gate way: pay an
    execution attempt to learn the code is broken.  The on/off delta is
    the per-iteration saving of the static gate."""
    from repro.llm.faults import _INJECTORS

    table = _wide_table()
    catalog = profile_table(table, target="y", task_type="binary")
    plan = build_prompt_plan(catalog, beta=1)
    payload = {
        "task": "pipeline",
        "dataset": catalog.info.to_dict(),
        "schema": plan._full_schema,
        "rules": [r.to_payload() for r in plan.rules],
    }
    code = generate_pipeline_code(payload, get_profile("gpt-4o"))
    dirty = _INJECTORS["truncated_code"](code, 3)
    train, test = table.take(range(560)), table.take(range(560, 800))

    result = benchmark.pedantic(
        lambda: execute_pipeline_code(dirty, train, test),
        rounds=3, iterations=1,
    )
    assert result.error is not None
