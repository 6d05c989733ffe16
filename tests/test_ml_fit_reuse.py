"""Run-scoped fit reuse (``repro.ml.reuse``).

Inside a scope, a forest or linear SVM fit whose class, parameters and
validated inputs repeat an earlier fit restores a copy of that fit's
state.  These tests pin the contract: a reused fit equals a fresh one
attribute for attribute, any change to the key is a miss, a mutated model
cannot leak into a later hit, a failed fit stores nothing, scopes never
share entries, and the byte budget holds.  The same holds when the fits
run in pool workers: a job carries its caller's entries, and what it
adds comes back into the caller's scope.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.execpool.pool as pool_module
import repro.ml.reuse as reuse
from repro.execpool import PoolConfig
from repro.execpool.adversarial import adversarial_tables
from repro.execpool.pool import ExecPool
from repro.experiments.common import prepare_dataset, run_catdb
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.reuse import ScopeDelta, fit_reuse_scope, merge_delta
from repro.ml.svm import LinearSVC
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer, set_tracer
from repro.resilience.deadline import ExecutionTimeout, run_with_timeout

TREE_ARRAYS = ("feature_", "threshold_", "gain_", "left_", "right_", "n_samples_", "value_")
MAX_FEATURES = [None, "sqrt", "log2", 0.5, 1.0, 2, 50]


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _outcomes(registry: MetricsRegistry) -> dict[str, float]:
    """``{"hit": n, "miss": n}`` summed over estimators."""
    totals = {"hit": 0, "miss": 0}
    for key, value in registry.snapshot()["counters"].items():
        if key.startswith("ml.fit_reuse{"):
            totals["hit" if "outcome=hit" in key else "miss"] += value
    return totals


def _inputs(seed: int, task: str, n: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Seeded matrix with ties and a constant column; int or string labels."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 3, size=n).astype(np.float64),
        np.full(n, 2.5),
    ])
    signal = X[:, 0] + X[:, 1] + rng.normal(scale=0.3, size=n)
    if task == "regression":
        return X, signal
    y = np.digitize(signal, [-0.5, 0.5])
    if seed % 2:
        y = np.array([f"c{v}" for v in y], dtype=object)
    return X, y


def _state(model) -> dict:
    """Everything a fit leaves, as comparable plain values."""
    state = {"keys": sorted(vars(model))}
    if hasattr(model, "classes_"):
        state["classes"] = list(model.classes_)
    state["trees"] = [
        (sorted(vars(tree)), [getattr(tree, a).tobytes() for a in TREE_ARRAYS])
        for tree in model.estimators_
    ]
    return state


def _outputs(model, X: np.ndarray) -> list:
    outputs = [np.asarray(model.predict(X)).tolist()]
    if hasattr(model, "predict_proba"):
        outputs.append(model.predict_proba(X).tobytes())
    return outputs


FORESTS = [(RandomForestClassifier, "classification"), (RandomForestRegressor, "regression")]


# -- fit oracle -----------------------------------------------------------------


@pytest.mark.parametrize("forest,task", FORESTS)
@pytest.mark.parametrize("max_features", MAX_FEATURES)
@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_scoped_fit_equals_unscoped_fit(forest, task, max_features, bootstrap, seed, metrics):
    X, y = _inputs(seed, task)
    params = {"n_estimators": 4, "max_features": max_features, "bootstrap": bootstrap,
              "random_state": seed}
    fresh = forest(**params).fit(X, y)
    with fit_reuse_scope():
        first = forest(**params).fit(X, y)
        hit = forest(**params).fit(X.tolist(), y)
    assert _outcomes(metrics) == {"hit": 1, "miss": 1}
    for model in (first, hit):
        assert _state(model) == _state(fresh)
        assert _outputs(model, X) == _outputs(fresh, X)


@pytest.mark.parametrize("seed", [0, 1])
def test_scoped_linear_svc_fit_equals_unscoped_fit(seed, metrics):
    X, y = _inputs(seed, "classification")
    params = {"max_iter": 3, "random_state": seed}
    fresh = LinearSVC(**params).fit(X, y)
    with fit_reuse_scope():
        LinearSVC(**params).fit(X, y)
        hit = LinearSVC(**params).fit(X.tolist(), y)
        hit.coef_[:] = 0.0
        again = LinearSVC(**params).fit(X, y)
    assert _outcomes(metrics) == {"hit": 2, "miss": 1}
    assert sorted(vars(again)) == sorted(vars(fresh))
    for name in ("coef_", "intercept_", "_mu", "_sigma"):
        assert getattr(again, name).tobytes() == getattr(fresh, name).tobytes()
    assert again.classes_ == fresh.classes_
    assert again.predict_proba(X).tobytes() == fresh.predict_proba(X).tobytes()


def test_hit_shares_no_arrays_with_the_stored_fit():
    X, y = _inputs(1, "classification")
    with fit_reuse_scope():
        first = RandomForestClassifier(n_estimators=3).fit(X, y)
        hit = RandomForestClassifier(n_estimators=3).fit(X, y)
    assert hit.estimators_ is not first.estimators_
    assert hit.estimators_[0].value_ is not first.estimators_[0].value_
    # the label order stays shared between a forest and its trees
    assert all(tree.classes_ is hit.classes_ for tree in hit.estimators_)


# -- key sensitivity ------------------------------------------------------------


def _variants():
    X, y = _inputs(4, "classification")
    base = {"n_estimators": 3, "random_state": 0}
    signed = X.copy()
    signed[5, 3] = 0.0
    negated = signed.copy()
    negated[5, 3] = -0.0
    cell = X.copy()
    cell[7, 0] += 1e-12
    order = np.random.default_rng(0).permutation(len(y))
    ints = (y > 0).astype(np.int64)
    return {
        "param": ((X, y, base), (X, y, {**base, "max_depth": 4})),
        "numpy-param": ((X, y, base), (X, y, {**base, "max_features": np.float64(0.5)})),
        "cell": ((X, y, base), (cell, y, base)),
        "signed-zero": ((signed, y, base), (negated, y, base)),
        "int-vs-float-label": ((X, ints, base), (X, ints.astype(np.float64), base)),
        "int-vs-str-label": ((X, ints, base), (X, ints.astype(str), base)),
        "float-vs-str-label": ((X, ints.astype(np.float64), base), (X, ints.astype(str), base)),
        "object-labels": ((X, ints.astype(object), base), (X, ints.astype(float).astype(object), base)),
        # same bytes, different dtype
        "bool-vs-uint8-label": ((X, ints.astype(bool), base), (X, ints.astype(np.uint8), base)),
        "row-order": ((X, y, base), (X[order], y[order], base)),
    }


@pytest.mark.parametrize("name", sorted(_variants()))
def test_changed_key_misses(name, metrics):
    (Xa, ya, pa), (Xb, yb, pb) = _variants()[name]
    with fit_reuse_scope():
        RandomForestClassifier(**pa).fit(Xa, ya)
        RandomForestClassifier(**pb).fit(Xb, yb)
    assert _outcomes(metrics)["hit"] == 0


def test_subclass_defined_elsewhere_always_fits(metrics):
    class Custom(RandomForestClassifier):
        def _sample(self, n, rng):
            return np.arange(n)

    X, y = _inputs(2, "classification")
    with fit_reuse_scope():
        Custom(n_estimators=2).fit(X, y)
        Custom(n_estimators=2).fit(X, y)
    assert _outcomes(metrics) == {"hit": 0, "miss": 0}


# -- mutation isolation and refit -----------------------------------------------


@pytest.mark.parametrize("forest,task", FORESTS)
def test_mutating_a_fitted_model_does_not_change_later_hits(forest, task):
    X, y = _inputs(4, task)
    fresh = forest(n_estimators=3).fit(X, y)
    with fit_reuse_scope():
        stored = forest(n_estimators=3).fit(X, y)
        stored.estimators_[0].threshold_[:] = 99.0
        hit = forest(n_estimators=3).fit(X, y)
        hit.estimators_[1].value_ *= 0
        hit.estimators_[0].left_[:] = -1
        hit.estimators_.pop()
        hit.estimators_.append(DecisionTreeClassifier())
        again = forest(n_estimators=3).fit(X, y)
    assert _state(again) == _state(fresh)
    assert _outputs(again, X) == _outputs(fresh, X)


@pytest.mark.parametrize("forest,task", FORESTS)
def test_refit_then_hit_equals_fresh_fit(forest, task, metrics):
    Xa, ya = _inputs(5, task)
    Xb, yb = _inputs(6, task, n=45)
    fresh = forest(n_estimators=3).fit(Xa, ya)
    with fit_reuse_scope():
        model = forest(n_estimators=3)
        model.fit(Xa, ya)
        model.fit(Xb, yb)
        model.fit(Xa, ya)
    assert _outcomes(metrics) == {"hit": 1, "miss": 2}
    assert _state(model) == _state(fresh)
    assert _outputs(model, Xa) == _outputs(fresh, Xa)


# -- failure --------------------------------------------------------------------


@pytest.mark.parametrize("raised", ["timeout", MemoryError])
def test_failed_fit_stores_nothing(raised, monkeypatch, metrics):
    X, y = _inputs(7, "regression")
    real_grow = DecisionTreeRegressor._grow

    def stalled_grow(self, *args):
        if raised == "timeout":
            time.sleep(5)
        else:
            raise raised()

    monkeypatch.setattr(DecisionTreeRegressor, "_grow", stalled_grow)
    with fit_reuse_scope():
        model = RandomForestRegressor(n_estimators=3)
        expected = ExecutionTimeout if raised == "timeout" else raised
        with pytest.raises(expected):
            run_with_timeout(lambda: model.fit(X, y), 0.05)
        monkeypatch.setattr(DecisionTreeRegressor, "_grow", real_grow)
        RandomForestRegressor(n_estimators=3).fit(X, y)
        RandomForestRegressor(n_estimators=3).fit(X, y)
    assert _outcomes(metrics) == {"hit": 1, "miss": 2}


# -- scope ----------------------------------------------------------------------


def test_no_reuse_outside_a_scope(monkeypatch, metrics):
    grown = []
    real_grow = DecisionTreeClassifier._grow

    def counting_grow(self, *args):
        grown.append(self)
        return real_grow(self, *args)

    monkeypatch.setattr(DecisionTreeClassifier, "_grow", counting_grow)
    X, y = _inputs(8, "classification")
    RandomForestClassifier(n_estimators=3).fit(X, y)
    RandomForestClassifier(n_estimators=3).fit(X, y)
    assert len(grown) == 6
    assert _outcomes(metrics) == {"hit": 0, "miss": 0}
    with fit_reuse_scope():
        RandomForestClassifier(n_estimators=3).fit(X, y)
        RandomForestClassifier(n_estimators=3).fit(X, y)
    assert len(grown) == 9
    RandomForestClassifier(n_estimators=3).fit(X, y)
    assert len(grown) == 12


def test_nested_scope_starts_empty(metrics):
    X, y = _inputs(9, "classification")
    with fit_reuse_scope():
        RandomForestClassifier(n_estimators=2).fit(X, y)
        with fit_reuse_scope():
            RandomForestClassifier(n_estimators=2).fit(X, y)
        RandomForestClassifier(n_estimators=2).fit(X, y)
    assert _outcomes(metrics) == {"hit": 1, "miss": 2}


@pytest.fixture(scope="module")
def prepared():
    return prepare_dataset("eu_it", seed=0, n=120)


def _generate_counters(prepared, exec_mode: str = "inproc") -> dict[str, float]:
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        report = run_catdb(prepared, llm_name="gpt-4o", seed=0, exec_mode=exec_mode)
    finally:
        set_metrics(previous)
    assert report.success
    return {k: v for k, v in registry.snapshot()["counters"].items() if "fit_reuse" in k}


def test_sequential_generate_runs_share_nothing(prepared):
    first = _generate_counters(prepared)
    second = _generate_counters(prepared)
    assert first == second
    assert any("outcome=miss" in key for key in first)
    assert any("outcome=hit" in key for key in first)


def test_concurrent_generate_runs_share_nothing(prepared):
    alone = _generate_counters(prepared)
    workers = 3  # more threads than the cores CI runners have
    barrier = threading.Barrier(workers)
    results: list[dict] = [{} for _ in range(workers)]

    def run(slot: int) -> None:
        barrier.wait(timeout=30)
        results[slot] = _generate_counters(prepared)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [alone] * workers


# -- budget ---------------------------------------------------------------------


def test_snapshot_over_the_budget_is_not_stored(monkeypatch, metrics):
    Xa, ya = _inputs(10, "regression")
    Xb, yb = _inputs(11, "regression", n=200)
    small = RandomForestRegressor(n_estimators=2).fit(Xa, ya)
    size = reuse._nbytes({"estimators_": small.estimators_}, set())
    monkeypatch.setattr(reuse, "_BUDGET_BYTES", size)
    with fit_reuse_scope():
        RandomForestRegressor(n_estimators=2).fit(Xb, yb)  # over budget
        RandomForestRegressor(n_estimators=2).fit(Xb, yb)
        RandomForestRegressor(n_estimators=2).fit(Xa, ya)  # fills the budget
        RandomForestRegressor(n_estimators=2).fit(Xa, ya)
    # only the Xa snapshot fit, and only it hit
    assert _outcomes(metrics) == {"hit": 1, "miss": 3}


def test_merge_respects_the_budget_and_never_overwrites(monkeypatch, metrics):
    monkeypatch.setattr(reuse, "_BUDGET_BYTES", 100)
    held = ({"coef_": np.zeros(1)}, 8)
    with fit_reuse_scope({b"held": held}) as scope:
        merge_delta(ScopeDelta(
            entries={
                b"held": ({"coef_": np.ones(1)}, 8),  # taken: first writer wins
                b"small": ({"coef_": np.ones(10)}, 80),  # 8 + 80 fits
                b"large": ({"coef_": np.ones(2)}, 16),  # 88 + 16 does not
            },
            outcomes={("LinearSVC", "miss"): 3, ("LinearSVC", "hit"): 1},
        ))
        assert scope.entries[b"held"] is held
        assert sorted(scope.entries) == [b"held", b"small"]
        assert scope.nbytes == 88
    assert _outcomes(metrics) == {"hit": 1, "miss": 3}


# -- pool mode ------------------------------------------------------------------

FOREST_PIPELINE = """
import numpy as np
from repro.ml.forest import RandomForestClassifier


def run_pipeline(train, test):
    X = np.asarray([[float(v)] for v in train["x"]])
    y = np.asarray([str(v) for v in train["y"]], dtype=object)
    model = RandomForestClassifier(n_estimators=N_TREES, random_state=0).fit(X, y)
    checksum = float(sum(tree.threshold_.sum() for tree in model.estimators_))
    AFTER_FIT
    return {"test_accuracy": float(np.mean(model.predict(X) == y)), "checksum": checksum}
"""


def _forest_code(n_trees: int = 3, after_fit: str = "pass") -> str:
    return FOREST_PIPELINE.replace("N_TREES", str(n_trees)).replace("AFTER_FIT", after_fit)


@pytest.fixture(scope="module")
def pool():
    p = ExecPool(PoolConfig(size=2, kill_grace_seconds=0.3))
    yield p
    p.shutdown()


@pytest.fixture
def alternating(pool):
    """Both workers warm and queued, so consecutive jobs alternate."""
    first, second = pool._acquire(), pool._acquire()
    pool._release(first)
    pool._release(second)
    return pool


@pytest.fixture
def tracer():
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


def _worker_pids(tracer: Tracer) -> list[int]:
    return [s.attributes["worker_pid"] for s in tracer.spans if s.name == "execpool.execute"]


def test_pooled_jobs_on_different_workers_hit(alternating, tracer, metrics):
    train, test = adversarial_tables(seed=0)
    with fit_reuse_scope() as scope:
        results = [alternating.execute(_forest_code(), train, test) for _ in range(3)]
        assert len(scope.entries) == 1
    pids = _worker_pids(tracer)
    assert pids[0] != pids[1] and pids[1] != pids[2]
    assert all(result.success for result in results)
    assert results[0].metrics == results[1].metrics == results[2].metrics
    assert _outcomes(metrics) == {"hit": 2, "miss": 1}


def test_pooled_generate_reports_its_reuse_like_inproc(prepared, alternating, monkeypatch, tracer):
    inproc = _generate_counters(prepared)
    monkeypatch.setattr(pool_module, "get_pool", lambda: alternating)
    pooled = _generate_counters(prepared, exec_mode="pool")
    assert pooled == inproc
    assert any("outcome=hit" in key for key in pooled)
    assert len(set(_worker_pids(tracer))) == 2


def test_mutation_inside_the_worker_cannot_change_a_later_run(alternating, metrics):
    train, test = adversarial_tables(seed=1)
    mutate = "model.estimators_[0].threshold_[:] = 99.0; model.estimators_.pop()"
    fresh = alternating.execute(_forest_code(after_fit=mutate), train, test)
    with fit_reuse_scope():
        runs = [alternating.execute(_forest_code(after_fit=mutate), train, test)
                for _ in range(4)]
    assert [run.metrics for run in runs] == [fresh.metrics] * 4
    assert _outcomes(metrics) == {"hit": 3, "miss": 1}


@pytest.mark.parametrize("death", [
    "import time\n    while True:\n        try:\n            time.sleep(60)\n"
    "        except BaseException:\n            pass",
    "import os; os._exit(7)",
])
def test_killed_or_crashed_job_leaves_the_scope_unchanged(pool, death, metrics):
    train, test = adversarial_tables(seed=2)
    with fit_reuse_scope() as scope:
        assert pool.execute(_forest_code(), train, test).success
        before = dict(scope.entries)
        # the dying job fits a new forest first; what it stored dies with it
        result = pool.execute(_forest_code(n_trees=2, after_fit=death), train, test,
                              timeout_seconds=0.5)
        assert not result.success
        assert scope.entries == before and scope.nbytes == sum(s for _, s in before.values())
        assert all(scope.entries[key] is before[key] for key in before)
    assert _outcomes(metrics) == {"hit": 0, "miss": 1}


def test_concurrent_pooled_generate_runs_share_nothing(prepared, pool, monkeypatch):
    monkeypatch.setattr(pool_module, "get_pool", lambda: pool)
    alone = _generate_counters(prepared, exec_mode="pool")
    assert any("outcome=hit" in key for key in alone)
    workers = 3  # more threads than pool workers
    barrier = threading.Barrier(workers)
    results: list[dict] = [{} for _ in range(workers)]

    def run(slot: int) -> None:
        barrier.wait(timeout=30)
        results[slot] = _generate_counters(prepared, exec_mode="pool")

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [alone] * workers


def test_execute_outside_a_scope_sends_none(pool, monkeypatch):
    sent = []
    real_submit = pool_module.PoolWorker.submit

    def spy(self, job):
        sent.append(job.reuse)
        return real_submit(self, job)

    monkeypatch.setattr(pool_module.PoolWorker, "submit", spy)
    train, test = adversarial_tables(seed=3)
    pool.execute(_forest_code(), train, test)
    with fit_reuse_scope():
        pool.execute(_forest_code(), train, test)
        pool.execute(_forest_code(), train, test)
    assert sent[0] is None
    assert sent[1] == {}
    assert len(sent[2]) == 1
