"""Run-scoped forest fit reuse (``repro.ml.reuse``).

Inside a scope, a forest fit whose class, parameters and validated inputs
repeat an earlier fit restores a copy of that fit's state.  These tests
pin the contract: a reused fit equals a fresh one attribute for attribute,
any change to the key is a miss, a mutated model cannot leak into a later
hit, a failed fit stores nothing, scopes never share entries, and the
byte budget holds.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.ml.reuse as reuse
from repro.experiments.common import prepare_dataset, run_catdb
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.reuse import fit_reuse_scope
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.obs.metrics import MetricsRegistry, set_metrics
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


def _generate_counters(prepared) -> dict[str, float]:
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        report = run_catdb(prepared, llm_name="gpt-4o", seed=0, exec_mode="inproc")
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
