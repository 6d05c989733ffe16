"""Parity contract of the flat-array CART in ``repro.ml.tree``.

Fitted trees, forests and boosted ensembles must be bit-identical to the
recursive node-object CART they replaced: same preorder of
``(feature, threshold, gain, n_samples, value)``, same predictions, same
``depth_`` / ``n_leaves_`` / ``feature_importances_``.  The recursive
implementation is embedded below as the oracle; inputs are seeded random
matrices with ties, constant columns, 0/1 indicator columns, few and many
(>= 8) classes and every ``max_features`` form.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest

import repro.ml.boosting as boosting
import repro.ml.tree as tree_module
from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_X, check_X_y
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

# -- recursive reference implementation (node objects, per-feature search) -----


@dataclass
class _Node:
    """A tree node; leaves carry a prediction payload, splits carry children."""

    prediction: np.ndarray | float | None = None
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    gain: float = 0.0  # impurity decrease achieved by this split
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split_classification(
    X: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Return (feature, threshold, gini_gain); feature == -1 when no split."""
    n = codes.shape[0]
    counts_total = np.bincount(codes, minlength=n_classes).astype(np.float64)
    gini_parent = 1.0 - np.sum((counts_total / n) ** 2)
    best = (-1, 0.0, 0.0)
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), codes] = 1.0
    for j in features:
        order = np.argsort(X[:, j], kind="mergesort")
        values = X[order, j]
        if values[0] == values[-1]:
            continue
        prefix = np.cumsum(onehot[order], axis=0)
        left_n = np.arange(1, n, dtype=np.float64)
        boundaries = values[:-1] < values[1:]
        left_counts = prefix[:-1]
        right_counts = counts_total - left_counts
        right_n = n - left_n
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        gains = gini_parent - weighted
        valid = (
            boundaries
            & (left_n >= min_samples_leaf)
            & (right_n >= min_samples_leaf)
        )
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best[2]:
            threshold = 0.5 * (values[k] + values[k + 1])
            best = (int(j), float(threshold), float(gains[k]))
    return best


def _best_split_regression(
    X: np.ndarray,
    y: np.ndarray,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    n = y.shape[0]
    total_sum = float(y.sum())
    total_sq = float((y**2).sum())
    var_parent = total_sq / n - (total_sum / n) ** 2
    best = (-1, 0.0, 0.0)
    for j in features:
        order = np.argsort(X[:, j], kind="mergesort")
        values = X[order, j]
        if values[0] == values[-1]:
            continue
        y_sorted = y[order]
        prefix_sum = np.cumsum(y_sorted)[:-1]
        prefix_sq = np.cumsum(y_sorted**2)[:-1]
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        boundaries = values[:-1] < values[1:]
        var_left = prefix_sq / left_n - (prefix_sum / left_n) ** 2
        right_sum = total_sum - prefix_sum
        right_sq = total_sq - prefix_sq
        var_right = right_sq / right_n - (right_sum / right_n) ** 2
        weighted = (left_n * var_left + right_n * var_right) / n
        gains = var_parent - weighted
        valid = (
            boundaries
            & (left_n >= min_samples_leaf)
            & (right_n >= min_samples_leaf)
        )
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best[2]:
            threshold = 0.5 * (values[k] + values[k + 1])
            best = (int(j), float(threshold), float(gains[k]))
    return best


class _RefBaseTree(BaseEstimator):
    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _feature_pool(self, n_features: int, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None:
            return np.arange(n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(n_features)))
        elif self.max_features == "log2":
            k = max(1, int(np.log2(n_features)))
        elif isinstance(self.max_features, float):
            k = max(1, int(self.max_features * n_features))
        else:
            k = max(1, min(int(self.max_features), n_features))
        return rng.choice(n_features, size=k, replace=False)

    def _predict_row(self, node: _Node, row: np.ndarray) -> Any:
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    @property
    def depth_(self) -> int:
        self._check_fitted("root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    @property
    def n_leaves_(self) -> int:
        self._check_fitted("root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalized to sum to 1."""
        self._check_fitted("root_")
        self._check_fitted("n_features_")
        importances = np.zeros(self.n_features_, dtype=np.float64)
        total = max(1, self.root_.n_samples)

        def walk(node: _Node) -> None:
            if node.is_leaf:
                return
            importances[node.feature] += node.gain * node.n_samples / total
            walk(node.left)
            walk(node.right)

        walk(self.root_)
        norm = importances.sum()
        return importances / norm if norm > 0 else importances


class RefDecisionTreeClassifier(_RefBaseTree, ClassifierMixin):
    """Gini-based CART classifier; leaves store class-probability vectors."""

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "RefDecisionTreeClassifier":
        X, y = check_X_y(X, y)
        self.classes_ = sorted(set(y.tolist()), key=str)
        index = {label: i for i, label in enumerate(self.classes_)}
        codes = np.asarray([index[v] for v in y], dtype=np.int64)
        if sample_indices is not None:
            X, codes = X[sample_indices], codes[sample_indices]
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._build(X, codes, depth=0, rng=rng)
        return self

    def _build(self, X: np.ndarray, codes: np.ndarray, depth: int, rng: np.random.Generator) -> _Node:
        n_classes = len(self.classes_)
        counts = np.bincount(codes, minlength=n_classes).astype(np.float64)
        proba = counts / counts.sum()
        node = _Node(prediction=proba, n_samples=codes.shape[0])
        if (
            codes.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) <= 1
        ):
            return node
        features = self._feature_pool(X.shape[1], rng)
        feature, threshold, gain = _best_split_classification(
            X, codes, n_classes, features, self.min_samples_leaf
        )
        if feature < 0 or gain <= 0.0:
            return node
        mask = X[:, feature] <= threshold
        node.feature, node.threshold, node.gain = feature, threshold, gain
        node.left = self._build(X[mask], codes[mask], depth + 1, rng)
        node.right = self._build(X[~mask], codes[~mask], depth + 1, rng)
        return node

    def predict_proba(self, X: Any) -> np.ndarray:
        self._check_fitted("root_")
        X = check_X(X)
        return np.vstack([self._predict_row(self.root_, row) for row in X])

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)
        picks = np.argmax(proba, axis=1)
        return np.asarray([self.classes_[p] for p in picks], dtype=object)


class RefDecisionTreeRegressor(_RefBaseTree, RegressorMixin):
    """Variance-reduction CART regressor; leaves store means."""

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "RefDecisionTreeRegressor":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        if sample_indices is not None:
            X, y = X[sample_indices], y[sample_indices]
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._build(X, y, depth=0, rng=rng)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> _Node:
        node = _Node(prediction=float(y.mean()), n_samples=y.shape[0])
        if (
            y.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(y == y[0])
        ):
            return node
        features = self._feature_pool(X.shape[1], rng)
        feature, threshold, gain = _best_split_regression(
            X, y, features, self.min_samples_leaf
        )
        if feature < 0 or gain <= 0.0:
            return node
        mask = X[:, feature] <= threshold
        node.feature, node.threshold, node.gain = feature, threshold, gain
        node.left = self._build(X[mask], y[mask], depth + 1, rng)
        node.right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return node

    def predict(self, X: Any) -> np.ndarray:
        self._check_fitted("root_")
        X = check_X(X)
        return np.asarray(
            [self._predict_row(self.root_, row) for row in X], dtype=np.float64
        )


class RefRandomForestClassifier(RandomForestClassifier):
    """Forest fit over reference trees; voting is the unchanged forest code."""

    def fit(self, X: Any, y: Any) -> "RefRandomForestClassifier":
        X, y = check_X_y(X, y)
        self.classes_ = sorted(set(y.tolist()), key=str)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for t in range(self.n_estimators):
            tree = RefDecisionTreeClassifier(**self._tree_params(self.random_state + t))
            tree.classes_ = self.classes_  # fixed label order across trees
            index = {label: i for i, label in enumerate(self.classes_)}
            codes = np.asarray([index[v] for v in y], dtype=np.int64)
            idx = self._sample(X.shape[0], rng)
            tree.n_features_ = X.shape[1]
            tree.root_ = tree._build(
                X[idx], codes[idx], depth=0, rng=np.random.default_rng(self.random_state + t)
            )
            self.estimators_.append(tree)
        return self


class RefRandomForestRegressor(RandomForestRegressor):
    """Forest fit over reference trees; averaging is the unchanged forest code."""

    def fit(self, X: Any, y: Any) -> "RefRandomForestRegressor":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for t in range(self.n_estimators):
            tree = RefDecisionTreeRegressor(**self._tree_params(self.random_state + t))
            idx = self._sample(X.shape[0], rng)
            tree.n_features_ = X.shape[1]
            tree.root_ = tree._build(
                X[idx], y[idx], depth=0, rng=np.random.default_rng(self.random_state + t)
            )
            self.estimators_.append(tree)
        return self


# -- randomized inputs ----------------------------------------------------------

MAX_FEATURES = [None, "sqrt", "log2", 0.3, 0.5, 1.0, 1, 2, 3, 50]


def _matrix(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Columns of mixed shape: continuous, rounded (ties), small ints, 0/1, constant."""
    columns = []
    for _ in range(d):
        kind = rng.integers(5)
        if kind == 0:
            col = rng.normal(size=n)
        elif kind == 1:
            col = np.round(rng.normal(size=n), 1)
        elif kind == 2:
            col = rng.integers(0, 4, size=n).astype(np.float64)
        elif kind == 3:
            col = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.float64)
        else:
            col = np.full(n, rng.normal())
        columns.append(col)
    return np.column_stack(columns)


def _case(seed: int, task: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, Any]]:
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 130)), int(rng.integers(1, 9))
    X = _matrix(rng, n, d)
    signal = X @ rng.normal(size=d) + rng.normal(scale=0.5, size=n)
    if task == "classification":
        n_classes = int(rng.choice([2, 3, 5, 8, 9, 13]))
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        y = np.digitize(signal, edges)
        y[rng.random(n) < 0.1] = rng.integers(n_classes)  # label noise
        y = np.array([f"c{v}" for v in y], dtype=object) if rng.random() < 0.5 else y
    else:
        y = signal if rng.random() < 0.7 else np.round(signal)
    params = {
        "max_depth": [None, None, 1, 3, 6][rng.integers(5)],
        "min_samples_split": int(rng.choice([2, 2, 4, 10])),
        "min_samples_leaf": int(rng.choice([1, 1, 2, 5])),
        "max_features": MAX_FEATURES[rng.integers(len(MAX_FEATURES))],
        "random_state": int(rng.integers(1000)),
    }
    X_test = np.vstack([X, _matrix(rng, 40, d), X + 1e-9])
    return X, y, X_test, params


def _sample_indices(seed: int, n: int) -> np.ndarray | None:
    rng = np.random.default_rng(seed + 10_000)
    pick = rng.integers(3)
    if pick == 0:
        return None
    if pick == 1:
        return rng.integers(0, n, size=n)  # bootstrap, with repeats
    return rng.permutation(n)[: max(1, n // 2)]


def _preorder(root: _Node) -> list[tuple]:
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append((node.feature, node.threshold, node.gain, node.n_samples, node.prediction))
        if not node.is_leaf:
            stack.extend([node.right, node.left])
    return out


def _same(a: Any, b: Any) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_tree(new: Any, ref: Any) -> None:
    nodes = _preorder(ref.root_)
    assert len(new.feature_) == len(nodes)
    assert new.feature_.tolist() == [f for f, *_ in nodes]
    assert _same(new.threshold_, np.array([t for _, t, *_ in nodes], dtype=np.float64))
    assert _same(new.gain_, np.array([g for _, _, g, *_ in nodes], dtype=np.float64))
    assert new.n_samples_.tolist() == [s for *_, s, _ in nodes]
    assert _same(new.value_, np.array([v for *_, v in nodes], dtype=np.float64))
    assert new.depth_ == ref.depth_
    assert new.n_leaves_ == ref.n_leaves_
    assert _same(new.feature_importances_, ref.feature_importances_)


# -- single trees ---------------------------------------------------------------

BLOCKS = range(12)
PER_BLOCK = 50


@pytest.mark.parametrize("block", BLOCKS)
def test_classifier_trees_bit_identical(block):
    for seed in range(block * PER_BLOCK, (block + 1) * PER_BLOCK):
        X, y, X_test, params = _case(seed, "classification")
        indices = _sample_indices(seed, X.shape[0])
        new = DecisionTreeClassifier(**params).fit(X, y, sample_indices=indices)
        ref = RefDecisionTreeClassifier(**params).fit(X, y, sample_indices=indices)
        assert_same_tree(new, ref)
        assert _same(new.predict_proba(X_test), ref.predict_proba(X_test))
        assert new.predict(X_test).tolist() == ref.predict(X_test).tolist()


@pytest.mark.parametrize("block", BLOCKS)
def test_regressor_trees_bit_identical(block):
    for seed in range(block * PER_BLOCK, (block + 1) * PER_BLOCK):
        X, y, X_test, params = _case(seed, "regression")
        indices = _sample_indices(seed, X.shape[0])
        new = DecisionTreeRegressor(**params).fit(X, y, sample_indices=indices)
        ref = RefDecisionTreeRegressor(**params).fit(X, y, sample_indices=indices)
        assert_same_tree(new, ref)
        assert _same(new.predict(X_test), ref.predict(X_test))


def test_many_classes_use_the_pairwise_sum_path():
    # 38 classes over one-hot columns: the shape of the eu_it pipelines.
    rng = np.random.default_rng(7)
    n, d = 300, 40
    X = (rng.random((n, d)) < 0.1).astype(np.float64)
    X[:, :3] = rng.normal(size=(n, 3))
    y = rng.integers(0, 38, size=n)
    params = {"max_features": "sqrt", "random_state": 3}
    new = DecisionTreeClassifier(**params).fit(X, y)
    ref = RefDecisionTreeClassifier(**params).fit(X, y)
    assert_same_tree(new, ref)
    assert _same(new.predict_proba(X), ref.predict_proba(X))


# Node sizes pick the split-search path; these force one path everywhere.
PATHS = {
    "default": {},
    "screened-in-one-candidate-batches": {"_DENSE_CELLS": 0, "_COUNT_CELLS": 1},
    "prefix-counted": {"_DENSE_CELLS": 1 << 62},
}


@pytest.mark.parametrize("path", ["screened-in-one-candidate-batches", "prefix-counted"])
def test_each_classification_path_bit_identical(path, monkeypatch):
    for name, value in PATHS[path].items():
        monkeypatch.setattr(tree_module, name, value)
    for seed in range(100):
        X, y, X_test, params = _case(seed, "classification")
        indices = _sample_indices(seed, X.shape[0])
        new = DecisionTreeClassifier(**params).fit(X, y, sample_indices=indices)
        ref = RefDecisionTreeClassifier(**params).fit(X, y, sample_indices=indices)
        assert_same_tree(new, ref)
        assert _same(new.predict_proba(X_test), ref.predict_proba(X_test))


@pytest.mark.parametrize("path", PATHS)
def test_one_class_per_row(path, monkeypatch):
    # Every candidate split ties (purity 2), so all of them pass the screen.
    for name, value in PATHS[path].items():
        monkeypatch.setattr(tree_module, name, value)
    rng = np.random.default_rng(5)
    X = _matrix(rng, 60, 6)
    X[:, 0] = rng.normal(size=60)
    y = rng.permutation(60)
    for params in [{}, {"max_features": "sqrt", "random_state": 2}, {"min_samples_leaf": 3}]:
        new = DecisionTreeClassifier(**params).fit(X, y)
        ref = RefDecisionTreeClassifier(**params).fit(X, y)
        assert_same_tree(new, ref)
        assert _same(new.predict_proba(X), ref.predict_proba(X))


def test_class_counts_stay_bounded_when_classes_approach_rows():
    # 500 rows, 500 classes, 16 continuous features: every candidate of the
    # root ties, and counting them all at once takes over 100 MB.
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(500, 16)), np.arange(500)
    tracemalloc.start()
    try:
        DecisionTreeClassifier(max_depth=1).fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- ensembles ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_random_forests_bit_identical(seed):
    X, y, X_test, params = _case(500 + seed, "classification")
    forest = {"n_estimators": 6, "bootstrap": seed % 4 != 0, **params}
    new = RandomForestClassifier(**forest).fit(X, y)
    ref = RefRandomForestClassifier(**forest).fit(X, y)
    for tree, ref_tree in zip(new.estimators_, ref.estimators_):
        assert_same_tree(tree, ref_tree)
    assert _same(new.predict_proba(X_test), ref.predict_proba(X_test))
    assert new.predict(X_test).tolist() == ref.predict(X_test).tolist()
    assert _same(new.feature_importances_, ref.feature_importances_)

    X, y, X_test, params = _case(600 + seed, "regression")
    forest = {"n_estimators": 6, "bootstrap": seed % 4 != 0, **params}
    new = RandomForestRegressor(**forest).fit(X, y)
    ref = RefRandomForestRegressor(**forest).fit(X, y)
    for tree, ref_tree in zip(new.estimators_, ref.estimators_):
        assert_same_tree(tree, ref_tree)
    assert _same(new.predict(X_test), ref.predict(X_test))
    assert _same(new.feature_importances_, ref.feature_importances_)


@pytest.mark.parametrize("seed", range(4))
def test_gradient_boosting_bit_identical(seed, monkeypatch):
    X, y, X_test, _ = _case(700 + seed, "regression")
    Xc, yc, Xc_test, _ = _case(800 + seed, "classification")
    reg = {"n_estimators": 8, "max_depth": 3, "subsample": [1.0, 0.7][seed % 2]}
    clf = {"n_estimators": 4, "max_depth": 2, "min_samples_leaf": 1 + seed % 3}
    new_reg = GradientBoostingRegressor(**reg).fit(X, y)
    new_clf = GradientBoostingClassifier(**clf).fit(Xc, yc)
    monkeypatch.setattr(boosting, "DecisionTreeRegressor", RefDecisionTreeRegressor)
    ref_reg = GradientBoostingRegressor(**reg).fit(X, y)
    ref_clf = GradientBoostingClassifier(**clf).fit(Xc, yc)
    assert _same(new_reg.predict(X_test), ref_reg.predict(X_test))
    assert _same(new_clf.decision_function(Xc_test), ref_clf.decision_function(Xc_test))
    assert _same(new_clf.predict_proba(Xc_test), ref_clf.predict_proba(Xc_test))
    assert new_clf.predict(Xc_test).tolist() == ref_clf.predict(Xc_test).tolist()


# -- regressions pinned against the recursive implementation --------------------


def test_deep_tree_does_not_recurse():
    # A 1999-deep chain overflowed the recursive builder and its walks.
    X, y = np.arange(2000.0)[:, None], np.arange(2000) % 2
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.depth_ == 1999
    assert tree.n_leaves_ == 2000
    assert tree.score(X, y) == 1.0
    assert tree.feature_importances_.tolist() == [1.0]


@pytest.mark.parametrize("estimator", [DecisionTreeClassifier, RandomForestClassifier])
@pytest.mark.parametrize("max_features", [1.5, 0.0, -0.2, "auto", "3", 0, -1, [2]])
def test_invalid_max_features_rejected_at_fit(estimator, max_features):
    X = np.arange(40.0).reshape(20, 2)
    y = np.arange(20) % 2
    with pytest.raises(ValueError, match="max_features"):
        estimator(max_features=max_features).fit(X, y)


@pytest.mark.parametrize("estimator", [DecisionTreeRegressor, RandomForestRegressor])
def test_invalid_max_features_rejected_before_any_split(estimator):
    # Constant targets never reach a split, so only the up-front check fires.
    with pytest.raises(ValueError, match="max_features"):
        estimator(max_features="auto").fit(np.zeros((5, 2)), np.ones(5))


@pytest.mark.parametrize("max_features", MAX_FEATURES + [np.float64(0.5), np.int64(2)])
def test_valid_max_features_accepted(max_features):
    X, y, _, _ = _case(3, "classification")
    RandomForestClassifier(n_estimators=2, max_features=max_features).fit(X, y)
    DecisionTreeRegressor(max_features=max_features).fit(X, X[:, 0])
