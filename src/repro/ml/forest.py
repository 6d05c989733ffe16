"""Random forests: bootstrap-aggregated CART trees with feature subsampling."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, check_X, check_X_y
from repro.ml.reuse import reusable_fit
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _label_codes, _pool_size

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _BaseForest(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def _tree_params(self, seed: int) -> dict[str, Any]:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "random_state": seed,
        }

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.bootstrap:
            return rng.integers(0, n, size=n)
        return np.arange(n)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importances over the ensemble."""
        self._check_fitted("estimators_")
        stacked = np.vstack([t.feature_importances_ for t in self.estimators_])
        importances = stacked.mean(axis=0)
        norm = importances.sum()
        return importances / norm if norm > 0 else importances


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Majority-probability voting over bootstrapped Gini trees."""

    @reusable_fit
    def fit(self, X: Any, y: Any) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        pool = _pool_size(self.max_features, X.shape[1])
        self.classes_, codes = _label_codes(y)
        XT = np.ascontiguousarray(X.T)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for t in range(self.n_estimators):
            tree = DecisionTreeClassifier(**self._tree_params(self.random_state + t))
            tree.classes_ = self.classes_  # fixed label order across trees
            idx = self._sample(X.shape[0], rng)
            tree._grow(XT[:, idx], codes[idx], pool)
            self.estimators_.append(tree)
        return self

    def predict_proba(self, X: Any) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        total = np.zeros((X.shape[0], len(self.classes_)), dtype=np.float64)
        for tree in self.estimators_:
            total += tree.predict_proba(X)
        return total / len(self.estimators_)

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)
        picks = np.argmax(proba, axis=1)
        return np.asarray([self.classes_[p] for p in picks], dtype=object)


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Mean aggregation over bootstrapped variance-reduction trees."""

    @reusable_fit
    def fit(self, X: Any, y: Any) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        pool = _pool_size(self.max_features, X.shape[1])
        y = y.astype(np.float64)
        XT = np.ascontiguousarray(X.T)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for t in range(self.n_estimators):
            tree = DecisionTreeRegressor(**self._tree_params(self.random_state + t))
            idx = self._sample(X.shape[0], rng)
            tree._grow(XT[:, idx], y[idx], pool)
            self.estimators_.append(tree)
        return self

    def predict(self, X: Any) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        total = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.estimators_:
            total += tree.predict(X)
        return total / len(self.estimators_)
