"""Linear support-vector machine trained with SGD on the hinge loss.

Rounds out the model zoo available to generated pipelines and AutoML
portfolios: a max-margin linear classifier with L2 regularization and a
Platt-style logistic link for probability estimates.  Multi-class is
one-vs-rest over the sorted label set.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, check_X, check_X_y
from repro.ml.reuse import reusable_fit

__all__ = ["LinearSVC"]


class LinearSVC(BaseEstimator, ClassifierMixin):
    """L2-regularized linear SVM (hinge loss, averaged SGD)."""

    def __init__(
        self,
        alpha: float = 1e-4,
        max_iter: int = 30,
        learning_rate: float = 0.05,
        random_state: int = 0,
    ) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.max_iter = max_iter
        self.learning_rate = learning_rate
        self.random_state = random_state

    @reusable_fit
    def fit(self, X: Any, y: Any) -> "LinearSVC":
        X, y = check_X_y(X, y)
        self.classes_ = sorted(set(y.tolist()), key=str)
        if len(self.classes_) < 2:
            raise ValueError("LinearSVC needs at least two classes")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._mu, self._sigma = mean, np.where(std > 0, std, 1.0)
        Z = (X - self._mu) / self._sigma
        n, d = Z.shape
        rng = np.random.default_rng(self.random_state)

        self.coef_ = np.zeros((len(self.classes_), d))
        self.intercept_ = np.zeros(len(self.classes_))
        for c, label in enumerate(self.classes_):
            target = np.where(y == label, 1.0, -1.0)
            w = np.zeros(d)
            b = 0.0
            w_sum = np.zeros(d)
            b_sum = 0.0
            steps = 0
            for epoch in range(self.max_iter):
                order = rng.permutation(n)
                eta = self.learning_rate / (1.0 + 0.1 * epoch)
                for i in order:
                    margin = target[i] * (Z[i] @ w + b)
                    w *= 1.0 - eta * self.alpha
                    if margin < 1.0:
                        w += eta * target[i] * Z[i]
                        b += eta * target[i]
                    w_sum += w
                    b_sum += b
                    steps += 1
            self.coef_[c] = w_sum / steps
            self.intercept_[c] = b_sum / steps
        return self

    def decision_function(self, X: Any) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_X(X)
        Z = (X - self._mu) / self._sigma
        scores = Z @ self.coef_.T + self.intercept_
        if len(self.classes_) == 2:
            return scores[:, 1]  # sklearn-style single margin for binary
        return scores

    def predict(self, X: Any) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_X(X)
        Z = (X - self._mu) / self._sigma
        scores = Z @ self.coef_.T + self.intercept_
        picks = np.argmax(scores, axis=1)
        return np.asarray([self.classes_[p] for p in picks], dtype=object)

    def predict_proba(self, X: Any) -> np.ndarray:
        """Logistic squash of the margins (Platt-flavoured, uncalibrated)."""
        self._check_fitted("coef_")
        X = check_X(X)
        Z = (X - self._mu) / self._sigma
        scores = Z @ self.coef_.T + self.intercept_
        expit = 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))
        totals = expit.sum(axis=1, keepdims=True)
        return expit / np.where(totals > 0, totals, 1.0)
