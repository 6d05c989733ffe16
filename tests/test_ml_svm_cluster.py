"""Tests for LinearSVC."""

import numpy as np
import pytest

from repro.ml.metrics import accuracy_score
from repro.ml.svm import LinearSVC


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 4))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, "pos", "neg").astype(object)
    return X[:300], y[:300], X[300:], y[300:]


class TestLinearSVC:
    def test_binary_accuracy(self, separable):
        X_tr, y_tr, X_te, y_te = separable
        model = LinearSVC(max_iter=15).fit(X_tr, y_tr)
        assert accuracy_score(y_te, model.predict(X_te)) > 0.9

    def test_multiclass_ovr(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(450, 3))
        codes = np.digitize(X[:, 0] + X[:, 1], [-0.7, 0.7])
        y = np.asarray([f"c{c}" for c in codes], dtype=object)
        model = LinearSVC(max_iter=15).fit(X[:350], y[:350])
        assert accuracy_score(y[350:], model.predict(X[350:])) > 0.75

    def test_proba_rows_sum_to_one(self, separable):
        X_tr, y_tr, X_te, _ = separable
        model = LinearSVC(max_iter=5).fit(X_tr, y_tr)
        proba = model.predict_proba(X_te)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_binary_decision_function_is_1d(self, separable):
        X_tr, y_tr, X_te, _ = separable
        model = LinearSVC(max_iter=5).fit(X_tr, y_tr)
        assert model.decision_function(X_te).ndim == 1

    def test_classes_sorted(self, separable):
        X_tr, y_tr, _, _ = separable
        assert LinearSVC(max_iter=2).fit(X_tr, y_tr).classes_ == ["neg", "pos"]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LinearSVC().fit(np.zeros((5, 2)), ["a"] * 5)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            LinearSVC(alpha=0.0)

    def test_deterministic(self, separable):
        X_tr, y_tr, X_te, _ = separable
        a = LinearSVC(max_iter=3, random_state=5).fit(X_tr, y_tr)
        b = LinearSVC(max_iter=3, random_state=5).fit(X_tr, y_tr)
        assert (a.predict(X_te) == b.predict(X_te)).all()

