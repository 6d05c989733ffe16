"""Tests for the numpy estimators: linear, trees, forests, boosting, NB, kNN."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError, clone
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import LinearRegression, LogisticRegression, Ridge
from repro.ml.metrics import accuracy_score, r2_score
from repro.ml.naive_bayes import GaussianNB
from repro.ml.neighbors import KNeighborsClassifier, KNeighborsRegressor, TabPFNProxy
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


@pytest.fixture(scope="module")
def clf_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 5))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, "pos", "neg").astype(object)
    return X[:300], y[:300], X[300:], y[300:]


@pytest.fixture(scope="module")
def reg_data():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 4))
    y = 2 * X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=400)
    return X[:300], y[:300], X[300:], y[300:]


@pytest.fixture(scope="module")
def multi_data():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(450, 4))
    score = X[:, 0] + X[:, 1]
    y = np.digitize(score, [-0.7, 0.7]).astype(object)
    y = np.array([f"c{v}" for v in y], dtype=object)
    return X[:350], y[:350], X[350:], y[350:]


CLASSIFIERS = [
    lambda: LogisticRegression(max_iter=200),
    lambda: DecisionTreeClassifier(max_depth=8),
    lambda: RandomForestClassifier(n_estimators=15, max_depth=8),
    lambda: GradientBoostingClassifier(n_estimators=15),
    lambda: GaussianNB(),
    lambda: KNeighborsClassifier(n_neighbors=7),
]

REGRESSORS = [
    lambda: LinearRegression(),
    lambda: Ridge(alpha=0.1),
    lambda: DecisionTreeRegressor(max_depth=8),
    lambda: RandomForestRegressor(n_estimators=15, max_depth=10),
    lambda: GradientBoostingRegressor(n_estimators=40),
    lambda: KNeighborsRegressor(n_neighbors=7),
]


class TestClassifiers:
    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_binary_accuracy(self, factory, clf_data):
        X_tr, y_tr, X_te, y_te = clf_data
        model = factory().fit(X_tr, y_tr)
        assert accuracy_score(y_te, model.predict(X_te)) > 0.85

    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_multiclass_accuracy(self, factory, multi_data):
        X_tr, y_tr, X_te, y_te = multi_data
        model = factory().fit(X_tr, y_tr)
        assert accuracy_score(y_te, model.predict(X_te)) > 0.7

    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_proba_rows_sum_to_one(self, factory, clf_data):
        X_tr, y_tr, X_te, _ = clf_data
        model = factory().fit(X_tr, y_tr)
        proba = model.predict_proba(X_te)
        assert proba.shape == (X_te.shape[0], 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("factory", CLASSIFIERS)
    def test_classes_sorted(self, factory, clf_data):
        X_tr, y_tr, _, _ = clf_data
        model = factory().fit(X_tr, y_tr)
        assert model.classes_ == ["neg", "pos"]

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_nan_rejected(self, clf_data):
        X_tr, y_tr, _, _ = clf_data
        X_bad = X_tr.copy()
        X_bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            DecisionTreeClassifier().fit(X_bad, y_tr)

    def test_single_class_logreg_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((5, 2)), ["a"] * 5)

    def test_score_is_accuracy(self, clf_data):
        X_tr, y_tr, X_te, y_te = clf_data
        model = GaussianNB().fit(X_tr, y_tr)
        assert model.score(X_te, y_te) == accuracy_score(y_te, model.predict(X_te))


class TestRegressors:
    @pytest.mark.parametrize("factory", REGRESSORS)
    def test_r2(self, factory, reg_data):
        X_tr, y_tr, X_te, y_te = reg_data
        model = factory().fit(X_tr, y_tr)
        assert r2_score(y_te, model.predict(X_te)) > 0.7

    def test_linear_recovers_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2))
        y = 3 * X[:, 0] - 2 * X[:, 1] + 5
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.coef_, [3, -2], atol=1e-8)
        assert model.intercept_ == pytest.approx(5.0)

    def test_ridge_shrinks_towards_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        y = 3 * X[:, 0]
        loose = Ridge(alpha=0.001).fit(X, y)
        tight = Ridge(alpha=1000.0).fit(X, y)
        assert abs(tight.coef_[0]) < abs(loose.coef_[0])

    def test_ridge_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Ridge(alpha=-1)

    def test_tree_depth_limit_respected(self, reg_data):
        X_tr, y_tr, _, _ = reg_data
        tree = DecisionTreeRegressor(max_depth=2).fit(X_tr, y_tr)
        assert tree.depth_ <= 2

    def test_tree_min_samples_leaf(self, reg_data):
        X_tr, y_tr, _, _ = reg_data
        deep = DecisionTreeRegressor(min_samples_leaf=1).fit(X_tr, y_tr)
        shallow = DecisionTreeRegressor(min_samples_leaf=50).fit(X_tr, y_tr)
        assert shallow.n_leaves_ < deep.n_leaves_

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(50, 2.5))
        assert tree.n_leaves_ == 1
        assert tree.predict(X[:3]).tolist() == [2.5] * 3


class TestEnsembles:
    def test_forest_beats_single_tree_on_noise(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 8))
        y = (X[:, 0] + X[:, 1] + 0.8 * rng.normal(size=500) > 0)
        y = np.where(y, "a", "b").astype(object)
        X_tr, y_tr, X_te, y_te = X[:350], y[:350], X[350:], y[350:]
        tree = DecisionTreeClassifier(random_state=0).fit(X_tr, y_tr)
        forest = RandomForestClassifier(n_estimators=30, random_state=0).fit(X_tr, y_tr)
        assert forest.score(X_te, y_te) >= tree.score(X_te, y_te) - 0.02

    def test_forest_deterministic_given_seed(self, clf_data):
        X_tr, y_tr, X_te, _ = clf_data
        a = RandomForestClassifier(n_estimators=5, random_state=7).fit(X_tr, y_tr)
        b = RandomForestClassifier(n_estimators=5, random_state=7).fit(X_tr, y_tr)
        assert (a.predict_proba(X_te) == b.predict_proba(X_te)).all()

    def test_forest_n_estimators_validated(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_boosting_improves_with_rounds(self, reg_data):
        X_tr, y_tr, X_te, y_te = reg_data
        weak = GradientBoostingRegressor(n_estimators=2).fit(X_tr, y_tr)
        strong = GradientBoostingRegressor(n_estimators=60).fit(X_tr, y_tr)
        assert strong.score(X_te, y_te) > weak.score(X_te, y_te)

    def test_boosting_subsample_validated(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_boosting_classifier_decision_function_shape(self, multi_data):
        X_tr, y_tr, X_te, _ = multi_data
        model = GradientBoostingClassifier(n_estimators=5).fit(X_tr, y_tr)
        assert model.decision_function(X_te).shape == (X_te.shape[0], 3)


class TestTabPFNProxy:
    def test_small_data_works(self, clf_data):
        X_tr, y_tr, X_te, y_te = clf_data
        model = TabPFNProxy().fit(X_tr, y_tr)
        assert accuracy_score(y_te, model.predict(X_te)) > 0.8

    def test_too_many_samples_oom(self):
        X = np.zeros((1001, 2))
        y = np.array(["a", "b"] * 500 + ["a"], dtype=object)
        with pytest.raises(MemoryError, match="samples"):
            TabPFNProxy().fit(X, y)

    def test_too_many_features_oom(self):
        X = np.zeros((10, 101))
        with pytest.raises(MemoryError, match="features"):
            TabPFNProxy().fit(X, ["a", "b"] * 5)

    def test_too_many_classes_oom(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = np.array([f"c{i % 11}" for i in range(100)], dtype=object)
        with pytest.raises(MemoryError, match="classes"):
            TabPFNProxy().fit(X, y)


class TestCloneAndParams:
    def test_clone_unfitted_copy(self):
        model = RandomForestClassifier(n_estimators=3, random_state=5)
        dup = clone(model)
        assert dup.get_params() == model.get_params()
        with pytest.raises(NotFittedError):
            dup.predict(np.zeros((1, 1)))

    def test_set_params_validates(self):
        with pytest.raises(ValueError):
            Ridge().set_params(bogus=1)

    def test_repr_contains_params(self):
        assert "alpha=2.0" in repr(Ridge(alpha=2.0))


class TestFeatureImportances:
    def test_classifier_finds_signal_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 6))
        y = np.where(X[:, 4] > 0, "a", "b")
        forest = RandomForestClassifier(n_estimators=12, max_depth=6).fit(X, y)
        importances = forest.feature_importances_
        assert importances.argmax() == 4
        assert importances.sum() == pytest.approx(1.0)

    def test_regressor_importances(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 4))
        y = 5 * X[:, 1] + 0.1 * rng.normal(size=300)
        forest = RandomForestRegressor(n_estimators=10, max_depth=6).fit(X, y)
        assert forest.feature_importances_.argmax() == 1

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        y = np.where(X[:, 0] > 0, "p", "n")
        forest = RandomForestClassifier(n_estimators=5, max_depth=4).fit(X, y)
        assert (forest.feature_importances_ >= 0).all()
