"""Unit tests for repro.ml.preprocessing."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.preprocessing import (
    FeatureHasher,
    KHotEncoder,
    LabelEncoder,
    MinMaxScaler,
    OneHotEncoder,
    OrdinalEncoder,
    QuantileClipper,
    RobustScaler,
    SimpleImputer,
    StandardScaler,
)


class TestSimpleImputer:
    def test_mean(self):
        X = np.array([[1.0], [np.nan], [3.0]])
        out = SimpleImputer("mean").fit_transform(X)
        assert out[1, 0] == 2.0

    def test_median(self):
        X = np.array([[1.0], [np.nan], [3.0], [100.0]])
        out = SimpleImputer("median").fit_transform(X)
        assert out[1, 0] == 3.0

    def test_most_frequent(self):
        X = np.array([["a"], [None], ["a"], ["b"]], dtype=object)
        out = SimpleImputer("most_frequent").fit_transform(X)
        assert out[1, 0] == "a"

    def test_constant(self):
        X = np.array([[None]], dtype=object)
        out = SimpleImputer("constant", fill_value="zz").fit_transform(X)
        assert out[0, 0] == "zz"

    def test_all_missing_column_imputes_zero(self):
        X = np.array([[np.nan], [np.nan]])
        out = SimpleImputer("mean").fit_transform(X)
        assert (out == 0.0).all()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            SimpleImputer("magic")

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            SimpleImputer().transform(np.zeros((1, 1)))

    def test_fit_stats_applied_to_new_data(self):
        imp = SimpleImputer("mean").fit(np.array([[0.0], [10.0]]))
        out = imp.transform(np.array([[np.nan]]))
        assert out[0, 0] == 5.0


class TestScalers:
    def test_standard_zero_mean_unit_std(self):
        X = np.array([[1.0], [3.0]])
        out = StandardScaler().fit_transform(X)
        assert out.mean() == pytest.approx(0.0)
        assert out.std() == pytest.approx(1.0)

    def test_standard_constant_column_passthrough(self):
        X = np.full((3, 1), 7.0)
        out = StandardScaler().fit_transform(X)
        assert (out == 0.0).all()

    def test_minmax_range(self):
        X = np.array([[0.0], [10.0]])
        out = MinMaxScaler().fit_transform(X)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_minmax_custom_range(self):
        out = MinMaxScaler((-1, 1)).fit_transform(np.array([[0.0], [10.0]]))
        assert out.min() == -1.0 and out.max() == 1.0

    def test_robust_uses_median(self):
        X = np.array([[1.0], [2.0], [3.0], [1000.0]])
        out = RobustScaler().fit_transform(X)
        # the median row maps near zero despite the huge outlier
        assert abs(out[1, 0]) < 1.0

    def test_quantile_clipper_bounds(self):
        X = np.linspace(0, 100, 101).reshape(-1, 1)
        out = QuantileClipper(0.05, 0.95).fit_transform(X)
        assert out.min() >= 4.9 and out.max() <= 95.1

    def test_quantile_clipper_validates(self):
        with pytest.raises(ValueError):
            QuantileClipper(0.9, 0.1)


class TestLabelEncoder:
    def test_roundtrip(self):
        enc = LabelEncoder().fit(["b", "a", "b"])
        codes = enc.transform(["a", "b"])
        assert codes.tolist() == [0, 1]
        assert enc.inverse_transform(codes) == ["a", "b"]

    def test_unseen_label_raises(self):
        enc = LabelEncoder().fit(["a"])
        with pytest.raises(ValueError, match="unseen"):
            enc.transform(["b"])


class TestOrdinalEncoder:
    def test_codes(self):
        X = np.array([["a"], ["b"], ["a"]], dtype=object)
        out = OrdinalEncoder().fit_transform(X)
        assert out[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_unknown_is_minus_one(self):
        enc = OrdinalEncoder().fit(np.array([["a"]], dtype=object))
        out = enc.transform(np.array([["zz"]], dtype=object))
        assert out[0, 0] == -1.0

    def test_missing_is_minus_one(self):
        enc = OrdinalEncoder().fit(np.array([["a"]], dtype=object))
        assert enc.transform(np.array([[None]], dtype=object))[0, 0] == -1.0


class TestOneHotEncoder:
    def test_basic_width(self):
        X = np.array([["a"], ["b"], ["a"]], dtype=object)
        out = OneHotEncoder().fit_transform(X)
        assert out.shape == (3, 2)
        assert out.sum(axis=1).tolist() == [1.0, 1.0, 1.0]

    def test_unknown_encodes_all_zero(self):
        enc = OneHotEncoder().fit(np.array([["a"]], dtype=object))
        out = enc.transform(np.array([["zz"]], dtype=object))
        assert out.sum() == 0.0

    def test_missing_encodes_all_zero(self):
        enc = OneHotEncoder().fit(np.array([["a"]], dtype=object))
        assert enc.transform(np.array([[None]], dtype=object)).sum() == 0.0

    def test_max_categories_other_bucket(self):
        X = np.array([[v] for v in ["a"] * 5 + ["b"] * 3 + ["c", "d"]], dtype=object)
        enc = OneHotEncoder(max_categories=2).fit(X)
        assert enc.categories_[0] == ["a", "b", OneHotEncoder.OTHER]
        out = enc.transform(np.array([["c"]], dtype=object))
        assert out[0, 2] == 1.0

    def test_feature_names(self):
        enc = OneHotEncoder().fit(np.array([["a"], ["b"]], dtype=object))
        assert enc.feature_names(["col"]) == ["col=a", "col=b"]

    def test_multicolumn(self):
        X = np.array([["a", "x"], ["b", "y"]], dtype=object)
        out = OneHotEncoder().fit_transform(X)
        assert out.shape == (2, 4)


class TestKHotEncoder:
    def test_delimited_strings(self):
        col = ["Python, Java", "Java", "C++, Python"]
        enc = KHotEncoder().fit(col)
        out = enc.transform(col)
        assert out.shape == (3, 3)
        assert set(enc.items_) == {"Python", "Java", "C++"}
        # row 0 has Python and Java
        assert out[0].sum() == 2.0

    def test_list_cells(self):
        enc = KHotEncoder().fit([["a", "b"], ["b"]])
        assert set(enc.items_) == {"a", "b"}

    def test_equal_length_list_cells(self):
        # a list of equal-length lists is one column of list cells, not a
        # 2-D array; single-item lists are cells too, not scalars
        enc = KHotEncoder().fit([["a", "b"], ["c", "d"]])
        assert set(enc.items_) == {"a", "b", "c", "d"}
        out = enc.transform([["a", "b"], ["c", "d"]])
        assert out.shape == (2, 4) and out.sum(axis=1).tolist() == [2.0, 2.0]
        single = KHotEncoder().fit([["a"], ["b"]])
        assert single.transform([["a"], ["b"]]).tolist() == (
            single.transform(["a", "b"]).tolist()
        )
        assert single.transform(np.array([["a"], ["b"]], dtype=object)).shape == (2, 2)

    def test_unknown_items_ignored(self):
        enc = KHotEncoder().fit(["a"])
        assert enc.transform(["zz"]).sum() == 0.0

    def test_max_items_caps_vocabulary(self):
        enc = KHotEncoder(max_items=1).fit(["a,b", "a,c", "a"])
        assert enc.items_ == ["a"]

    def test_missing_cell_is_zero_row(self):
        enc = KHotEncoder().fit(["a", None])
        assert enc.transform([None]).sum() == 0.0

    def test_list_cells_transform_like_delimited_strings(self):
        # list cells cannot be factorized: the per-cell path must agree
        enc = KHotEncoder().fit(["a, b", "b, c"])
        lists = enc.transform(np.array([["a", "b"], ["c"], None], dtype=object))
        strings = enc.transform(["a, b", "c", None])
        assert (lists == strings).all()

    def test_signed_zero_cells_parse_apart(self):
        # 0.0 == -0.0, but "-0.0" is its own item: a -0.0 cell after a
        # 0.0 cell must still encode as "-0.0"
        enc = KHotEncoder().fit(["-0.0", "0.0"])
        mixed = enc.transform([0.0, -0.0])
        assert (mixed[1] == enc.transform([-0.0])[0]).all()
        assert (mixed[0] == enc.transform([0.0])[0]).all()
        assert not (mixed[0] == mixed[1]).all()


class TestFeatureHasher:
    def test_deterministic(self):
        h = FeatureHasher(8).fit([])
        a = h.transform(["hello", "world"])
        b = h.transform(["hello", "world"])
        assert (a == b).all()

    def test_output_width(self):
        h = FeatureHasher(4).fit([])
        assert h.transform(["x"]).shape == (1, 4)

    def test_missing_is_zero(self):
        h = FeatureHasher(4).fit([])
        assert h.transform([None]).sum() == 0.0

    def test_n_features_validated(self):
        with pytest.raises(ValueError):
            FeatureHasher(0)

    def test_signed_zero_hashes_its_own_rendering(self):
        # a -0.0 cell hashes str(-0.0) even when a 0.0 cell came first
        h = FeatureHasher(16).fit([])
        mixed = h.transform([0.0, -0.0])
        assert (mixed[1] == h.transform([-0.0])[0]).all()
        assert (mixed[0] == h.transform([0.0])[0]).all()

    def test_cross_type_equal_cells_hash_their_own_rendering(self):
        # True == 1 == 1.0 share a dict slot but render differently
        h = FeatureHasher(64).fit([])
        cells = [1, True, 1.0, np.int64(1), "1"]
        mixed = h.transform(cells)
        for i, cell in enumerate(cells):
            assert (mixed[i] == h.transform([cell])[0]).all()
