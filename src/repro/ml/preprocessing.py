"""Feature preprocessing transformers.

Covers the primitives the paper's generated pipelines use (see Figure 3 and
Section 3.2): imputation, scaling, outlier clipping, one-hot / ordinal /
k-hot (list features) encoding, and feature hashing.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Sequence

import numpy as np

from repro.ml.base import BaseEstimator, TransformerMixin
from repro.table.column import factorize

__all__ = [
    "SimpleImputer",
    "StandardScaler",
    "MinMaxScaler",
    "RobustScaler",
    "QuantileClipper",
    "LabelEncoder",
    "OrdinalEncoder",
    "OneHotEncoder",
    "KHotEncoder",
    "FeatureHasher",
]


def _as_object_matrix(X: Any) -> np.ndarray:
    arr = np.asarray(X, dtype=object)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D input, got shape {arr.shape}")
    return arr


def _is_missing(value: Any) -> bool:
    if value is None:
        return True
    return isinstance(value, float) and np.isnan(value)


_IS_MISSING_UFUNC = np.frompyfunc(_is_missing, 1, 1)


def _missing_mask(values: np.ndarray) -> np.ndarray:
    return _IS_MISSING_UFUNC(values).astype(bool)


class SimpleImputer(BaseEstimator, TransformerMixin):
    """Column-wise missing value imputation.

    Strategies: ``mean`` / ``median`` (numeric), ``most_frequent`` (any),
    ``constant`` (uses ``fill_value``).  A column that is entirely missing
    at fit time imputes to 0 (numeric) or ``"missing"``.
    """

    def __init__(self, strategy: str = "mean", fill_value: Any = None) -> None:
        if strategy not in ("mean", "median", "most_frequent", "constant"):
            raise ValueError(f"unknown imputation strategy {strategy!r}")
        self.strategy = strategy
        self.fill_value = fill_value

    def fit(self, X: Any, y: Any = None) -> "SimpleImputer":
        if self.strategy in ("mean", "median"):
            X = np.asarray(X, dtype=np.float64)
            if X.ndim == 1:
                X = X.reshape(-1, 1)
            fn = np.nanmean if self.strategy == "mean" else np.nanmedian
            stats = []
            for j in range(X.shape[1]):
                col = X[:, j]
                with np.errstate(all="ignore"):
                    value = fn(col) if not np.isnan(col).all() else 0.0
                stats.append(float(value))
            self.statistics_ = stats
        elif self.strategy == "most_frequent":
            X = _as_object_matrix(X)
            stats = []
            for j in range(X.shape[1]):
                counts: dict[Any, int] = {}
                for value in X[:, j]:
                    if _is_missing(value):
                        continue
                    counts[value] = counts.get(value, 0) + 1
                if counts:
                    stats.append(max(counts.items(), key=lambda kv: (kv[1], str(kv[0])))[0])
                else:
                    stats.append("missing")
            self.statistics_ = stats
        else:
            X = _as_object_matrix(X)
            self.statistics_ = [self.fill_value] * X.shape[1]
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_fitted("statistics_")
        if self.strategy in ("mean", "median"):
            X = np.asarray(X, dtype=np.float64)
            if X.ndim == 1:
                X = X.reshape(-1, 1)
            out = X.copy()
            for j, value in enumerate(self.statistics_):
                col = out[:, j]
                col[np.isnan(col)] = value
            return out
        X = _as_object_matrix(X)
        out = X.copy()
        missing = _missing_mask(out)
        for j, value in enumerate(self.statistics_):
            out[missing[:, j], j] = value
        return out


class StandardScaler(BaseEstimator, TransformerMixin):
    """Zero-mean, unit-variance scaling (constant columns pass through)."""

    def fit(self, X: Any, y: Any = None) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = np.nanmean(X, axis=0)
        std = np.nanstd(X, axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_fitted("mean_")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean_) / self.scale_


class MinMaxScaler(BaseEstimator, TransformerMixin):
    """Scale each feature into ``feature_range`` (default [0, 1])."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)) -> None:
        self.feature_range = feature_range

    def fit(self, X: Any, y: Any = None) -> "MinMaxScaler":
        X = np.asarray(X, dtype=np.float64)
        self.data_min_ = np.nanmin(X, axis=0)
        self.data_max_ = np.nanmax(X, axis=0)
        span = self.data_max_ - self.data_min_
        self.scale_ = np.where(span > 0, span, 1.0)
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_fitted("data_min_")
        X = np.asarray(X, dtype=np.float64)
        lo, hi = self.feature_range
        unit = (X - self.data_min_) / self.scale_
        return unit * (hi - lo) + lo


class RobustScaler(BaseEstimator, TransformerMixin):
    """Median/IQR scaling — robust to the paper's injected outliers."""

    def fit(self, X: Any, y: Any = None) -> "RobustScaler":
        X = np.asarray(X, dtype=np.float64)
        self.center_ = np.nanmedian(X, axis=0)
        q75 = np.nanpercentile(X, 75, axis=0)
        q25 = np.nanpercentile(X, 25, axis=0)
        iqr = q75 - q25
        self.scale_ = np.where(iqr > 0, iqr, 1.0)
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_fitted("center_")
        X = np.asarray(X, dtype=np.float64)
        return (X - self.center_) / self.scale_


class QuantileClipper(BaseEstimator, TransformerMixin):
    """Clip each feature to its fitted [lower, upper] quantiles.

    The standard outlier-handling primitive emitted by the generated
    pipelines (IQR-style winsorization).
    """

    def __init__(self, lower: float = 0.01, upper: float = 0.99) -> None:
        if not 0.0 <= lower < upper <= 1.0:
            raise ValueError("require 0 <= lower < upper <= 1")
        self.lower = lower
        self.upper = upper

    def fit(self, X: Any, y: Any = None) -> "QuantileClipper":
        X = np.asarray(X, dtype=np.float64)
        self.lower_bounds_ = np.nanpercentile(X, self.lower * 100.0, axis=0)
        self.upper_bounds_ = np.nanpercentile(X, self.upper * 100.0, axis=0)
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_fitted("lower_bounds_")
        X = np.asarray(X, dtype=np.float64)
        return np.clip(X, self.lower_bounds_, self.upper_bounds_)


class LabelEncoder(BaseEstimator, TransformerMixin):
    """Encode a 1-D label vector as integers 0..k-1."""

    def fit(self, y: Iterable[Any], _unused: Any = None) -> "LabelEncoder":
        self.classes_ = sorted({v for v in y if not _is_missing(v)}, key=str)
        self._index = {label: i for i, label in enumerate(self.classes_)}
        return self

    def transform(self, y: Iterable[Any]) -> np.ndarray:
        self._check_fitted("classes_")
        values = list(y)
        distinct, codes = factorize(values) or (values, np.arange(len(values)))
        lut = np.empty(len(distinct), dtype=np.int64)
        for i, value in enumerate(distinct):
            code = self._index.get(value)
            if code is None:
                raise ValueError(f"unseen label {value!r}")
            lut[i] = code
        return lut[codes]

    def inverse_transform(self, codes: Iterable[int]) -> list[Any]:
        self._check_fitted("classes_")
        return [self.classes_[int(code)] for code in codes]


class OrdinalEncoder(BaseEstimator, TransformerMixin):
    """Encode 2-D categorical input as integer codes; unknown/missing -> -1."""

    def fit(self, X: Any, y: Any = None) -> "OrdinalEncoder":
        X = _as_object_matrix(X)
        self.categories_ = []
        for j in range(X.shape[1]):
            values = sorted(
                {v for v in X[:, j] if not _is_missing(v)}, key=str
            )
            self.categories_.append(values)
        self._index = [
            {value: i for i, value in enumerate(values)} for values in self.categories_
        ]
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_fitted("categories_")
        X = _as_object_matrix(X)
        out = np.full(X.shape, -1.0, dtype=np.float64)
        for j, index in enumerate(self._index):
            cells = X[:, j].tolist()
            distinct, codes = factorize(cells) or (cells, np.arange(len(cells)))
            lut = np.fromiter(
                (
                    -1.0 if (code := index.get(value)) is None else float(code)
                    for value in distinct
                ),
                dtype=np.float64,
                count=len(distinct),
            )
            out[:, j] = lut[codes]
        return out


class OneHotEncoder(BaseEstimator, TransformerMixin):
    """One-hot encode 2-D categorical input.

    Unknown categories at transform time encode to all-zeros.  With
    ``max_categories`` set, only the most frequent categories get their own
    indicator; the rest share a single ``<other>`` indicator (keeps the
    output width bounded on high-cardinality data, mirroring the paper's
    concern about one-hot blow-up on Yelp).
    """

    OTHER = "<other>"

    def __init__(self, max_categories: int | None = None) -> None:
        self.max_categories = max_categories

    def fit(self, X: Any, y: Any = None) -> "OneHotEncoder":
        X = _as_object_matrix(X)
        self.categories_ = []
        for j in range(X.shape[1]):
            counts: dict[Any, int] = {}
            for value in X[:, j]:
                if _is_missing(value):
                    continue
                counts[value] = counts.get(value, 0) + 1
            ordered = [
                v for v, _c in sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
            ]
            if self.max_categories is not None and len(ordered) > self.max_categories:
                ordered = ordered[: self.max_categories] + [self.OTHER]
            self.categories_.append(ordered)
        self._index = [
            {value: i for i, value in enumerate(values)} for values in self.categories_
        ]
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_fitted("categories_")
        X = _as_object_matrix(X)
        widths = [len(values) for values in self.categories_]
        out = np.zeros((X.shape[0], sum(widths)), dtype=np.float64)
        rows = np.arange(X.shape[0], dtype=np.intp)
        offset = 0
        for j, index in enumerate(self._index):
            has_other = self.categories_[j] and self.categories_[j][-1] == self.OTHER
            cells = X[:, j].tolist()
            distinct, codes = factorize(cells) or (cells, np.arange(len(cells)))
            lut = np.full(len(distinct), -1, dtype=np.int64)
            for pos, value in enumerate(distinct):
                if _is_missing(value):
                    continue
                code = index.get(value)
                if code is None and has_other:
                    code = index[self.OTHER]
                if code is not None:
                    lut[pos] = code
            hits = lut[codes]
            hit = hits >= 0
            out[rows[hit], offset + hits[hit]] = 1.0
            offset += widths[j]
        return out

    def feature_names(self, input_names: Sequence[str] | None = None) -> list[str]:
        self._check_fitted("categories_")
        if input_names is None:
            input_names = [f"x{j}" for j in range(len(self.categories_))]
        names = []
        for name, values in zip(input_names, self.categories_):
            names.extend(f"{name}={value}" for value in values)
        return names


class KHotEncoder(BaseEstimator, TransformerMixin):
    """K-hot encode a single *list* feature.

    Input cells are either lists/tuples of items or delimiter-separated
    strings (e.g. ``"Python, Java"``).  This is the encoding the paper
    applies after detecting a *List* feature type (Section 3.2, Yelp
    example).
    """

    def __init__(self, delimiter: str = ",", max_items: int | None = None) -> None:
        self.delimiter = delimiter
        self.max_items = max_items

    def _items(self, cell: Any) -> list[str]:
        if _is_missing(cell):
            return []
        if isinstance(cell, (list, tuple, set)):
            raw = [str(v) for v in cell]
        else:
            raw = str(cell).split(self.delimiter)
        return [item.strip() for item in raw if item.strip()]

    def fit(self, column: Iterable[Any], y: Any = None) -> "KHotEncoder":
        counts: dict[str, int] = {}
        for cell in _flatten_column(column):
            for item in self._items(cell):
                counts[item] = counts.get(item, 0) + 1
        ordered = [
            v for v, _c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        if self.max_items is not None:
            ordered = ordered[: self.max_items]
        self.items_ = ordered
        self._index = {item: i for i, item in enumerate(ordered)}
        return self

    def transform(self, column: Iterable[Any]) -> np.ndarray:
        self._check_fitted("items_")
        # parse + item lookups once per distinct cell, then gather by code
        cells = list(_flatten_column(column))
        distinct, codes = factorize(cells) or (cells, np.arange(len(cells)))
        lut = np.zeros((len(distinct), len(self.items_)), dtype=np.float64)
        for pos, cell in enumerate(distinct):
            lut[pos, self._item_codes(cell)] = 1.0
        return lut[codes]

    def _item_codes(self, cell: Any) -> list[int]:
        return [
            j for j in map(self._index.get, self._items(cell)) if j is not None
        ]


class FeatureHasher(BaseEstimator, TransformerMixin):
    """Hash string values of one column into ``n_features`` buckets.

    Deterministic (md5-based) so pipelines are reproducible across runs.
    """

    def __init__(self, n_features: int = 16) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_features = n_features

    def fit(self, column: Iterable[Any], y: Any = None) -> "FeatureHasher":
        self.fitted_ = True
        return self

    def transform(self, column: Iterable[Any]) -> np.ndarray:
        self._check_fitted("fitted_")
        cells = list(_flatten_column(column))
        distinct, codes = factorize(cells) or (cells, np.arange(len(cells)))
        out = np.zeros((len(cells), self.n_features), dtype=np.float64)
        # one md5 per distinct value instead of one per cell
        buckets = np.full(len(distinct), -1, dtype=np.int64)
        signs = np.zeros(len(distinct), dtype=np.float64)
        for pos, cell in enumerate(distinct):
            if _is_missing(cell):
                continue
            buckets[pos], signs[pos] = self._hash_cell(cell)
        cell_buckets = buckets[codes]
        present = cell_buckets >= 0
        rows = np.arange(len(cells), dtype=np.intp)
        out[rows[present], cell_buckets[present]] = signs[codes][present]
        return out

    def _hash_cell(self, cell: Any) -> tuple[int, float]:
        digest = hashlib.md5(str(cell).encode("utf-8")).hexdigest()
        bucket = int(digest[:8], 16) % self.n_features
        sign = 1.0 if int(digest[8], 16) % 2 == 0 else -1.0
        return bucket, sign


def _flatten_column(column: Any) -> np.ndarray:
    """The cells of one column as a 1-D object array.

    Only a real ``ndarray`` of shape ``(n, 1)`` is unwrapped.  Any other
    iterable gives one cell per item, so list-valued cells stay whole,
    whether ragged or not (``[["a", "b"], ["c", "d"]]``, ``[["a"], ["b"]]``).
    """
    if not isinstance(column, np.ndarray):
        return np.fromiter(column, dtype=object)
    arr = column.astype(object, copy=False)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError("expected a single column")
    return arr
