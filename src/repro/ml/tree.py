"""CART decision trees (classification via Gini, regression via variance).

Layout.  A fitted tree is a set of parallel node arrays in preorder (a node,
then its left subtree, then its right subtree): ``feature_`` (-1 at a
leaf), ``threshold_``, ``left_`` / ``right_`` (child node ids, -1 at a
leaf), ``gain_`` (impurity decrease of the split), ``n_samples_`` and
``value_`` (class-probability rows for the classifier, means for the
regressor).  Prediction walks all rows down the arrays together, one numpy
step per tree level.

Growth.  The builder keeps an explicit stack of row-position arrays and pops
the left child before the right one, so nodes are created in preorder and
the tree's generator draws one feature pool per splittable node in that
order.  Each node sorts the rows of all sampled features in one 2-D
argsort.  Regression then takes sequential prefix sums of the targets.
Classification takes exact integer class counts at the candidate split
points (run ends that leave ``min_samples_leaf`` rows on each side).  A
small node counts every class at every candidate with one prefix count.  A
larger one first screens the candidates with exact integer sums of squared
counts, keeps the few that can hold the best gain and counts only those, in
fixed-size batches, so temporaries stay O(rows x features) plus one batch
however many classes there are or candidates tie.

Parity.  Fits and predictions are bit-identical to a per-feature recursive
CART over node objects: same generator draws, same stable sort order where
the sums depend on it, same elementwise gain expressions (the class-axis
sum runs over a contiguous last axis), same tie-breaks (the first best
position within a feature, the first best feature in pool order, a split
only on a gain above 0.0) and the same midpoint thresholds.
``tests/test_ml_tree_parity.py`` holds that recursive implementation as its
oracle.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable, Iterator

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_X,
    check_X_y,
)

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

Split = tuple[int, float, float]  # (feature, threshold, gain)

# Classification takes a per-class prefix count at every candidate split
# when a node has at most this many cells (sampled features x positions x
# classes); above it, an exact integer screen first keeps only the
# candidates that can hold the best gain.  Measured crossover on random
# nodes of 20-320 rows, 2-10 features and 2-38 classes: 4k-8k cells.
_DENSE_CELLS = 1 << 12

# Screened candidates are counted in batches of at most this many cells
# (candidates x (rows + classes)), so a node whose candidates tie stays small.
_COUNT_CELLS = 1 << 18


def _pool_size(max_features: Any, n_features: int) -> int | None:
    """Features drawn per split; None means all of them, in order, with no draw."""
    if max_features is None:
        return None
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
    elif isinstance(max_features, numbers.Integral):
        if max_features >= 1:
            return max(1, min(int(max_features), n_features))
    elif isinstance(max_features, numbers.Real):
        if 0.0 < max_features <= 1.0:
            return max(1, int(max_features * n_features))
    raise ValueError(
        "max_features must be None, 'sqrt', 'log2', a float in (0, 1] "
        f"or an int >= 1; got {max_features!r}"
    )


def _label_codes(y: np.ndarray) -> tuple[list, np.ndarray]:
    """Sorted class labels, and each row's class index in the narrowest dtype."""
    classes = sorted(set(y.tolist()), key=str)
    index = {label: i for i, label in enumerate(classes)}
    dtype = np.min_scalar_type(max(len(classes) - 1, 0))
    return classes, np.asarray([index[v] for v in y], dtype=dtype)


def _sorted_columns(
    XT: np.ndarray, rows: np.ndarray, features: np.ndarray, lo: int, hi: int, kind: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-feature row order, sorted values, and the boundary mask.

    ``bound[j, p - lo]`` says sorted position ``p`` of feature ``j`` ends a
    run of equal values, for the positions ``lo..hi`` that leave at least
    ``min_samples_leaf`` rows on each side.
    """
    values = XT[features[:, None], rows]
    order = values.argsort(axis=1, kind=kind)
    values = values[np.arange(features.shape[0])[:, None], order]
    return order, values, values[:, lo : hi + 1] < values[:, lo + 1 : hi + 2]


def _near_best(
    sorted_codes: np.ndarray, counts: np.ndarray, bound: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Column and position of the candidates whose Gini gain may be the best.

    Screens every candidate with exact integers, so no class axis is built:
    moving a row of class c to the left side adds 2 * (its rank among
    earlier class-c rows) + 1 to the sum of squared left counts.  Grouping a
    column's rows by class (stably) lists those ranks in the same order for
    every column.
    """
    k, n = sorted_codes.shape
    rank = np.arange(n) - (counts.cumsum() - counts).repeat(counts)
    occurrence = np.empty((k, n), dtype=np.intp)
    by_class = sorted_codes.argsort(axis=1, kind="stable")  # radix sort on small codes
    occurrence[np.arange(k)[:, None], by_class] = rank
    left_n = np.arange(lo + 1, hi + 2)
    sq_left = 2 * occurrence.cumsum(axis=1)[:, lo : hi + 1] + left_n
    dot_left = counts[sorted_codes].cumsum(axis=1)[:, lo : hi + 1]
    sq_right = int(counts @ counts) - 2 * dot_left + sq_left
    # n * (1 - weighted Gini).  The float gain is within (2 * classes + 10)
    # ulps of this over n (gains are at most 1), so the slack below keeps
    # every candidate that can tie or beat the exact best.
    purity = np.where(bound, sq_left / left_n + sq_right / (n - left_n), -np.inf)
    cols, pos = np.nonzero(purity >= purity.max() - n * (counts.shape[0] + 1) * 1e-12)
    return cols, pos + lo


def _near_counts(
    sorted_codes: np.ndarray, cols: np.ndarray, pos: np.ndarray, n_classes: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exact left class counts of the candidates ``(cols, pos)``, in batches."""
    n = sorted_codes.shape[1]
    step = max(1, _COUNT_CELLS // (n + n_classes))
    for start in range(0, cols.shape[0], step):
        c, p = cols[start : start + step], pos[start : start + step]
        slots = sorted_codes[c] + (np.arange(c.shape[0]) * n_classes)[:, None]
        left = np.bincount(slots[np.arange(n) <= p[:, None]], minlength=c.shape[0] * n_classes)
        yield c, p, left.reshape(-1, n_classes)


def _best_split_classification(
    XT: np.ndarray,
    rows: np.ndarray,
    codes: np.ndarray,
    counts: np.ndarray,
    features: np.ndarray,
    min_samples_leaf: int,
) -> Split | None:
    n = rows.shape[0]
    lo, hi = max(min_samples_leaf - 1, 0), min(n - 1 - min_samples_leaf, n - 2)
    if lo > hi:
        return None
    # Counts at run ends do not depend on the order of tied rows: any sort.
    order, values, bound = _sorted_columns(XT, rows, features, lo, hi, "quicksort")
    if not bound.any():
        return None
    n_classes = counts.shape[0]
    sorted_codes = codes[order]
    if features.shape[0] * (hi + 1) * n_classes <= _DENSE_CELLS:
        cols, pos = np.nonzero(bound)
        pos += lo
        onehot = sorted_codes[:, : hi + 1, None] == np.arange(n_classes)
        batches = [(cols, pos, onehot.cumsum(axis=1)[cols, pos])]
    else:
        cols, pos = _near_best(sorted_codes, counts, bound, lo, hi)
        batches = _near_counts(sorted_codes, cols, pos, n_classes)
    counts_total = counts.astype(np.float64)
    gini_parent = 1.0 - np.sum((counts_total / n) ** 2)
    split, best = None, 0.0
    for cols, pos, left_counts in batches:
        left_counts = left_counts.astype(np.float64)
        left_n = (pos + 1).astype(np.float64)
        right_counts = counts_total - left_counts
        right_n = n - left_n
        gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        gains = gini_parent - weighted
        # Candidates run feature by feature in pool order, positions ascending,
        # so the first maximum is the first best feature's first best
        # position; a later batch wins only with a strictly larger gain.
        i = int(np.argmax(gains))
        if gains[i] > best:
            j, p, best = cols[i], pos[i], gains[i]
            split = int(features[j]), float(0.5 * (values[j, p] + values[j, p + 1])), float(best)
    return split


def _best_split_regression(
    XT: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    total_sum: float,
    features: np.ndarray,
    min_samples_leaf: int,
) -> Split | None:
    n = rows.shape[0]
    lo, hi = max(min_samples_leaf - 1, 0), min(n - 1 - min_samples_leaf, n - 2)
    if lo > hi:
        return None
    total_sq = float((y**2).sum())
    var_parent = total_sq / n - (total_sum / n) ** 2
    if not math.isfinite(var_parent):
        return None  # then every gain is NaN; otherwise every gain is finite
    # Prefix sums depend on the order of tied rows: sort stably (node order).
    order, values, bound = _sorted_columns(XT, rows, features, lo, hi, "stable")
    y_sorted = y[order]
    prefix_sum = y_sorted.cumsum(axis=1)[:, lo : hi + 1]
    prefix_sq = (y_sorted**2).cumsum(axis=1)[:, lo : hi + 1]
    left_n = np.arange(lo + 1, hi + 2, dtype=np.float64)
    right_n = n - left_n
    var_left = prefix_sq / left_n - (prefix_sum / left_n) ** 2
    right_sum = total_sum - prefix_sum
    right_sq = total_sq - prefix_sq
    var_right = right_sq / right_n - (right_sum / right_n) ** 2
    weighted = (left_n * var_left + right_n * var_right) / n
    gains = np.where(bound, var_parent - weighted, -np.inf)
    # Rows run feature by feature in pool order and every gain is finite, so
    # the first maximum is the first best feature's first best position.
    j, p = divmod(int(gains.argmax()), gains.shape[1])
    gain = gains[j, p]
    if not gain > 0.0:
        return None
    p += lo
    return int(features[j]), float(0.5 * (values[j, p] + values[j, p + 1])), float(gain)


class _BaseTree(BaseEstimator):
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

    # The split search of the subclass: (XT, rows, node target, node state,
    # feature pool, min_samples_leaf) -> (feature, threshold, gain) or None.
    _best_split: Callable[..., Split | None]

    def _node(self, target: np.ndarray, can_split: bool) -> tuple[Any, Any]:
        """Leaf payload of a node, and the split-search state (None: a leaf)."""
        raise NotImplementedError

    def _grow(self, XT: np.ndarray, target: np.ndarray, pool: int | None) -> None:
        """Grow the tree on feature-major ``XT`` (features x rows) in preorder."""
        n_features = XT.shape[0]
        rng = np.random.default_rng(self.random_state)
        feature: list[int] = []
        threshold: list[float] = []
        gain: list[float] = []
        left: list[int] = []
        right: list[int] = []
        n_samples: list[int] = []
        values: list[Any] = []
        deepest = 0
        # (rows, depth, parent id when this is a right child, else -1)
        stack = [(np.arange(XT.shape[1]), 0, -1)]
        while stack:
            rows, depth, parent = stack.pop()
            node = len(feature)
            deepest = max(deepest, depth)
            if parent >= 0:
                right[parent] = node
            node_target = target[rows]
            value, state = self._node(
                node_target,
                rows.shape[0] >= self.min_samples_split
                and (self.max_depth is None or depth < self.max_depth),
            )
            values.append(value)
            n_samples.append(rows.shape[0])
            feature.append(-1)
            threshold.append(0.0)
            gain.append(0.0)
            left.append(-1)
            right.append(-1)
            if state is None:
                continue
            if pool is None:
                features = np.arange(n_features)
            else:
                features = rng.choice(n_features, size=pool, replace=False)
            split = self._best_split(
                XT, rows, node_target, state, features, self.min_samples_leaf
            )
            if split is None:
                continue
            feature[node], threshold[node], gain[node] = split
            left[node] = node + 1
            mask = XT[split[0], rows] <= split[1]
            stack.append((rows[~mask], depth + 1, node))
            stack.append((rows[mask], depth + 1, -1))
        self.n_features_ = n_features
        self._depth = deepest
        self.feature_ = np.asarray(feature, dtype=np.intp)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.gain_ = np.asarray(gain, dtype=np.float64)
        self.left_ = np.asarray(left, dtype=np.intp)
        self.right_ = np.asarray(right, dtype=np.intp)
        self.n_samples_ = np.asarray(n_samples, dtype=np.intp)
        self.value_ = self._values(values)

    def _values(self, values: list[Any]) -> np.ndarray:
        raise NotImplementedError

    def _apply(self, X: Any) -> np.ndarray:
        """Leaf id of every row, walking all rows one tree level per step."""
        self._check_fitted("feature_")
        X = check_X(X)
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.arange(X.shape[0]) if self.feature_[0] >= 0 else node[:0]
        while active.shape[0]:
            at = node[active]
            go_left = X[active, self.feature_[at]] <= self.threshold_[at]
            at = np.where(go_left, self.left_[at], self.right_[at])
            node[active] = at
            active = active[self.feature_[at] >= 0]
        return node

    @property
    def depth_(self) -> int:
        self._check_fitted("feature_")
        return self._depth

    @property
    def n_leaves_(self) -> int:
        self._check_fitted("feature_")
        return int(np.count_nonzero(self.feature_ < 0))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalized to sum to 1."""
        self._check_fitted("feature_")
        importances = np.zeros(self.n_features_, dtype=np.float64)
        total = max(1, int(self.n_samples_[0]))
        split = self.feature_ >= 0
        # ufunc.at adds in index order: each feature sums its splits in preorder.
        np.add.at(
            importances,
            self.feature_[split],
            self.gain_[split] * self.n_samples_[split] / total,
        )
        norm = importances.sum()
        return importances / norm if norm > 0 else importances


class DecisionTreeClassifier(_BaseTree, ClassifierMixin):
    """Gini-based CART classifier; leaves store class-probability vectors."""

    _best_split = staticmethod(_best_split_classification)

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        pool = _pool_size(self.max_features, X.shape[1])
        self.classes_, codes = _label_codes(y)
        XT = np.ascontiguousarray(X.T)
        if sample_indices is not None:
            XT, codes = XT[:, sample_indices], codes[sample_indices]
        self._grow(XT, codes, pool)
        return self

    def _node(self, codes: np.ndarray, can_split: bool) -> tuple[np.ndarray, np.ndarray | None]:
        counts = np.bincount(codes, minlength=len(self.classes_))
        return counts, counts if can_split and np.count_nonzero(counts) > 1 else None

    def _values(self, counts: list[np.ndarray]) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.float64).reshape(-1, len(self.classes_))
        # Integer counts: the row sums are exact in any summation order.
        return counts / counts.sum(axis=1, keepdims=True)

    def predict_proba(self, X: Any) -> np.ndarray:
        return self.value_[self._apply(X)]

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)
        picks = np.argmax(proba, axis=1)
        return np.asarray([self.classes_[p] for p in picks], dtype=object)


class DecisionTreeRegressor(_BaseTree, RegressorMixin):
    """Variance-reduction CART regressor; leaves store means."""

    _best_split = staticmethod(_best_split_regression)

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        pool = _pool_size(self.max_features, X.shape[1])
        y = y.astype(np.float64)
        XT = np.ascontiguousarray(X.T)
        if sample_indices is not None:
            XT, y = XT[:, sample_indices], y[sample_indices]
        self._grow(XT, y, pool)
        return self

    def _node(self, y: np.ndarray, can_split: bool) -> tuple[float, float | None]:
        total_sum = y.sum()
        # The mean is that same pairwise sum over the same row order, over n.
        mean = total_sum / y.shape[0]
        return mean, float(total_sum) if can_split and (y != y[0]).any() else None

    def _values(self, means: list[float]) -> np.ndarray:
        return np.asarray(means, dtype=np.float64)

    def predict(self, X: Any) -> np.ndarray:
        return self.value_[self._apply(X)]
