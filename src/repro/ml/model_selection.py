"""Model selection: splitting, cross-validation, grid / random search."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.ml.base import BaseEstimator, clone

__all__ = [
    "train_test_split",
    "split_for_task",
    "KFold",
    "StratifiedKFold",
    "cross_val_score",
    "GridSearchCV",
    "RandomizedSearchCV",
]


def train_test_split(
    *arrays: Any,
    test_size: float = 0.3,
    random_state: int = 0,
    stratify: Sequence | None = None,
) -> list[Any]:
    """Split arrays/tables into train and test partitions.

    Works on numpy arrays and on :class:`repro.table.Table` (anything with
    ``take``).  Returns ``[a_train, a_test, b_train, b_test, ...]``.
    """
    if not arrays:
        raise ValueError("pass at least one array")
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    n = _length(arrays[0])
    for arr in arrays[1:]:
        if _length(arr) != n:
            raise ValueError("all inputs must have the same length")
    rng = np.random.default_rng(random_state)
    if stratify is not None:
        labels = np.asarray(list(stratify))
        test_idx: list[int] = []
        for label in sorted(set(labels.tolist()), key=str):
            members = np.flatnonzero(labels == label)
            rng.shuffle(members)
            k = int(round(test_size * members.shape[0]))
            test_idx.extend(members[:k].tolist())
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_idx] = True
    else:
        order = rng.permutation(n)
        n_test = max(1, int(round(test_size * n)))
        test_mask = np.zeros(n, dtype=bool)
        test_mask[order[:n_test]] = True
    train_idx = np.flatnonzero(~test_mask)
    test_idx_arr = np.flatnonzero(test_mask)
    out: list[Any] = []
    for arr in arrays:
        out.append(_take(arr, train_idx))
        out.append(_take(arr, test_idx_arr))
    return out


def split_for_task(
    table: Any,
    target: str,
    task_type: str,
    test_size: float = 0.3,
    seed: int = 0,
) -> list[Any]:
    """``[train, test]`` of a dataset table, stratified on the string
    form of ``target`` unless the task is regression (the paper's split)."""
    stratify = None if task_type == "regression" else [str(v) for v in table[target]]
    return train_test_split(table, test_size=test_size, random_state=seed, stratify=stratify)


def _length(arr: Any) -> int:
    if hasattr(arr, "n_rows"):
        return arr.n_rows
    return len(arr)


def _take(arr: Any, idx: np.ndarray) -> Any:
    if hasattr(arr, "take") and not isinstance(arr, np.ndarray):
        return arr.take(idx)
    return np.asarray(arr)[idx]


class KFold:
    """Plain k-fold splitter."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n: int | Sequence) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        if not isinstance(n, int):
            n = _length(n)
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} rows into {self.n_splits} folds")
        indices = np.arange(n)
        if self.shuffle:
            np.random.default_rng(self.random_state).shuffle(indices)
        folds = np.array_split(indices, self.n_splits)
        for k in range(self.n_splits):
            test = folds[k]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != k])
            yield train, test


class StratifiedKFold:
    """Class-balanced k-fold splitter for classification."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, y: Sequence) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        labels = np.asarray(list(y))
        n = labels.shape[0]
        rng = np.random.default_rng(self.random_state)
        per_fold: list[list[int]] = [[] for _ in range(self.n_splits)]
        for label in sorted(set(labels.tolist()), key=str):
            members = np.flatnonzero(labels == label)
            if self.shuffle:
                rng.shuffle(members)
            for i, idx in enumerate(members):
                per_fold[i % self.n_splits].append(int(idx))
        for k in range(self.n_splits):
            test = np.asarray(sorted(per_fold[k]), dtype=np.intp)
            mask = np.ones(n, dtype=bool)
            mask[test] = False
            yield np.flatnonzero(mask), test


def cross_val_score(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: np.ndarray,
    cv: int = 5,
    scoring: Callable[[Sequence, Sequence], float] | None = None,
    random_state: int = 0,
) -> np.ndarray:
    """Fit/score the estimator over k folds; returns per-fold scores."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    is_classifier = getattr(estimator, "_estimator_type", "") == "classifier"
    if is_classifier:
        splitter: Iterable = StratifiedKFold(cv, random_state=random_state).split(y)
    else:
        splitter = KFold(cv, random_state=random_state).split(X.shape[0])
    scores = []
    for train_idx, test_idx in splitter:
        model = clone(estimator)
        model.fit(X[train_idx], y[train_idx])
        if scoring is None:
            scores.append(model.score(X[test_idx], y[test_idx]))
        else:
            scores.append(scoring(y[test_idx], model.predict(X[test_idx])))
    return np.asarray(scores, dtype=np.float64)


def _iter_grid(grid: Mapping[str, Sequence[Any]]) -> Iterable[dict[str, Any]]:
    keys = list(grid)
    if not keys:
        yield {}
        return
    head, *tail = keys
    for value in grid[head]:
        for rest in _iter_grid({k: grid[k] for k in tail}):
            yield {head: value, **rest}


class _BaseSearch(BaseEstimator):
    def __init__(
        self,
        estimator: BaseEstimator,
        cv: int = 3,
        scoring: Callable[[Sequence, Sequence], float] | None = None,
        random_state: int = 0,
    ) -> None:
        self.estimator = estimator
        self.cv = cv
        self.scoring = scoring
        self.random_state = random_state

    def _candidates(self) -> list[dict[str, Any]]:
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseSearch":
        candidates = self._candidates()
        if not candidates:
            raise ValueError("empty parameter search space")
        self.results_: list[tuple[dict[str, Any], float]] = []
        best_score, best_params = -np.inf, None
        for params in candidates:
            model = clone(self.estimator).set_params(**params)
            scores = cross_val_score(
                model, X, y, cv=self.cv, scoring=self.scoring,
                random_state=self.random_state,
            )
            mean_score = float(scores.mean())
            self.results_.append((params, mean_score))
            if mean_score > best_score:
                best_score, best_params = mean_score, params
        self.best_params_ = best_params
        self.best_score_ = best_score
        self.best_estimator_ = clone(self.estimator).set_params(**best_params)
        self.best_estimator_.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict_proba(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        self._check_fitted("best_estimator_")
        return self.best_estimator_.score(X, y)


class GridSearchCV(_BaseSearch):
    """Exhaustive cross-validated grid search."""

    def __init__(
        self,
        estimator: BaseEstimator,
        param_grid: Mapping[str, Sequence[Any]],
        cv: int = 3,
        scoring: Callable[[Sequence, Sequence], float] | None = None,
        random_state: int = 0,
    ) -> None:
        super().__init__(estimator, cv=cv, scoring=scoring, random_state=random_state)
        self.param_grid = dict(param_grid)

    def _candidates(self) -> list[dict[str, Any]]:
        return list(_iter_grid(self.param_grid))


class RandomizedSearchCV(_BaseSearch):
    """Random subsampling of a parameter grid."""

    def __init__(
        self,
        estimator: BaseEstimator,
        param_grid: Mapping[str, Sequence[Any]],
        n_iter: int = 10,
        cv: int = 3,
        scoring: Callable[[Sequence, Sequence], float] | None = None,
        random_state: int = 0,
    ) -> None:
        super().__init__(estimator, cv=cv, scoring=scoring, random_state=random_state)
        self.param_grid = dict(param_grid)
        self.n_iter = n_iter

    def _candidates(self) -> list[dict[str, Any]]:
        everything = list(_iter_grid(self.param_grid))
        if len(everything) <= self.n_iter:
            return everything
        rng = np.random.default_rng(self.random_state)
        picks = rng.choice(len(everything), size=self.n_iter, replace=False)
        return [everything[i] for i in picks]
