"""Seeded KMV (k-minimum-values) distinct-count sketch with exact mode.

KMV keeps the ``k`` smallest 64-bit hashes of the values seen; with
``U_k`` the k-th smallest hash normalized to (0, 1], the distinct count
is estimated as ``(k - 1) / U_k`` (relative error ~ ``1/sqrt(k - 2)``).
Below ``exact_threshold`` distinct values the sketch stays *exact*: it
stores every distinct value together with the smallest row index it was
seen at, which both makes the count exact and preserves the batch
profiler's first-seen distinct ordering (categorical sample lists).

The merge is a set union followed by a bottom-k prune — associative,
commutative, and independent of chunk/shard grouping by construction.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.sketch.base import SketchConfig, encode_value, hash64_many
from repro.table.column import factorize

__all__ = ["KMVSketch"]

_HASH_SPACE = float(1 << 64)


class KMVSketch:
    """Mergeable distinct-count summary over one stream of values."""

    __slots__ = ("k", "exact_threshold", "key", "_exact", "_hashes")

    def __init__(
        self,
        k: int = 1024,
        exact_threshold: int | None = None,
        key: int = 0,
    ) -> None:
        if k < 2:
            raise ValueError("KMV needs k >= 2")
        self.k = k
        self.exact_threshold = (
            exact_threshold if exact_threshold is not None else max(k, 1)
        )
        self.key = key
        # exact mode: encoding -> (first_row, value); sketch mode: None
        self._exact: dict[bytes, tuple[int, Any]] | None = {}
        self._hashes: set[int] = set()

    @classmethod
    def from_config(cls, config: SketchConfig, key: int = 0) -> "KMVSketch":
        return cls(k=config.kmv_k, exact_threshold=config.exact_threshold, key=key)

    # -- properties ------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._exact is not None

    # -- updates ---------------------------------------------------------------

    def update(self, values: Iterable[Any], rows: Iterable[int] | None = None) -> None:
        """Fold values (with their global row indices) into the summary."""
        values = list(values)
        if not values:
            return
        encodings, codes = _encode_distinct(values)
        if self._exact is None:
            # hash once per distinct encoding — the set union is the same
            self._hashes.update(hash64_many(self.key, encodings).tolist())
            self._prune(soft=True)
            return
        if rows is None:
            rows_arr = np.arange(len(values), dtype=np.int64)
        else:
            rows_arr = np.fromiter(
                rows, dtype=np.int64, count=len(values)
            )
        # per distinct encoding: the cell at its smallest row (seed keeps
        # the first-seen value for each encoding)
        order = np.argsort(rows_arr, kind="stable")
        _, first_pos = np.unique(codes[order], return_index=True)
        exact = self._exact
        for j, encoded in enumerate(encodings):
            cell = int(order[first_pos[j]])
            row = int(rows_arr[cell])
            seen = exact.get(encoded)
            if seen is None or row < seen[0]:
                exact[encoded] = (row, values[cell])
        if len(exact) > self.exact_threshold:
            self._degrade()

    def _degrade(self) -> None:
        """Exact -> sketch: hash every stored encoding, drop the values."""
        assert self._exact is not None
        self._hashes.update(
            hash64_many(self.key, list(self._exact)).tolist()
        )
        self._exact = None
        self._prune(soft=True)

    def _prune(self, soft: bool = False) -> None:
        """Keep only the k smallest hashes (lazily when ``soft``)."""
        limit = 4 * self.k if soft else self.k
        if len(self._hashes) > limit:
            self._hashes = set(sorted(self._hashes)[: self.k])

    # -- merge -----------------------------------------------------------------

    def merge(self, other: "KMVSketch") -> "KMVSketch":
        if (self.k, self.exact_threshold, self.key) != (
            other.k,
            other.exact_threshold,
            other.key,
        ):
            raise ValueError("cannot merge KMV sketches with different configs")
        if self._exact is not None and other._exact is not None:
            for encoded, (row, value) in other._exact.items():
                seen = self._exact.get(encoded)
                if seen is None or row < seen[0]:
                    self._exact[encoded] = (row, value)
            if len(self._exact) > self.exact_threshold:
                self._degrade()
            return self
        if self._exact is not None:
            self._degrade()
        if other._exact is not None:
            self._hashes.update(
                hash64_many(self.key, list(other._exact)).tolist()
            )
        else:
            self._hashes.update(other._hashes)
        self._prune(soft=True)
        return self

    def copy(self) -> "KMVSketch":
        clone = KMVSketch(self.k, self.exact_threshold, self.key)
        clone._exact = dict(self._exact) if self._exact is not None else None
        clone._hashes = set(self._hashes)
        return clone

    # -- queries ---------------------------------------------------------------

    def estimate(self) -> int:
        """Distinct count — exact in exact mode, KMV estimate otherwise."""
        if self._exact is not None:
            return len(self._exact)
        self._prune()
        n = len(self._hashes)
        if n < self.k:
            return n
        kth = max(self._hashes) + 1  # normalize to (0, 1]
        return int(round((self.k - 1) / (kth / _HASH_SPACE)))

    def distinct_values(self) -> list[Any] | None:
        """Distinct values in first-seen row order; ``None`` once degraded."""
        if self._exact is None:
            return None
        return [value for _, value in sorted(
            self._exact.values(), key=lambda rv: rv[0]
        )]

    def canonical_state(self) -> tuple:
        """Hashable state for order-invariance assertions in tests."""
        if self._exact is not None:
            return ("exact", tuple(sorted(
                (row, encoded) for encoded, (row, _) in self._exact.items()
            )))
        self._prune()
        return ("sketch", tuple(sorted(self._hashes)))

    def __repr__(self) -> str:
        mode = "exact" if self._exact is not None else "kmv"
        return f"KMVSketch(k={self.k}, mode={mode}, estimate={self.estimate()})"


def _encode_distinct(values: list) -> tuple[list[bytes], np.ndarray]:
    """Distinct :func:`encode_value` encodings + a code per cell.

    Merges values whose *encodings* coincide (``1`` and ``"1"`` both
    encode as ``b"\\x01" + b"1"``), so the result is exactly the per-cell
    encoding stream, deduplicated.  Cells :func:`factorize` cannot key
    are encoded one by one.
    """
    distinct, codes = factorize(values) or (values, np.arange(len(values)))
    by_encoding: dict[bytes, int] = {}
    remap = np.empty(len(distinct), dtype=np.int64)
    encodings: list[bytes] = []
    for t_code, value in enumerate(distinct):
        data = encode_value(value)
        final = by_encoding.get(data)
        if final is None:
            final = by_encoding[data] = len(encodings)
            encodings.append(data)
        remap[t_code] = final
    return encodings, remap[codes]
