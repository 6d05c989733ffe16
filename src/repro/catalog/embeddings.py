"""Column embeddings and the dependency metadata derived from them.

The paper sidesteps expensive exact dependency discovery: "We create column
embeddings (i.e., vectors of length 300) and use these embeddings to
extract metadata like inclusion dependencies, similarities, and column
correlations ... faster processing (a few seconds) with minor degradation
in accuracy" (Section 3.1).  This module implements that shortcut:

- a deterministic 300-dim hashed bag-of-values embedding per column,
- cosine similarity between columns,
- approximate inclusion dependencies via hashed value-set containment,
- target correlations (Pearson for numeric pairs, correlation-ratio for
  categorical-vs-numeric, Cramér's V for categorical pairs).

The pair-level metadata goes through the content-fingerprint
:class:`~repro.catalog.cache.ProfileCache`: embeddings and value-hash
sets are computed once per distinct column content (not once per call or
per pair) and the all-pairs cosine similarity is a single matmul over the
stacked embedding matrix instead of an O(n²) Python loop.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.sketch.accumulators import canonical_token
from repro.table.column import _IS_NONE, Column, ColumnKind
from repro.table.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.cache import ProfileCache

__all__ = [
    "EMBEDDING_DIM",
    "column_embedding",
    "cosine_similarity",
    "inclusion_coefficient",
    "column_correlation",
    "pairwise_similarities",
    "find_inclusion_dependencies",
    "similarities_from_vectors",
    "inclusions_from_hash_sets",
]


def _resolve_cache(cache: "ProfileCache | None") -> "ProfileCache":
    """``None`` -> the process-wide default cache."""
    if cache is None:
        from repro.catalog.cache import get_default_cache

        return get_default_cache()
    return cache


EMBEDDING_DIM = 300

EMBED_SAMPLE_CAP = 2000
HASH_SAMPLE_CAP = 5000


def _column_token_stats(
    column: Column,
    embed_cap: int = EMBED_SAMPLE_CAP,
    hash_cap: int = HASH_SAMPLE_CAP,
) -> list[tuple[int, int, float, int]]:
    """One pass feeding both the embedding and the value-hash set.

    Returns, per admitted *distinct* canonical token in first-seen order,
    the tuple ``(count_within_first_embed_cap_values, bucket_index, sign,
    hash12)``.  Admission follows a scan over the present cells: every
    token in the first ``embed_cap`` cells is counted, and the scan stops
    at the first position at or past that window where the distinct-token
    count has reached ``hash_cap``; the token at that position is still
    admitted (with count 0 if it is new).

    The cells are deduplicated by storage slot (the float value, or the
    pool code of a dictionary-encoded column) with one ``np.unique``, so
    each slot is canonicalized once, in first-seen order, up to the stop,
    and each distinct token costs one md5.
    """
    if column.codes is None:
        cells = column.data[~column.missing]
    else:
        codes = column.codes
        cells = codes[codes >= 0]
        if cells.size:  # a pool value None (explicit from_numpy mask) is absent
            is_none = _IS_NONE(column.pool).astype(bool)
            if is_none.any():
                cells = cells[~is_none[cells]]
    if not cells.size:
        return []
    slots, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    values = slots[seen] if column.codes is None else column.pool[slots[seen]]
    window_counts = np.bincount(inverse[:embed_cap], minlength=slots.size)[seen]
    counts: dict[str, int] = {}
    for position, count, token in zip(
        first[seen].tolist(),
        window_counts.tolist(),
        map(canonical_token, values.tolist()),
    ):
        if position > embed_cap and len(counts) >= hash_cap:
            break  # the scan stopped at an earlier position past the window
        counts[token] = counts.get(token, 0) + count
    return _stats_from_counts(counts.items())


def _stats_from_counts(
    token_counts: "Sequence[tuple[str, int]] | Any",
) -> list[tuple[int, int, float, int]]:
    stats: list[tuple[int, int, float, int]] = []
    for token, count in token_counts:
        digest = hashlib.md5(token.encode("utf-8")).hexdigest()
        index = int(digest[:8], 16) % EMBEDDING_DIM
        sign = 1.0 if int(digest[8], 16) % 2 == 0 else -1.0
        stats.append((count, index, sign, int(digest[:12], 16)))
    return stats


def _embedding_from_stats(stats: list[tuple[int, int, float, int]]) -> np.ndarray:
    vec = np.zeros(EMBEDDING_DIM, dtype=np.float64)
    for count, index, sign, _ in stats:
        if count:
            vec[index] += sign * count
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def _hash_set_from_stats(stats: list[tuple[int, int, float, int]]) -> set[int]:
    hashes: set[int] = set()
    for _, _, _, hash12 in stats:
        hashes.add(hash12)
        if len(hashes) >= HASH_SAMPLE_CAP:
            break
    return hashes


def column_embedding(column: Column) -> np.ndarray:
    """Hashed bag-of-values embedding (L2-normalized, 300-dim)."""
    return _embedding_from_stats(_column_token_stats(column, hash_cap=0))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def inclusion_coefficient(
    candidate: Column,
    reference: Column,
    cache: "ProfileCache | None" = None,
) -> float:
    """Fraction of ``candidate``'s distinct values contained in ``reference``.

    1.0 means candidate ⊆ reference (an inclusion dependency, i.e. a
    likely foreign key).  Computed on hashed value sets, so collisions can
    inflate the estimate marginally — the documented accuracy trade-off.
    """
    resolved = _resolve_cache(cache)
    cand = resolved.hash_set(candidate)
    ref = resolved.hash_set(reference)
    if not cand:
        return 0.0
    return len(cand & ref) / len(cand)


def column_correlation(a: Column, b: Column) -> float:
    """Association strength in [0, 1] between two columns.

    Numeric-numeric: |Pearson r|.  Categorical-numeric: correlation ratio
    (eta).  Categorical-categorical: Cramér's V.  Rows missing in either
    column are dropped pairwise.
    """
    keep = ~(a.missing | b.missing)
    if int(keep.sum()) < 3:
        return 0.0
    a_numeric = a.kind is ColumnKind.NUMERIC
    b_numeric = b.kind is ColumnKind.NUMERIC
    if a_numeric and b_numeric:
        return _abs_pearson(
            a.data[keep].astype(np.float64), b.data[keep].astype(np.float64)
        )
    if a_numeric != b_numeric:
        if a_numeric:
            return _correlation_ratio(
                b.data[keep].tolist(), a.data[keep].astype(np.float64)
            )
        return _correlation_ratio(
            a.data[keep].tolist(), b.data[keep].astype(np.float64)
        )
    return _cramers_v(a.data[keep].tolist(), b.data[keep].tolist())


def _abs_pearson(x: np.ndarray, y: np.ndarray) -> float:
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(abs(np.corrcoef(x, y)[0, 1]))


def _correlation_ratio(categories: Sequence[Any], values: np.ndarray) -> float:
    groups: dict[Any, list[float]] = {}
    for cat, val in zip(categories, values):
        groups.setdefault(cat, []).append(float(val))
    grand_mean = float(values.mean())
    ss_between = sum(
        len(g) * (np.mean(g) - grand_mean) ** 2 for g in groups.values()
    )
    ss_total = float(np.sum((values - grand_mean) ** 2))
    if ss_total == 0.0:
        return 0.0
    return float(np.sqrt(ss_between / ss_total))


def _cramers_v(a_vals: Sequence[Any], b_vals: Sequence[Any]) -> float:
    a_levels = {v: i for i, v in enumerate(dict.fromkeys(a_vals))}
    b_levels = {v: i for i, v in enumerate(dict.fromkeys(b_vals))}
    if len(a_levels) < 2 or len(b_levels) < 2:
        return 0.0
    table = np.zeros((len(a_levels), len(b_levels)), dtype=np.float64)
    for av, bv in zip(a_vals, b_vals):
        table[a_levels[av], b_levels[bv]] += 1
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(
            np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
        )
    k = min(len(a_levels), len(b_levels))
    return float(np.sqrt(chi2 / (n * (k - 1))))


def similarities_from_vectors(
    names: Sequence[str],
    vectors: Sequence[np.ndarray],
    threshold: float = 0.5,
) -> dict[str, list[tuple[str, float]]]:
    """Similarity lists from precomputed embeddings (batch or streaming)."""
    result: dict[str, list[tuple[str, float]]] = {name: [] for name in names}
    if not names:
        return result
    stacked = np.stack(list(vectors))
    sims = stacked @ stacked.T
    rows, cols = np.nonzero(np.triu(sims >= threshold, k=1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        sim = round(float(sims[i, j]), 4)
        result[names[i]].append((names[j], sim))
        result[names[j]].append((names[i], sim))
    return result


def pairwise_similarities(
    table: Table,
    threshold: float = 0.5,
    cache: "ProfileCache | None" = None,
) -> dict[str, list[tuple[str, float]]]:
    """Per-column list of (other column, cosine similarity) above threshold."""
    resolved = _resolve_cache(cache)
    names = table.column_names
    vectors = [resolved.embedding(table[name]) for name in names]
    return similarities_from_vectors(names, vectors, threshold=threshold)


def inclusions_from_hash_sets(
    names: Sequence[str],
    hash_sets: "dict[str, set[int]]",
    threshold: float = 0.95,
) -> dict[str, list[str]]:
    """Inclusion lists from precomputed value-hash sets."""
    result: dict[str, list[str]] = {name: [] for name in names}
    # sorted int64 arrays turn the O(n²) set intersections into C merges
    arrays = {
        name: np.sort(np.fromiter(hs, dtype=np.int64, count=len(hs)))
        for name, hs in hash_sets.items()
    }
    for a in names:
        size_a = len(arrays[a])
        if not size_a:
            continue
        for b in names:
            size_b = len(arrays[b])
            if a == b or not size_b:
                continue
            if size_b < threshold * size_a:
                continue  # |a ∩ b| <= |b| can never reach the threshold
            overlap = np.intersect1d(
                arrays[a], arrays[b], assume_unique=True
            ).size
            if overlap / size_a >= threshold:
                result[a].append(b)
    return result


def find_inclusion_dependencies(
    table: Table,
    threshold: float = 0.95,
    cache: "ProfileCache | None" = None,
) -> dict[str, list[str]]:
    """Columns whose value set is (approximately) contained in another's."""
    names = table.column_names
    resolved = _resolve_cache(cache)
    hash_sets = {name: resolved.hash_set(table[name]) for name in names}
    return inclusions_from_hash_sets(names, hash_sets, threshold=threshold)
