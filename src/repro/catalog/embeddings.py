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
per pair).  Everything past the one md5 per distinct token is array work:
the digest fields are read from one buffer, the embedding is one
``np.bincount``, the all-pairs cosine similarity is a single matmul over
the stacked embedding matrix, and the all-pairs inclusion overlaps are one
batched product of a column x shared-hash incidence matrix.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence

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


class TokenDigests(NamedTuple):
    """Per distinct canonical token, four aligned arrays in first-seen order.

    ``counts`` is the token's count within the embedding window;
    ``bucket`` (embedding index), ``sign`` (+1.0/-1.0) and ``hash12``
    (value-hash) are read from the token's md5 digest.
    """

    counts: np.ndarray
    bucket: np.ndarray
    sign: np.ndarray
    hash12: np.ndarray


def _column_token_stats(
    column: Column,
    embed_cap: int = EMBED_SAMPLE_CAP,
    hash_cap: int = HASH_SAMPLE_CAP,
) -> TokenDigests:
    """One pass feeding both the embedding and the value-hash set.

    Returns the :class:`TokenDigests` of the admitted *distinct* canonical
    tokens in first-seen order, with counts over the first ``embed_cap``
    present values.  Admission follows a scan over the present cells:
    every token in the first ``embed_cap`` cells is counted, and the scan
    stops at the first position at or past that window where the
    distinct-token count has reached ``hash_cap``; the token at that
    position is still admitted (with count 0 if it is new).

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
        return _stats_from_counts(())
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


def _stats_from_counts(token_counts: Iterable[tuple[str, int]]) -> TokenDigests:
    """Digest fields of ``(token, count)`` pairs: one md5 per token.

    The digests are read as big-endian 32-bit words: ``bucket`` is word 0
    mod :data:`EMBEDDING_DIM`, ``sign`` is +1 when the high nibble of
    byte 4 is even, and ``hash12`` is bytes 0-5 (the first 12 hex digits).
    """
    pairs = list(token_counts)
    md5 = hashlib.md5
    digests = b"".join([md5(token.encode("utf-8")).digest() for token, _ in pairs])
    words = np.frombuffer(digests, dtype=">u4").reshape(-1, 4)
    head = words[:, 0].astype(np.int64)
    return TokenDigests(
        counts=np.array([count for _, count in pairs], dtype=np.int64),
        bucket=(head % EMBEDDING_DIM).astype(np.intp),
        sign=np.where((words[:, 1] >> 28) & 1, -1.0, 1.0),
        hash12=(head << 16) | (words[:, 1] >> 16).astype(np.int64),
    )


def _embedding_from_stats(stats: TokenDigests) -> np.ndarray:
    # integer-valued sums: exact in float64 whatever the summation order
    vec = np.bincount(
        stats.bucket, weights=stats.sign * stats.counts, minlength=EMBEDDING_DIM
    )
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def _hash_set_from_stats(stats: TokenDigests) -> np.ndarray:
    """Sorted distinct ``hash12`` values: the first ``HASH_SAMPLE_CAP``
    distinct ones in first-seen order."""
    distinct, first = np.unique(stats.hash12, return_index=True)
    if distinct.size <= HASH_SAMPLE_CAP:
        return distinct
    return np.sort(stats.hash12[np.sort(first)[:HASH_SAMPLE_CAP]])


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
    if not cand.size:
        return 0.0
    return np.intersect1d(cand, ref, assume_unique=True).size / cand.size


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
    hash_sets: "dict[str, np.ndarray]",
    threshold: float = 0.95,
) -> dict[str, list[str]]:
    """Inclusion lists from precomputed value-hash sets.

    ``hash_sets`` maps each name to a sorted, distinct ``int64`` array.
    Column ``a`` lists ``b`` when ``|a ∩ b| / |a| >= threshold``; all the
    overlaps come from one incidence product (see :func:`_overlaps`).
    """
    result: dict[str, list[str]] = {name: [] for name in names}
    if not names:
        return result
    arrays = [hash_sets[name] for name in names]
    sizes = np.array([array.size for array in arrays], dtype=np.int64)
    size_a, size_b = sizes[:, None], sizes[None, :]
    overlap = _overlaps(arrays)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = overlap / size_a
    accept = (
        ~np.eye(len(names), dtype=bool)
        & (size_a > 0)
        & (size_b > 0)
        & ~(size_b < threshold * size_a)  # |a ∩ b| <= |b| cannot reach it
        & (share >= threshold)
    )
    for a, b in zip(*(axis.tolist() for axis in np.nonzero(accept))):
        result[names[a]].append(names[b])
    return result


# The column x shared-token incidence matrix is multiplied in batches of at
# most this many cells, so wide tables with large value sets stay small.
_INCIDENCE_CELLS = 1 << 19


def _overlaps(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``|a ∩ b|`` for every pair of sorted, distinct ``int64`` arrays.

    Only hashes held by two or more arrays can add to an overlap, so the
    0/1 incidence matrix has one column per such shared hash, and the
    overlaps are its Gram matrix ``M @ M.T``, summed over batches of
    shared hashes (float32 is exact: every sum is at most one array's size).
    """
    n = len(arrays)
    pooled = np.concatenate(arrays)
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    owner = np.repeat(np.arange(n), [array.size for array in arrays])[order]
    starts = np.flatnonzero(np.r_[True, pooled[1:] != pooled[:-1]])
    run = np.diff(np.r_[starts, pooled.size])
    shared = run >= 2
    keep = np.repeat(shared, run)
    token = np.repeat(np.cumsum(shared) - 1, run)[keep]
    owner = owner[keep]
    n_shared = int(shared.sum())
    overlap = np.zeros((n, n), dtype=np.int64)
    step = max(1, min(_INCIDENCE_CELLS // n, n_shared))
    block = np.empty((n, step), dtype=np.float32)
    for low in range(0, n_shared, step):
        lo, hi = np.searchsorted(token, [low, low + step])
        block.fill(0.0)
        block[owner[lo:hi], token[lo:hi] - low] = 1.0
        overlap += (block @ block.T).astype(np.int64)
    return overlap


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
