"""Content-fingerprint-keyed cache for per-column profiling artifacts.

Profiling derives two expensive per-column artifacts: the 300-dim hashed
bag-of-values embedding and the hashed value set.  Both come from one
token-stats pass that costs one md5 per distinct token.
``pairwise_similarities`` and ``find_inclusion_dependencies`` each need
them for every column, and catalog refinement re-profiles the
(mostly unchanged) table a second time.  Keying by a *content*
fingerprint — not column name or object identity — means any two columns
with identical values share one computation, across calls and across
tables.

The fingerprint hashes the raw storage buffers (numeric columns) or the
value tuple (object columns), which is one to two orders of magnitude
cheaper than the token-stats work it saves.  Entries are evicted LRU so
the cache stays memory-bounded under sustained traffic.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.sketch.accumulators import encode_cell
from repro.table.column import Column, ColumnKind, factorize

__all__ = [
    "ProfileCache",
    "column_fingerprint",
    "encode_object_values",
    "get_default_cache",
    "clear_default_cache",
]


def column_fingerprint(column: Column) -> tuple:
    """Stable, content-only key for a column's derived artifacts.

    Two columns with equal kind, length, missing mask, and values get the
    same fingerprint regardless of name or object identity.  Numeric
    columns hash their float64/bool buffers directly (C speed); object
    columns md5 the encoded values (length-prefixed, so concatenation
    ambiguities cannot collide) plus the missing mask.

    The object branch deliberately avoids built-in ``hash(tuple(...))``:
    string hashes are salted per process (``PYTHONHASHSEED``), so that
    key is unstable across processes — a persistent or process-pool-
    shared cache would miss spuriously — and a 64-bit collision would
    silently return another column's embeddings.

    Data and mask run through *separate* md5 digests combined at the
    end.  A single sequential digest would force any producer to see all
    data bytes before the first mask byte; the two-digest layout lets
    the streaming profiler feed both hashes chunk-by-chunk (see
    :class:`repro.sketch.accumulators.FingerprintAccumulator`) and land
    on the identical fingerprint without materializing the column.
    """
    data_digest = hashlib.md5()
    mask_digest = hashlib.md5()
    if column.kind is ColumnKind.NUMERIC:
        data_digest.update(column.data.tobytes())
    elif column.codes is not None:
        # encode once per distinct pool value, gather bytes by code
        pool_bytes = [encode_cell(value) for value in column.pool.tolist()]
        ext = np.empty(len(pool_bytes) + 1, dtype=object)
        ext[:-1] = pool_bytes
        ext[-1] = encode_cell(None)  # code -1 wraps here (missing cells)
        data_digest.update(b"".join(ext[column.codes].tolist()))
    else:
        data_digest.update(encode_object_values(column.data.tolist()))
    mask_digest.update(column.missing.tobytes())
    content: Any = hashlib.md5(
        data_digest.digest() + mask_digest.digest()
    ).hexdigest()
    return (column.kind.value, len(column), int(column.missing.sum()), content)


def encode_object_values(values: list) -> bytes:
    """Length-prefixed byte encoding of object-column cells.

    The concatenation of ``encode_cell`` over the cells, the octets the
    fingerprint above and the streaming chunk parse hash.  Repeated values are
    encoded once (factorize-then-gather); cells :func:`factorize` cannot
    key are encoded one by one.
    """
    distinct, codes = factorize(values) or (values, np.arange(len(values)))
    encodings = list(map(encode_cell, distinct))
    return b"".join(map(encodings.__getitem__, codes.tolist()))


class ProfileCache:
    """LRU cache of per-column embeddings and value-hash sets.

    Thread-safe: experiment-grid workers profile concurrently, and all
    of them funnel through the one process-wide instance.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _get_or_compute(self, key: tuple, compute: Callable[[], Any]) -> Any:
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
        value = compute()
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def memo(self, key: tuple, compute: Callable[[], Any]) -> Any:
        """Public get-or-compute for externally fingerprinted artifacts.

        The streaming profiler keys its sketch-derived embeddings and
        hash sets by incremental column fingerprints through this hook —
        distinct key namespaces keep them apart from the batch entries,
        which are exact where the streaming ones are estimates.
        """
        return self._get_or_compute(key, compute)

    def _token_stats(self, column: Column, fingerprint: tuple) -> list:
        """Shared single-scan artifact behind embeddings and hash sets."""
        from repro.catalog.embeddings import _column_token_stats

        key = ("stats", *fingerprint)
        return self._get_or_compute(key, lambda: _column_token_stats(column))

    def embedding(self, column: Column) -> np.ndarray:
        """Cached :func:`repro.catalog.embeddings.column_embedding`."""
        from repro.catalog.embeddings import _embedding_from_stats

        fingerprint = column_fingerprint(column)
        return self._get_or_compute(
            ("embedding", *fingerprint),
            lambda: _embedding_from_stats(self._token_stats(column, fingerprint)),
        )

    def hash_set(self, column: Column) -> set[int]:
        """Cached value-hash set (the inclusion-dependency artifact)."""
        from repro.catalog.embeddings import _hash_set_from_stats

        fingerprint = column_fingerprint(column)
        return self._get_or_compute(
            ("hash_set", *fingerprint),
            lambda: _hash_set_from_stats(self._token_stats(column, fingerprint)),
        )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __repr__(self) -> str:
        return (
            f"ProfileCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_default_cache = ProfileCache()


def get_default_cache() -> ProfileCache:
    """Process-wide cache used when callers do not supply their own."""
    return _default_cache


def clear_default_cache() -> None:
    _default_cache.clear()
