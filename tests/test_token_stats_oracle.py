"""Oracle for the single token-stats pass behind embeddings and hash sets.

``_column_token_stats`` once had three branches: a ``np.unique`` fast
path for repetitive float columns, a pool-code path for dictionary
columns, and a per-cell scan for everything else.  They are embedded
below verbatim as the reference.  The one remaining pass must give
byte-identical embeddings at every cap pair, and the identical token
stats (so identical hash sets) wherever ``hash_cap >= 1``.

The per-cell scan defines admission and order, and the single pass
equals it everywhere.  The old numeric fast path differed from the scan
in two known ways, each pinned by its own test:

- at ``hash_cap = 0`` it admitted only the tokens of the ``embed_cap``
  window, while the scan and the pool-code path also admitted the
  zero-count token at the break position.  Only ``column_embedding``
  uses ``hash_cap = 0``, and it reads counts alone;
- it gave an unmasked ``nan`` (float storage from ``Column.from_numpy``
  with an explicit mask) a count of 0, because ``nan`` never finds
  itself in a dict keyed by float.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.catalog.embeddings import (
    EMBEDDING_DIM,
    _column_token_stats,
    _embedding_from_stats,
    _hash_set_from_stats,
)
from repro.table.column import Column, ColumnKind

CAP_PAIRS = [(2000, 5000), (2000, 0), (0, 5000), (3, 2), (5, 3), (0, 1), (1, 0)]


# -- reference: the three paths as they were ---------------------------------


def _ref_canonical_token(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value).strip().lower()


def _ref_stats_from_counts(token_counts):
    stats = []
    for token, count in token_counts:
        digest = hashlib.md5(token.encode("utf-8")).hexdigest()
        index = int(digest[:8], 16) % EMBEDDING_DIM
        sign = 1.0 if int(digest[8], 16) % 2 == 0 else -1.0
        stats.append((count, index, sign, int(digest[:12], 16)))
    return stats


def _ref_scan(column, embed_cap, hash_cap):
    counts = {}
    present = 0
    for value in column.to_list():
        if value is None:
            continue
        token = _ref_canonical_token(value)
        if token not in counts:
            counts[token] = 0
        if present < embed_cap:
            counts[token] += 1
            present += 1
        elif len(counts) >= hash_cap:
            break
    return _ref_stats_from_counts(counts.items())


def _ref_dict_token_stats(column, embed_cap, hash_cap):
    codes = column.codes
    pool_values = column.pool.tolist()
    token_ids = np.empty(len(pool_values) + 1, dtype=np.int64)
    token_ids[-1] = -1  # code -1 wraps here (missing cells)
    tid_of = {}
    tokens = []
    for code, value in enumerate(pool_values):
        if value is None:  # seed scan skips None cells outright
            token_ids[code] = -1
            continue
        token = _ref_canonical_token(value)
        tid = tid_of.get(token)
        if tid is None:
            tid = len(tokens)
            tid_of[token] = tid
            tokens.append(token)
        token_ids[code] = tid
    mapped = token_ids[codes]
    stream = mapped[mapped >= 0]
    m = stream.shape[0]
    if m == 0:
        return []
    uniq_tids, first_pos = np.unique(stream, return_index=True)
    if hash_cap and uniq_tids.shape[0] >= hash_cap:
        p_star = max(embed_cap, int(np.sort(first_pos)[hash_cap - 1]))
    elif hash_cap:
        p_star = m - 1  # distinct count never reaches the cap: full scan
    else:
        p_star = embed_cap  # hash_cap=0 breaks right past the window
    p_star = min(p_star, m - 1)
    counts = np.bincount(stream[:embed_cap], minlength=len(tokens))
    admitted = first_pos <= p_star
    order = np.argsort(first_pos[admitted], kind="stable")
    return _ref_stats_from_counts(
        (tokens[tid], int(counts[tid]))
        for tid in uniq_tids[admitted][order].tolist()
    )


def _ref_numeric_token_stats(column, embed_cap, hash_cap):
    present = column.data[~column.missing]
    distinct = np.unique(present)
    if hash_cap and distinct.size > hash_cap:
        return None
    if distinct.size > 0.5 * present.size:
        return None  # near-continuous: dedup buys nothing, scan is cheaper
    if embed_cap and present.size:
        window_distinct, window_counts = np.unique(
            present[:embed_cap], return_counts=True
        )
        counts = dict(zip(window_distinct.tolist(), window_counts.tolist()))
    else:
        window_distinct = present[:0]
        counts = {}
    values = distinct if hash_cap else window_distinct
    return _ref_stats_from_counts(
        (_ref_canonical_token(v), counts.get(v, 0)) for v in values.tolist()
    )


def _ref_token_stats(column, embed_cap, hash_cap):
    if column.kind is ColumnKind.NUMERIC:
        fast = _ref_numeric_token_stats(column, embed_cap, hash_cap)
        if fast is not None:
            return fast
    elif column.codes is not None:
        return _ref_dict_token_stats(column, embed_cap, hash_cap)
    return _ref_scan(column, embed_cap, hash_cap)


# -- random columns ------------------------------------------------------------

_WORDS = ["A ", "a", " a", "B", "b ", "c", "Yes", "yes", "NO", "x y", "0", "1"]
_SPECIAL_FLOATS = [0.0, -0.0, 2.5, -3.0, 1e20, -1e20, float("inf"), float("-inf")]


def _mixed_cell(rng):
    pick = int(rng.integers(0, 6))
    if pick == 0:
        return _WORDS[int(rng.integers(0, len(_WORDS)))]
    if pick == 1:
        return int(rng.integers(-3, 4))
    if pick == 2:
        return _SPECIAL_FLOATS[int(rng.integers(0, len(_SPECIAL_FLOATS)))]
    if pick == 3:
        return bool(rng.integers(0, 2))
    if pick == 4:
        return None
    return float(np.round(rng.normal(), 1))


def _with_missing(rng, values, share):
    return [None if rng.random() < share else v for v in values]


def _columns():
    rng = np.random.default_rng(20)
    cols = []
    for i in range(120):  # mixed str/int/float/bool/None
        n = int(rng.integers(0, 40))
        cols.append(Column("mixed", [_mixed_cell(rng) for _ in range(n)]))
        if i % 3 == 0 and n:
            values = [_mixed_cell(rng) for _ in range(n)]
            cols.append(Column("forced", values, kind="string"))
    for _ in range(60):  # numeric: repetitive, specials, near-continuous
        n = int(rng.integers(1, 50))
        k = int(rng.integers(1, 8))
        repetitive = (rng.integers(0, k, n) / 2.0).tolist()
        cols.append(Column("rep", _with_missing(rng, repetitive, 0.2)))
        specials = rng.choice(np.array(_SPECIAL_FLOATS), n).tolist()
        cols.append(Column("special", _with_missing(rng, specials, 0.1)))
        cols.append(Column("cont", rng.normal(size=n).tolist()))
    for _ in range(40):  # case/whitespace variants canonicalising together
        n = int(rng.integers(1, 30))
        words = [_WORDS[j] for j in rng.integers(0, 6, n)]
        cols.append(Column("case", _with_missing(rng, words, 0.15)))
    # the hash_cap=0 divergence example, and its string twin
    cols.append(Column("div", [2.5, 1e20, -3.0, 0.0] * 3))
    cols.append(Column("div_s", ["p", "q", "r", "s"] * 3))
    # distinct count below, at and above each small hash_cap
    for distinct in range(0, 7):
        values = list(range(distinct)) * 3
        rng.shuffle(values)
        cols.append(Column("small_num", [float(v) for v in values]))
        cols.append(Column("small_str", [f"v{v}" for v in values]))
    # ... and around the default hash_cap of 5000
    for distinct in (4999, 5000, 5001):
        repeated = np.repeat(np.arange(distinct) * 0.5, 2)
        rng.shuffle(repeated)
        cols.append(Column("big_num", repeated.tolist()))
        cols.append(Column("big_str", [f"t{v}" for v in repeated.tolist()]))
        cols.append(Column("big_cont", rng.normal(size=distinct).tolist()))
    # from_numpy with an explicit mask: a pool can hold None
    for _ in range(20):
        n = int(rng.integers(1, 25))
        data = np.array(
            [None if rng.random() < 0.3 else _WORDS[j] for j in rng.integers(0, 6, n)],
            dtype=object,
        )
        cols.append(Column.from_numpy("np_obj", data, missing=rng.random(n) < 0.2))
        floats = rng.choice(np.array([1e20, 1.0, -0.0, 2.5]), n)
        cols.append(
            Column.from_numpy("np_float", floats, missing=rng.random(n) < 0.2)
        )
    return cols


def _unmasked_nan_columns():
    rng = np.random.default_rng(21)
    cols = []
    for _ in range(20):
        n = int(rng.integers(2, 25))
        floats = rng.choice(np.array([np.nan, 1.0, -0.0, 2.5]), n)
        floats[0] = np.nan
        cols.append(Column.from_numpy("nan", floats, missing=np.zeros(n, bool)))
    return cols


COLUMNS = _columns()
NAN_COLUMNS = _unmasked_nan_columns()


def _embedding_bytes(stats):
    return _embedding_from_stats(stats).tobytes()


@pytest.mark.parametrize("embed_cap,hash_cap", CAP_PAIRS)
def test_matches_the_three_old_paths(embed_cap, hash_cap):
    embedding_diffs = stats_diffs = 0
    for column in COLUMNS:
        new = _column_token_stats(column, embed_cap, hash_cap)
        ref = _ref_token_stats(column, embed_cap, hash_cap)
        embedding_diffs += _embedding_bytes(new) != _embedding_bytes(ref)
        if hash_cap >= 1:
            stats_diffs += sorted(new) != sorted(ref)
            stats_diffs += _hash_set_from_stats(new) != _hash_set_from_stats(ref)
    assert embedding_diffs == 0
    assert stats_diffs == 0


@pytest.mark.parametrize("embed_cap,hash_cap", CAP_PAIRS)
def test_equals_the_ordered_scan(embed_cap, hash_cap):
    # the per-cell scan defines admission and first-seen order everywhere
    for column in COLUMNS + NAN_COLUMNS:
        new = _column_token_stats(column, embed_cap, hash_cap)
        assert new == _ref_scan(column, embed_cap, hash_cap), column


def test_hash_cap_zero_follows_the_scan():
    column = Column("div", [2.5, 1e20, -3.0, 0.0] * 3)
    fast = _ref_numeric_token_stats(column, 1, 0)
    new = _column_token_stats(column, 1, 0)
    assert len(fast) == 1 and len(new) == 2
    assert new[0] == fast[0] and new[1][0] == 0  # the break token, count 0
    assert _embedding_bytes(new) == _embedding_bytes(fast)


def test_unmasked_nan_is_counted():
    nan_token = _ref_stats_from_counts([("nan", 0)])[0][1:]
    fast_paths = 0
    for column in NAN_COLUMNS:
        new = _column_token_stats(column, 2000, 5000)
        n_nan = int(np.isnan(column.data).sum())
        assert [s[0] for s in new if s[1:] == nan_token] == [n_nan]
        fast = _ref_numeric_token_stats(column, 2000, 5000)
        if fast is not None:  # the old fast path lost the nan cells' count
            fast_paths += 1
            assert [s[0] for s in fast if s[1:] == nan_token] == [0]
    assert fast_paths >= 5


def test_cases_cover_every_old_path():
    paths = {"numeric_fast": 0, "dict": 0, "scan": 0}
    for column in COLUMNS:
        if column.kind is ColumnKind.NUMERIC:
            fast = _ref_numeric_token_stats(column, 2000, 5000)
            paths["numeric_fast" if fast is not None else "scan"] += 1
        else:
            paths["dict"] += 1
    assert min(paths.values()) >= 10, paths
    none_in_pool = sum(
        column.codes is not None
        and any(column.pool[code] is None for code in set(column.codes.tolist()) - {-1})
        for column in COLUMNS
    )
    assert none_in_pool >= 5
    assert len(COLUMNS) * len(CAP_PAIRS) > 3000
