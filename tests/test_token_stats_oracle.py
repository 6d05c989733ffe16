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

The token stats are now four aligned arrays, and the embedding, the
value-hash set and the inclusion lists are array operations.  The tuple
cores they replaced (``_stats_from_counts``, ``_embedding_from_stats``,
``_hash_set_from_stats`` and the ``np.intersect1d`` pair loop of
``inclusions_from_hash_sets``) are embedded below too, and every array
field must equal its tuple counterpart, value for value and byte for byte.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.catalog import embeddings
from repro.catalog.cache import ProfileCache
from repro.catalog.embeddings import (
    EMBEDDING_DIM,
    HASH_SAMPLE_CAP,
    TokenDigests,
    _column_token_stats,
    _embedding_from_stats,
    _hash_set_from_stats,
    _stats_from_counts,
    find_inclusion_dependencies,
    inclusion_coefficient,
    inclusions_from_hash_sets,
)
from repro.table.column import Column, ColumnKind
from repro.table.table import Table

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


def _ref_embedding_from_stats(stats):
    vec = np.zeros(EMBEDDING_DIM, dtype=np.float64)
    for count, index, sign, _ in stats:
        if count:
            vec[index] += sign * count
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return vec


def _ref_hash_set_from_stats(stats):
    hashes = set()
    for _, _, _, hash12 in stats:
        hashes.add(hash12)
        if len(hashes) >= HASH_SAMPLE_CAP:
            break
    return hashes


def _ref_inclusions_from_hash_sets(names, hash_sets, threshold=0.95):
    result = {name: [] for name in names}
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
                continue
            overlap = np.intersect1d(
                arrays[a], arrays[b], assume_unique=True
            ).size
            if overlap / size_a >= threshold:
                result[a].append(b)
    return result


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


def _tuples(stats):
    """Array stats as the old ``(count, bucket, sign, hash12)`` tuples."""
    return list(zip(*(field.tolist() for field in stats)))


def _ref_hash_array(stats):
    return np.array(sorted(_ref_hash_set_from_stats(stats)), dtype=np.int64)


def _same_embedding(new, ref):
    return _embedding_from_stats(new).tobytes() == _ref_embedding_from_stats(ref).tobytes()


def _same_hash_set(new, ref):
    hashes = _hash_set_from_stats(new)
    return hashes.dtype == np.int64 and np.array_equal(hashes, _ref_hash_array(ref))


@pytest.mark.parametrize("embed_cap,hash_cap", CAP_PAIRS)
def test_matches_the_three_old_paths(embed_cap, hash_cap):
    embedding_diffs = stats_diffs = 0
    for column in COLUMNS:
        new = _column_token_stats(column, embed_cap, hash_cap)
        ref = _ref_token_stats(column, embed_cap, hash_cap)
        embedding_diffs += not _same_embedding(new, ref)
        if hash_cap >= 1:
            stats_diffs += sorted(_tuples(new)) != sorted(ref)
            stats_diffs += not _same_hash_set(new, ref)
    assert embedding_diffs == 0
    assert stats_diffs == 0


@pytest.mark.parametrize("embed_cap,hash_cap", CAP_PAIRS)
def test_equals_the_ordered_scan(embed_cap, hash_cap):
    # the per-cell scan defines admission and first-seen order everywhere
    for column in COLUMNS + NAN_COLUMNS:
        new = _column_token_stats(column, embed_cap, hash_cap)
        assert _tuples(new) == _ref_scan(column, embed_cap, hash_cap), column


def test_hash_cap_zero_follows_the_scan():
    column = Column("div", [2.5, 1e20, -3.0, 0.0] * 3)
    fast = _ref_numeric_token_stats(column, 1, 0)
    new = _tuples(_column_token_stats(column, 1, 0))
    assert len(fast) == 1 and len(new) == 2
    assert new[0] == fast[0] and new[1][0] == 0  # the break token, count 0
    assert _same_embedding(_column_token_stats(column, 1, 0), fast)


def test_unmasked_nan_is_counted():
    nan_token = _ref_stats_from_counts([("nan", 0)])[0][1:]
    fast_paths = 0
    for column in NAN_COLUMNS:
        new = _tuples(_column_token_stats(column, 2000, 5000))
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


# -- the array cores against the tuple cores -------------------------------------


def _random_tokens(rng, n):
    alphabet = list("abcXYZ019 .-_é漢")
    tokens = {""}
    while len(tokens) < n:
        length = int(rng.integers(1, 30))
        tokens.add("".join(rng.choice(alphabet, length).tolist()))
    return sorted(tokens)


def _synthetic_stats(counts, bucket, sign, hash12):
    return TokenDigests(
        counts=np.asarray(counts, dtype=np.int64),
        bucket=np.asarray(bucket, dtype=np.intp),
        sign=np.asarray(sign, dtype=np.float64),
        hash12=np.asarray(hash12, dtype=np.int64),
    )


def test_stats_fields_match_reference_digests():
    rng = np.random.default_rng(22)
    tokens = _random_tokens(rng, 3000)
    for n in (0, 1, 2, 17, 3000):
        pairs = [(t, int(rng.integers(0, 40))) for t in tokens[:n]]
        new = _stats_from_counts(pairs)
        ref = _ref_stats_from_counts(pairs)
        dtypes = (np.int64, np.intp, np.float64, np.int64)
        for index, (field, dtype) in enumerate(zip(new, dtypes)):
            expected = np.array([stat[index] for stat in ref], dtype=dtype)
            assert field.dtype == dtype, (n, new._fields[index])
            assert field.tobytes() == expected.tobytes(), (n, new._fields[index])
        if n >= 17:  # both signs and the full 48-bit hash range occur
            assert set(new.sign.tolist()) == {1.0, -1.0}
            assert int(new.hash12.max()) >= 1 << 46


def test_embedding_matches_reference_with_cancellations():
    rng = np.random.default_rng(23)
    for n in (0, 1, 5, 60, 4000):
        # few buckets: signed counts cancel and sum in many orders
        bucket = rng.integers(0, 4 if n < 100 else EMBEDDING_DIM, n)
        counts = rng.integers(0, 3000, n) * (rng.random(n) < 0.8)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        stats = _synthetic_stats(counts, bucket, sign, np.arange(n))
        ref = list(zip(counts.tolist(), bucket.tolist(), sign.tolist(), range(n)))
        assert _same_embedding(stats, ref)
    cancel = _synthetic_stats([3, 3], [7, 7], [1.0, -1.0], [1, 2])
    assert _embedding_from_stats(cancel).tobytes() == np.zeros(EMBEDDING_DIM).tobytes()


@pytest.mark.parametrize("n_stats,pool", [
    (0, 1), (1, 1), (40, 3), (4999, 10**9), (5000, 10**9), (5001, 10**9),
    (7000, 10**9), (12000, 6000), (12000, 4000),
])
def test_hash_set_matches_reference_with_collisions(n_stats, pool):
    # distinct tokens whose hash12 collide: the cap counts distinct hashes,
    # and which ones it keeps depends on first-seen order, not on size
    rng = np.random.default_rng(n_stats + pool)
    hash12 = rng.integers(0, pool, n_stats) * 7919 + (1 << 47)
    stats = _synthetic_stats(np.ones(n_stats), np.zeros(n_stats), np.ones(n_stats), hash12)
    ref = list(zip([1] * n_stats, [0] * n_stats, [1.0] * n_stats, hash12.tolist()))
    assert _same_hash_set(stats, ref)
    if np.unique(hash12).size > HASH_SAMPLE_CAP:
        kept = _hash_set_from_stats(stats)
        assert kept.size == HASH_SAMPLE_CAP
        assert not np.array_equal(kept, np.unique(hash12)[:HASH_SAMPLE_CAP])


THRESHOLDS = [0.0, 0.5, 0.95, 1.0]


def _random_hash_sets(rng):
    """Value-hash sets around the accept and skip boundaries."""
    universe = rng.permutation(1 << 20)[:3000].astype(np.int64)
    sets = {
        "empty": set(),
        "empty2": set(),
        "pk": set(universe[:100].tolist()),
        "fk95": set(universe[:95].tolist()),  # size right at 0.95 x pk
        "fk94": set(universe[:94].tolist()),  # just under it
        "pk_plus5": set(universe[:95].tolist()) | set(universe[2000:2005].tolist()),
        "pk_plus6": set(universe[:94].tolist()) | set(universe[2000:2006].tolist()),
        "same_pk": set(universe[:100].tolist()),
        "single": {int(universe[0])},
        "disjoint": set(universe[2500:2600].tolist()),
    }
    for i in range(12):
        size = int(rng.integers(0, 400))
        low = int(rng.integers(0, 2600))
        sets[f"r{i}"] = set(universe[low : low + size].tolist())
    names = list(sets)
    rng.shuffle(names)
    return names, sets


def _arrays(sets):
    return {name: np.array(sorted(hs), dtype=np.int64) for name, hs in sets.items()}


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("seed", range(4))
def test_inclusions_match_the_pair_loop(seed, threshold):
    names, sets = _random_hash_sets(np.random.default_rng(seed))
    new = inclusions_from_hash_sets(names, _arrays(sets), threshold=threshold)
    assert new == _ref_inclusions_from_hash_sets(names, sets, threshold=threshold)
    if threshold == 0.95:
        assert "pk" in new["fk95"] and "pk" in new["pk_plus5"]
        assert "pk" not in new["pk_plus6"] and new["empty"] == []


@pytest.mark.parametrize("cells", [1, 7, 64, 1000])
def test_batched_product_matches_the_pair_loop(monkeypatch, cells):
    names, sets = _random_hash_sets(np.random.default_rng(5))
    shared = sum(
        count >= 2
        for count in np.unique(
            np.concatenate(list(_arrays(sets).values())), return_counts=True
        )[1]
    )
    assert cells // len(names) < shared  # more than one batch
    monkeypatch.setattr(embeddings, "_INCIDENCE_CELLS", cells)
    for threshold in THRESHOLDS:
        new = inclusions_from_hash_sets(names, _arrays(sets), threshold=threshold)
        assert new == _ref_inclusions_from_hash_sets(names, sets, threshold=threshold)


def _inclusion_table(rng):
    pk = [f"id{i}" for i in range(6000)]  # past the 5,000-hash cap
    data = {
        "pk": pk,
        "fk": rng.choice(pk[:4000], 6000).tolist(),
        "fk_head": pk[:300] * 20,
        "ints": rng.integers(0, 50, 6000).astype(float).tolist(),
        "ints_text": [str(v) for v in rng.integers(0, 60, 6000).tolist()],
        "floats": np.round(rng.normal(size=6000), 2).tolist(),
        "sparse": [None if rng.random() < 0.9 else f"id{i}" for i in range(6000)],
        "empty": [None] * 6000,
        "flags": rng.choice(["yes", "no", "Yes"], 6000).tolist(),
    }
    return Table.from_dict(data, name="incl")


def test_tables_match_the_reference_cores():
    table = _inclusion_table(np.random.default_rng(24))
    names = table.column_names
    ref_sets = {
        name: _ref_hash_set_from_stats(_ref_scan(table[name], 2000, HASH_SAMPLE_CAP))
        for name in names
    }
    cache = ProfileCache()
    for threshold in THRESHOLDS:
        new = find_inclusion_dependencies(table, threshold=threshold, cache=cache)
        assert new == _ref_inclusions_from_hash_sets(names, ref_sets, threshold)
    assert "pk" in new["fk_head"] and new["empty"] == []
    assert len(ref_sets["pk"]) == HASH_SAMPLE_CAP
    for a in names:
        for b in names:
            expected = (
                len(ref_sets[a] & ref_sets[b]) / len(ref_sets[a]) if ref_sets[a] else 0.0
            )
            assert inclusion_coefficient(table[a], table[b], cache=cache) == expected
