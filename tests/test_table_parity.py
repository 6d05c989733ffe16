"""Parity contract of the dictionary-encoded data plane.

The columnar rebuild of ``repro.table`` must be observationally
identical to the per-row seed semantics: same inferred kinds, same
coerced cells, same first-seen ``unique()`` order, same
``value_counts()`` tie-breaks, same content fingerprints — for any
chunking of the input, with a cold or a warm profile cache.  These tests pin
that contract against an embedded per-row reference implementation
built from the same coercion primitives (``_infer_kind`` /
``_format_value`` / ``_to_bool``) the batch path keeps.
"""

import math
import random
from decimal import Decimal

import numpy as np
import pytest

from repro.catalog.cache import (
    ProfileCache,
    column_fingerprint,
    encode_object_values,
)
from repro.catalog.profiler import profile_table
from repro.sketch.accumulators import encode_cell
from repro.table.column import (
    Column,
    ColumnKind,
    _format_value,
    _infer_kind,
    _is_missing_scalar,
    _to_bool,
    factorize,
)
from repro.table.ops import drop_duplicate_rows, sort_by, stack_tables
from repro.table.table import Table

# -- per-row reference implementation (seed semantics) --------------------------


def ref_coerce(values, kind=None):
    """Seed per-cell coercion: inferred kind + coerced cell list."""
    kind = ColumnKind(kind) if kind is not None else _infer_kind(values)
    cells = []
    for value in values:
        if _is_missing_scalar(value):
            cells.append(None)
        elif kind is ColumnKind.NUMERIC:
            try:
                cells.append(float(value))
            except (TypeError, ValueError):
                cells.append(None)
        elif kind is ColumnKind.BOOLEAN:
            cells.append(_to_bool(value))
        else:
            cells.append(_format_value(value))
    return kind, cells


def ref_unique(cells):
    return list(dict.fromkeys(v for v in cells if v is not None))


def ref_value_counts(cells):
    counts = {}
    for value in cells:
        if value is None:
            continue
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))))


# -- dirty value generator ------------------------------------------------------

_DIRTY_POOL = [
    None, "", "  ", "NA", "null", "NaN",
    "yes", "no", "TRUE", "False", True, False,
    0, 1, -1, 7, 1.5, -0.25, 2.0, 1e6, 0.0, -0.0,
    "0", "1", "3.5", " 42 ", "1e3",
    "alpha", "Beta", "beta ", "x,y", "ümlaut", "长", "a" * 30,
    np.int64(5), np.float64(2.5), np.bool_(True),
]


def dirty_values(rng, n):
    return [rng.choice(_DIRTY_POOL) for _ in range(n)]


def dirty_table(rng, n_rows, n_cols=4):
    cols = [
        Column(f"c{j}", dirty_values(rng, n_rows)) for j in range(n_cols)
    ]
    return Table(cols, name="dirty")


def chunk_sizes(n, pieces):
    """Split n rows into `pieces` contiguous spans (some possibly empty)."""
    cuts = sorted(random.Random(pieces * 1000 + n).randrange(n + 1)
                  for _ in range(pieces - 1))
    bounds = [0] + cuts + [n]
    return [(bounds[i], bounds[i + 1]) for i in range(pieces)]


# -- column-level parity --------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_column_matches_reference(seed):
    rng = random.Random(seed)
    values = dirty_values(rng, rng.randrange(0, 120))
    col = Column("c", values)
    kind, cells = ref_coerce(values)
    assert col.kind is kind
    assert col.to_list() == cells
    assert col.unique() == ref_unique(cells)
    assert col.value_counts() == ref_value_counts(cells)
    assert col.n_distinct == len(ref_unique(cells))
    assert col.n_missing == sum(1 for v in cells if v is None)


def _signs(cells):
    return [None if v is None else math.copysign(1.0, v) for v in cells]


@pytest.mark.parametrize("values", [
    [None, 0.0, -0.0],
    [None, -0.0, 0.0],
    [None, 0, -0.0, 2.5],
])
def test_signed_zero_survives_encoding(values):
    # 0.0 == -0.0 share a hash slot; the pool must still keep the sign
    kind, cells = ref_coerce(values)
    col = Table.from_dict({"a": values})["a"]
    assert col.kind is kind
    assert _signs(col.to_list()) == _signs(cells)


@pytest.mark.parametrize("kind", [None, "numeric", "string"])
def test_unkeyable_cells_match_reference(kind):
    # no distinct key for these cells: each takes its own slot
    values = [Decimal("2.5"), Decimal("2.50"), None, ["x"], "a", Decimal("2.5")]
    col = Column("c", values, kind=kind)
    ref_kind, cells = ref_coerce(values, kind=kind)
    assert col.kind is ref_kind
    assert col.to_list() == cells
    assert col.unique() == ref_unique(cells)
    assert col.value_counts() == ref_value_counts(cells)


def test_signed_zero_survives_from_numpy():
    # from_numpy stores cells verbatim, so -0.0 must keep its own code
    data = np.array([0.0, -0.0, None], dtype=object)
    col = Column.from_numpy("a", data, kind="string")
    assert _signs(col.to_list()) == [1.0, -1.0, None]
    same_sign = Column.from_numpy(
        "a", np.array([0.0, 0.0, None], dtype=object), kind="string"
    )
    assert column_fingerprint(col) != column_fingerprint(same_sign)


@pytest.mark.parametrize("values", [
    [0.0, -0.0],
    [-0.0, 0.0, 0.0],
    [1, True, 1.0, np.int64(1), np.float64(1.0), "1", None, 1],
    [0.0, "a", -0.0, "a"],
])
def test_encode_object_values_is_per_cell_encoding(values):
    assert encode_object_values(values) == b"".join(map(encode_cell, values))


# -- the distinct-value key -----------------------------------------------------

_NAN = float("nan")
_KEY_POOL = [
    True, False, 1, 0, 1.0, 0.0, -0.0, 2.5,
    np.int64(1), np.int64(0), np.float64(1.0), np.float64(-0.0),
    np.float32(-0.0), np.bool_(True), np.bool_(False),
    _NAN, np.float64("nan"), None, "1", "0", "a", "", "True", np.str_("a"),
]
# at most one numeric type: equal numbers share a type, zeros aside
_ONE_NUMBER_POOL = [0.0, -0.0, 2.5, _NAN, None, "0", "a", "", np.str_("a")]


def _ref_key(value):
    """Rendering identity, one cell at a time: (type, value, signbit)."""
    sign = isinstance(value, (int, float, np.number, np.bool_)) and bool(
        np.signbit(value)
    )
    return (type(value), value, sign)


def ref_factorize(values):
    index, first = {}, []
    codes = []
    for i, value in enumerate(values):
        key = _ref_key(value)
        if key not in index:
            index[key] = len(first)
            first.append(i)
        codes.append(index[key])
    return first, codes


@pytest.mark.parametrize("seed", range(40))
def test_factorize_matches_per_cell_typed_key(seed):
    rng = random.Random(seed)
    # random sub-pools, so both the value-keyed and the type-keyed path run
    full = _ONE_NUMBER_POOL if seed % 2 else _KEY_POOL
    pool = rng.sample(full, rng.randrange(1, len(full) + 1))
    values = [rng.choice(pool) for _ in range(rng.randrange(0, 60))]
    if rng.random() < 0.3:
        values.append(float("nan"))  # a fresh NaN object: its own slot
    first, ref_codes = ref_factorize(values)
    distinct, codes = factorize(values)
    assert codes.dtype == np.int64
    assert codes.tolist() == ref_codes
    assert len(distinct) == len(first)
    assert all(d is values[i] for d, i in zip(distinct, first))


@pytest.mark.parametrize("values", [
    ["a", ["unhashable"], "b"],
    [1, {"k": 1}],
    [Decimal("1"), Decimal("1.0")],
    ["x", Decimal("2")],
    [(1, 2), (1, 2)],
])
def test_factorize_rejects_unkeyable_cells(values):
    assert factorize(values) is None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["numeric", "string", "boolean"])
def test_forced_kind_matches_reference(seed, kind):
    rng = random.Random(seed)
    values = dirty_values(rng, 80)
    if kind == "boolean":
        values = [rng.choice([True, False, "yes", "NO", None, ""])
                  for _ in range(80)]
    col = Column("c", values, kind=kind)
    _, cells = ref_coerce(values, kind=kind)
    assert col.to_list() == cells
    assert col.unique() == ref_unique(cells)
    assert col.value_counts() == ref_value_counts(cells)


@pytest.mark.parametrize("pieces", [1, 2, 3, 7])
def test_chunked_ingest_is_bit_identical(pieces):
    """Building a column from any chunking of its rows changes nothing:
    lists, uniques, counts, and the content fingerprint all match."""
    rng = random.Random(pieces)
    values = dirty_values(rng, 90)
    whole = Column("c", values)
    spans = chunk_sizes(len(values), pieces)
    parts = [
        Table([Column("c", values[lo:hi], kind=whole.kind)])
        for lo, hi in spans
    ]
    stacked = stack_tables(parts)["c"]
    assert stacked.kind is whole.kind
    assert stacked.to_list() == whole.to_list()
    assert stacked.unique() == whole.unique()
    assert stacked.value_counts() == whole.value_counts()
    assert column_fingerprint(stacked) == column_fingerprint(whole)


def test_fingerprint_is_content_only():
    rng = random.Random(5)
    values = dirty_values(rng, 60)
    a = Column("left", values)
    # a column that reaches the same cells through a permuted pool
    perm = list(range(60))
    random.Random(6).shuffle(perm)
    inverse = np.argsort(np.asarray(perm))
    b = Column("right", [values[i] for i in perm]).take(inverse)
    assert a.to_list() == b.to_list()
    assert column_fingerprint(a) == column_fingerprint(b)


# -- table-level parity ---------------------------------------------------------


def _ref_join(left_rows, right_rows, left_key, right_key, how):
    pairs = []
    for i, lrow in enumerate(left_rows):
        matches = [
            j for j, rrow in enumerate(right_rows)
            if lrow[left_key] is not None and lrow[left_key] == rrow[right_key]
        ]
        if matches:
            if how == "left":
                pairs.append((i, matches[0]))
            else:
                pairs.extend((i, j) for j in matches)
        elif how == "left":
            pairs.append((i, None))
    return pairs


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("how", ["inner", "left"])
def test_join_matches_reference(seed, how):
    rng = random.Random(seed)
    keys = [None, "a", "b", "c", 1, 2, True, "1", 1.0]
    left = Table([
        Column("k", [rng.choice(keys) for _ in range(25)]),
        Column("v", dirty_values(rng, 25)),
    ])
    right = Table([
        Column("k", [rng.choice(keys) for _ in range(18)]),
        Column("w", dirty_values(rng, 18)),
    ])
    joined = left.join(right, on="k", how=how)
    lrows = left.to_rows()
    rrows = right.to_rows()
    pairs = _ref_join(lrows, rrows, "k", "k", how)
    assert joined.n_rows == len(pairs)
    for row, (i, j) in zip(joined.to_rows(), pairs):
        expect_w = None if j is None else rrows[j]["w"]
        assert row["k"] == lrows[i]["k"]
        assert row["v"] == lrows[i]["v"]
        assert row["w"] == expect_w


@pytest.mark.parametrize("seed", range(6))
def test_sort_and_dedup_match_reference(seed):
    rng = random.Random(seed)
    table = dirty_table(rng, 50, n_cols=3)
    # sort: stable, missing last, seed tie-breaks
    for descending in (False, True):
        got = sort_by(table, "c0", descending=descending)["c0"].to_list()
        cells = table["c0"].to_list()
        present = [v for v in cells if v is not None]
        expect = sorted(present, key=_sort_key(table["c0"].kind),
                        reverse=descending)
        assert [v for v in got if v is not None] == expect
        assert got[len(present):] == [None] * (len(cells) - len(present))
    # dedup: first occurrence of each distinct row tuple survives
    deduped = drop_duplicate_rows(table)
    rows = list(zip(*(table[n].to_list() for n in table.column_names)))
    seen, expect_rows = set(), []
    for row in rows:
        if row not in seen:
            seen.add(row)
            expect_rows.append(row)
    got_rows = list(zip(*(deduped[n].to_list() for n in deduped.column_names)))
    assert got_rows == expect_rows


def _sort_key(kind):
    if kind is ColumnKind.NUMERIC:
        return float
    return lambda v: v


# -- profiling parity across cache states ---------------------------------------


def test_profile_parity_cold_and_warm_cache():
    rng = random.Random(11)
    table = dirty_table(rng, 60, n_cols=4)
    table.name = "parity"
    cache = ProfileCache()
    cold = profile_table(
        table, target="c0", task_type="binary", seed=3, cache=cache,
    )
    hits = cache.hits
    warm = profile_table(
        table, target="c0", task_type="binary", seed=3, cache=cache,
    )
    assert cache.hits > hits
    assert warm.to_dict() == cold.to_dict()
