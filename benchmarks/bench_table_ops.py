"""Seed-vs-encoded pairs for the dictionary-encoded data plane.

Each pair times the same observable work twice: once with the seed's
per-row Python implementation (embedded here, rebuilt from the per-cell
coercion primitives the batch path keeps) and once through the
dictionary-encoded vectorized path.  Every pair doubles as a parity
check — both sides must produce bit-identical results before the timing
counts.  The CI bench job gates on the measured ratios via the
``ingest_speedup`` (>= 3x) and ``join_speedup`` (>= 5x) rows of
``make_bench_report.GATES``.
"""

from __future__ import annotations

import csv
import hashlib
from typing import Any

import numpy as np
import pytest

from repro.catalog.cache import column_fingerprint
from repro.ml.preprocessing import LabelEncoder, OneHotEncoder, _is_missing
from repro.table.column import (
    Column,
    ColumnKind,
    _format_value,
    _infer_kind,
    _is_missing_scalar,
    _to_bool,
)
from repro.table.io_csv import read_csv
from repro.table.table import Table

# -- seed reference: per-cell coercion, stats, fingerprint ---------------------


def _seed_cells(values: list[Any], kind=None):
    """The seed ``Column.__init__`` loop: per-cell kind coercion."""
    kind = ColumnKind(kind) if kind is not None else _infer_kind(values)
    cells: list[Any] = []
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


def _seed_encode(value: Any) -> bytes:
    if value is None:
        return b"\xff\x00none"
    encoded = str(value).encode("utf-8", "surrogatepass")
    return len(encoded).to_bytes(4, "little") + encoded


def _seed_fingerprint(kind: ColumnKind, cells: list[Any]) -> tuple:
    """Seed ``column_fingerprint``: one md5 update per cell."""
    data_digest = hashlib.md5()
    mask_digest = hashlib.md5()
    for value in cells:
        data_digest.update(_seed_encode(value))
    mask_digest.update(np.array([v is None for v in cells], bool).tobytes())
    content = hashlib.md5(
        data_digest.digest() + mask_digest.digest()
    ).hexdigest()
    return (kind.value, len(cells), sum(v is None for v in cells), content)


# -- pair 1: CSV ingest + profile of a wide categorical table ------------------

N_INGEST_ROWS = 4_000
N_INGEST_COLS = 30


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("bench_table") / "wide_cat.csv"
    header = [f"c{j}" for j in range(N_INGEST_COLS)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for _ in range(N_INGEST_ROWS):
            writer.writerow(
                [
                    ""
                    if rng.random() < 0.02
                    else f"k{j}_{int(rng.integers(24))}"
                    for j in range(N_INGEST_COLS)
                ]
            )
    return str(path)


def _seed_ingest_profile(path: str) -> dict[str, tuple]:
    """Per-row parse + per-cell coerce + per-cell column stats."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    stats: dict[str, tuple] = {}
    for j, name in enumerate(header):
        kind, cells = _seed_cells([row[j] for row in rows])
        unique = list(dict.fromkeys(v for v in cells if v is not None))
        counts: dict[Any, int] = {}
        for value in cells:
            if value is None:
                continue
            counts[value] = counts.get(value, 0) + 1
        counts = dict(
            sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        )
        stats[name] = (
            kind.value, unique, counts, _seed_fingerprint(kind, cells),
        )
    return stats


def _encoded_ingest_profile(path: str) -> dict[str, tuple]:
    """Vectorized ingest + per-distinct column stats via the codes."""
    table = read_csv(path)
    return {
        col.name: (
            col.kind.value,
            col.unique(),
            col.value_counts(),
            column_fingerprint(col),
        )
        for col in table
    }


def test_table_ingest_profile_seed(benchmark, wide_csv):
    stats = benchmark.pedantic(
        lambda: _seed_ingest_profile(wide_csv), rounds=3, iterations=1
    )
    assert stats == _encoded_ingest_profile(wide_csv)


def test_table_ingest_profile_encoded(benchmark, wide_csv):
    stats = benchmark.pedantic(
        lambda: _encoded_ingest_profile(wide_csv), rounds=3, iterations=1
    )
    assert stats == _seed_ingest_profile(wide_csv)


# -- pair 2: 100k-row hash join ------------------------------------------------

N_JOIN_ROWS = 100_000
N_DIM_ROWS = 5_000


@pytest.fixture(scope="module")
def join_tables():
    rng = np.random.default_rng(7)
    fact = Table.from_dict(
        {
            "k": [
                f"id{int(v)}"
                for v in rng.integers(0, N_DIM_ROWS, size=N_JOIN_ROWS)
            ],
            "v": rng.normal(size=N_JOIN_ROWS),
        },
        name="fact",
    )
    dim = Table.from_dict(
        {
            "k": [f"id{i}" for i in range(N_DIM_ROWS)],
            "w": rng.normal(size=N_DIM_ROWS),
            "g": [f"g{i % 11}" for i in range(N_DIM_ROWS)],
        },
        name="dim",
    )
    return fact, dim


def _seed_join(left: Table, right: Table, on: str, how: str = "inner",
               suffix: str = "_r") -> Table:
    """The seed ``Table.join``: per-row index build, probe, and gather."""
    right_index: dict[Any, list[int]] = {}
    right_col = right[on]
    for j in range(right.n_rows):  # repro: allow-per-row (seed reference)
        key = right_col[j]
        if key is None:
            continue
        right_index.setdefault(key, []).append(j)
    left_rows: list[int] = []
    right_rows: list[int] = []
    left_col = left[on]
    for i in range(left.n_rows):  # repro: allow-per-row (seed reference)
        key = left_col[i]
        matches = right_index.get(key, []) if key is not None else []
        if matches:
            if how == "left":
                matches = matches[:1]
            for j in matches:
                left_rows.append(i)
                right_rows.append(j)
        elif how == "left":
            left_rows.append(i)
            right_rows.append(-1)
    columns = []
    for name in left.column_names:
        source = left[name]
        columns.append(
            Column(name, [source[i] for i in left_rows], kind=source.kind)
        )
    taken = set(left.column_names)
    for name in right.column_names:
        if name == on:
            continue
        out_name = name if name not in taken else name + suffix
        source = right[name]
        columns.append(
            Column(
                out_name,
                [None if j < 0 else source[j] for j in right_rows],
                kind=source.kind,
            )
        )
        taken.add(out_name)
    return Table(columns, name=left.name)


def _table_cells(table: Table) -> dict[str, list[Any]]:
    return {name: table[name].to_list() for name in table.column_names}


def test_table_join_100k_seed(benchmark, join_tables):
    fact, dim = join_tables
    joined = benchmark.pedantic(
        lambda: _seed_join(fact, dim, "k"), rounds=3, iterations=1
    )
    assert _table_cells(joined) == _table_cells(fact.join(dim, on="k"))


def test_table_join_100k_encoded(benchmark, join_tables):
    fact, dim = join_tables
    joined = benchmark.pedantic(
        lambda: fact.join(dim, on="k"), rounds=3, iterations=1
    )
    assert _table_cells(joined) == _table_cells(_seed_join(fact, dim, "k"))


# -- pair 3: row concatenation -------------------------------------------------


def _seed_concat_rows(a: Table, b: Table) -> Table:
    """The seed vstack: per-cell gather + full re-coercion per column."""
    columns = []
    for name in a.column_names:
        col_a, col_b = a[name], b[name]
        values: list[Any] = []
        for i in range(a.n_rows):  # repro: allow-per-row (seed reference)
            values.append(col_a[i])
        for i in range(b.n_rows):  # repro: allow-per-row (seed reference)
            values.append(col_b[i])
        columns.append(Column(name, values, kind=col_a.kind))
    return Table(columns, name=a.name)


@pytest.fixture(scope="module")
def concat_tables(join_tables):
    fact, _dim = join_tables
    half = N_JOIN_ROWS // 2
    return fact.take(range(half)), fact.take(range(half, N_JOIN_ROWS))


def test_table_concat_rows_seed(benchmark, concat_tables):
    a, b = concat_tables
    stacked = benchmark.pedantic(
        lambda: _seed_concat_rows(a, b), rounds=3, iterations=1
    )
    assert _table_cells(stacked) == _table_cells(a.concat_rows(b))


def test_table_concat_rows_encoded(benchmark, concat_tables):
    a, b = concat_tables
    stacked = benchmark.pedantic(
        lambda: a.concat_rows(b), rounds=3, iterations=1
    )
    assert _table_cells(stacked) == _table_cells(_seed_concat_rows(a, b))


# -- pair 4: categorical encoders ----------------------------------------------

N_ENCODE_ROWS = 50_000
N_ENCODE_COLS = 6


@pytest.fixture(scope="module")
def encode_matrix():
    rng = np.random.default_rng(3)
    X = np.empty((N_ENCODE_ROWS, N_ENCODE_COLS), dtype=object)
    for j in range(N_ENCODE_COLS):
        X[:, j] = [
            None if rng.random() < 0.03 else f"cat{j}_{int(v)}"
            for v in rng.integers(0, 20, size=N_ENCODE_ROWS)
        ]
    return X


def _seed_onehot_transform(encoder: OneHotEncoder, X: np.ndarray):
    """The seed ``OneHotEncoder.transform``: per-cell dict probe + scatter."""
    widths = [len(values) for values in encoder.categories_]
    out = np.zeros((X.shape[0], sum(widths)), dtype=np.float64)
    offset = 0
    for j, index in enumerate(encoder._index):
        cats = encoder.categories_[j]
        has_other = bool(cats) and cats[-1] == encoder.OTHER
        for i in range(X.shape[0]):
            value = X[i, j]
            if _is_missing(value):
                continue
            code = index.get(value)
            if code is None and has_other:
                code = index[encoder.OTHER]
            if code is not None:
                out[i, offset + code] = 1.0
        offset += widths[j]
    return out


def _seed_label_transform(encoder: LabelEncoder, y: list[Any]) -> np.ndarray:
    """The seed ``LabelEncoder.transform``: per-cell membership + lookup."""
    out = []
    for value in y:
        if value not in encoder._index:
            raise ValueError(f"unseen label {value!r}")
        out.append(encoder._index[value])
    return np.asarray(out, dtype=np.int64)


def test_table_encode_onehot_seed(benchmark, encode_matrix):
    encoder = OneHotEncoder(max_categories=16).fit(encode_matrix)
    out = benchmark.pedantic(
        lambda: _seed_onehot_transform(encoder, encode_matrix),
        rounds=3, iterations=1,
    )
    np.testing.assert_array_equal(out, encoder.transform(encode_matrix))


def test_table_encode_onehot_encoded(benchmark, encode_matrix):
    encoder = OneHotEncoder(max_categories=16).fit(encode_matrix)
    out = benchmark.pedantic(
        lambda: encoder.transform(encode_matrix), rounds=3, iterations=1
    )
    np.testing.assert_array_equal(
        out, _seed_onehot_transform(encoder, encode_matrix)
    )


def test_table_encode_label_seed(benchmark, encode_matrix):
    y = encode_matrix[:, 0].tolist()
    y = ["<na>" if v is None else v for v in y]
    encoder = LabelEncoder().fit(y)
    out = benchmark.pedantic(
        lambda: _seed_label_transform(encoder, y), rounds=3, iterations=1
    )
    np.testing.assert_array_equal(out, encoder.transform(y))


def test_table_encode_label_encoded(benchmark, encode_matrix):
    y = encode_matrix[:, 0].tolist()
    y = ["<na>" if v is None else v for v in y]
    encoder = LabelEncoder().fit(y)
    out = benchmark.pedantic(
        lambda: encoder.transform(y), rounds=3, iterations=1
    )
    np.testing.assert_array_equal(out, _seed_label_transform(encoder, y))
