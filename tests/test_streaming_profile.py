"""Streaming catalog: parity with the batch profiler and determinism.

The contracts under test (see ``docs/streaming_catalog.md``):

- small tables (within the sketch exact threshold) profile
  *bit-identically* to the batch profiler;
- for fixed ``(seed, chunk_rows)`` the streamed catalog is identical at
  any chunk arrival order;
- incremental fingerprints equal the batch ``column_fingerprint``;
- CSV chunking is quoted-newline-safe, BOM-safe, and constant-width.
"""

from __future__ import annotations

import json
from decimal import Decimal

import numpy as np
import pytest

from repro.catalog import profile_table, profile_table_streaming, chunks_from_table
from repro.catalog.cache import ProfileCache, column_fingerprint
from repro.catalog.streaming import _ColumnChunkArtifacts
from repro.sketch import FingerprintAccumulator
from repro.table.column import Column
from repro.table.io_csv import iter_csv_chunks, read_csv
from repro.table.table import Table


def _catalog_json(catalog):
    return json.dumps(catalog.to_dict(), sort_keys=True, default=str)


@pytest.fixture
def wide_table(rng) -> Table:
    n = 400
    return Table.from_dict(
        {
            "uid": [f"u{i}" for i in range(n)],
            "amount": np.where(rng.random(n) < 0.1, np.nan, rng.normal(50, 9, n)),
            "city": rng.choice(["ams", "ber", "par", "rom"], size=n).tolist(),
            "active": rng.choice(["yes", "no"], size=n).tolist(),
            "label": rng.choice(["0", "1"], size=n).tolist(),
        },
        name="wide",
    )


class TestExactParity:
    def test_small_table_bit_identical(self, wide_table):
        batch = profile_table(wide_table, target="label", task_type="binary")
        streamed = profile_table_streaming(
            chunks_from_table(wide_table, 64),
            target="label",
            task_type="binary",
            chunk_rows=64,
            name=wide_table.name,
        )
        assert _catalog_json(streamed) == _catalog_json(batch)

    def test_small_table_even_chunks_bit_identical(self, wide_table):
        batch = profile_table(wide_table, target="label", task_type="binary")
        streamed = profile_table_streaming(
            chunks_from_table(wide_table, 50),
            target="label",
            task_type="binary",
            chunk_rows=50,
            name=wide_table.name,
        )
        assert _catalog_json(streamed) == _catalog_json(batch)

    def test_fixture_catalog_parity(self, small_classification_table):
        batch = profile_table(
            small_classification_table, target="label", task_type="binary"
        )
        streamed = profile_table_streaming(
            chunks_from_table(small_classification_table, 37),
            target="label",
            task_type="binary",
            chunk_rows=37,
            name=small_classification_table.name,
        )
        assert _catalog_json(streamed) == _catalog_json(batch)


@pytest.fixture(scope="module")
def big_table() -> Table:
    rng = np.random.default_rng(42)
    n = 12_000
    return Table.from_dict(
        {
            "uid": [f"u{i}" for i in range(n)],
            "amount": rng.normal(50, 9, n),
            "city": rng.choice(["ams", "ber", "par", "rom", "mad"], size=n).tolist(),
            "label": rng.choice(["0", "1"], size=n).tolist(),
        },
        name="big",
    )


class TestDegradedDeterminism:
    def test_chunk_arrival_order_invariant(self, big_table):
        chunks = list(chunks_from_table(big_table, 2000))
        shuffled = [chunks[i] for i in [4, 0, 5, 2, 1, 3]]
        a = profile_table_streaming(
            iter(chunks), target="label", task_type="binary", chunk_rows=2000
        )
        b = profile_table_streaming(
            iter(shuffled), target="label", task_type="binary", chunk_rows=2000
        )
        assert _catalog_json(a) == _catalog_json(b)

    def test_field_parity_with_batch(self, big_table):
        batch = {
            p.name: p
            for p in profile_table(
                big_table, target="label", task_type="binary"
            ).profiles()
        }
        streamed = profile_table_streaming(
            chunks_from_table(big_table, 2000),
            target="label",
            task_type="binary",
            chunk_rows=2000,
        )
        for profile in streamed.profiles():
            exact = batch[profile.name]
            assert profile.data_type == exact.data_type
            assert profile.feature_type == exact.feature_type
            assert profile.missing_count == exact.missing_count
            assert profile.categorical_values == exact.categorical_values
            assert profile.target_correlation == exact.target_correlation
            if exact.is_categorical:
                # exact tracking of low-cardinality columns survives
                # degradation: distinct counts stay exact
                assert profile.distinct_count == exact.distinct_count

    def test_seed_changes_catalog_key_material(self, big_table):
        # Different seeds may legitimately differ (sampled artifacts);
        # equal seeds must be identical.
        a = profile_table_streaming(
            chunks_from_table(big_table, 2000),
            target="label", task_type="binary", chunk_rows=2000, seed=7,
        )
        b = profile_table_streaming(
            chunks_from_table(big_table, 2000),
            target="label", task_type="binary", chunk_rows=2000, seed=7,
        )
        assert _catalog_json(a) == _catalog_json(b)


class TestIncrementalFingerprint:
    @pytest.mark.parametrize(
        "values,kind",
        [
            ([1.5, -0.0, None, float("nan"), 3.0] * 20, "numeric"),
            (["a", None, "b", "", "c"] * 20, "string"),
            ([True, False, None, True] * 20, "boolean"),
            # no distinct key: parsed and encoded cell by cell
            ([Decimal("2.5"), Decimal("2.50"), None, ["x"], "a"] * 20, "string"),
        ],
    )
    def test_matches_batch_fingerprint(self, values, kind):
        column = Column("c", values)
        accumulator = FingerprintAccumulator()
        for lo in range(0, len(values), 17):
            chunk = values[lo : lo + 17]
            artifacts = _ColumnChunkArtifacts(
                [None if v is None else v for v in chunk]
            )
            view = artifacts.view_bytes().get(kind)
            assert view is not None
            accumulator.update(*view)
        assert accumulator.fingerprint(column.kind.value) == column_fingerprint(column)

    def test_streaming_catalog_reuses_batch_cache_namespace(self, big_table):
        # Streamed artifacts are keyed separately from batch entries:
        # both paths through one cache must not collide.
        cache = ProfileCache()
        profile_table(big_table, target="label", task_type="binary", cache=cache)
        entries_after_batch = len(cache)
        profile_table_streaming(
            chunks_from_table(big_table, 2000),
            target="label",
            task_type="binary",
            chunk_rows=2000,
            cache=cache,
        )
        assert len(cache) > entries_after_batch
        # A second streamed run hits the memoized streaming entries.
        misses = cache.misses
        profile_table_streaming(
            chunks_from_table(big_table, 2000),
            target="label",
            task_type="binary",
            chunk_rows=2000,
            cache=cache,
        )
        assert cache.misses == misses


class TestCsvChunking:
    def test_quoted_newlines_and_commas(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            'id,note,label\n'
            '1,"line one\nline two",a\n'
            '2,"comma, inside",b\n'
            '3,plain,a\n',
            encoding="utf-8",
        )
        chunks = list(iter_csv_chunks(path, chunk_rows=2))
        assert [c.start_row for c in chunks] == [0, 2]
        assert chunks[0].rows[0][1] == "line one\nline two"
        assert chunks[0].rows[1][1] == "comma, inside"

    def test_utf8_bom_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,label\n1,a\n2,b\n")
        chunks = list(iter_csv_chunks(path, chunk_rows=10))
        assert chunks[0].header == ["id", "label"]

    def test_trailing_empty_columns_dropped(self, tmp_path):
        path = tmp_path / "trail.csv"
        path.write_text("id,label,,\n1,a,,\n2,b,,\n", encoding="utf-8")
        chunks = list(iter_csv_chunks(path, chunk_rows=10))
        assert chunks[0].header == ["id", "label"]
        assert chunks[0].rows == [["1", "a"], ["2", "b"]]

    def test_ragged_rows_normalized(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1,2\n1,2,3,4\n1,2,3\n", encoding="utf-8")
        (chunk,) = iter_csv_chunks(path, chunk_rows=10)
        assert chunk.rows == [["1", "2", None], ["1", "2", "3"], ["1", "2", "3"]]

    def test_chunks_tile_the_file(self, tmp_path):
        path = tmp_path / "tile.csv"
        lines = ["x,y"] + [f"{i},{i % 3}" for i in range(25)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        chunks = list(iter_csv_chunks(path, chunk_rows=7))
        assert [c.start_row for c in chunks] == [0, 7, 14, 21]
        assert sum(c.n_rows for c in chunks) == 25
        table = read_csv(path)
        assert table.n_rows == 25

    def test_streaming_from_path_matches_table(self, tmp_path, wide_table):
        from repro.table.io_csv import write_csv

        path = tmp_path / "wide.csv"
        write_csv(wide_table, path)
        from_path = profile_table_streaming(
            str(path), target="label", task_type="binary", chunk_rows=64
        )
        reread = read_csv(path, name="wide")
        batch = profile_table(
            reread,
            target="label",
            task_type="binary",
            file_path=str(path),
        )
        streamed_cols = {p.name: p for p in from_path.profiles()}
        for profile in batch.profiles():
            streamed = streamed_cols[profile.name]
            assert streamed.data_type == profile.data_type
            assert streamed.distinct_count == profile.distinct_count
            assert streamed.missing_count == profile.missing_count


class TestStreamingErrors:
    def test_missing_target_raises(self, wide_table):
        with pytest.raises(KeyError):
            profile_table_streaming(
                chunks_from_table(wide_table, 64),
                target="nope",
                task_type="binary",
                chunk_rows=64,
            )

    @pytest.mark.parametrize("chunk_rows", [0, -3])
    def test_non_positive_chunk_rows_rejected(self, wide_table, chunk_rows):
        from repro.cli import main
        from repro.datasets.registry import load_dataset

        with pytest.raises(ValueError, match="chunk_rows must be >= 1"):
            list(chunks_from_table(wide_table, chunk_rows))
        bundle = load_dataset("cmc", seed=0, n=150)
        with pytest.raises(ValueError, match="chunk_rows must be >= 1"):
            bundle.profile(streaming=True, chunk_rows=chunk_rows)
        with pytest.raises(ValueError, match="chunk_rows must be >= 1"):
            main(["profile", "cmc", "--rows", "150", "--streaming",
                  "--chunk-rows", str(chunk_rows)])

    def test_empty_source_raises(self):
        with pytest.raises(ValueError):
            profile_table_streaming(
                iter(()), target="x", task_type="binary", chunk_rows=64
            )


class TestBundleAndPrepareWiring:
    def test_bundle_streaming_matches_batch(self):
        from repro.datasets.registry import load_dataset

        bundle = load_dataset("cmc", seed=0, n=150)
        batch = bundle.profile(seed=0)
        streamed = bundle.profile(seed=0, streaming=True, chunk_rows=64)
        assert _catalog_json(streamed) == _catalog_json(batch)
