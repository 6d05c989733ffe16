"""Tests for the cached profiling substrate.

Per-column RNGs are spawned from ``(seed, column position)``, and
embeddings and value-hash sets are memoized by column content.
"""

import numpy as np

from repro.catalog.cache import (
    ProfileCache,
    clear_default_cache,
    column_fingerprint,
    get_default_cache,
)
from repro.catalog.embeddings import (
    column_embedding,
    cosine_similarity,
    find_inclusion_dependencies,
    inclusion_coefficient,
    pairwise_similarities,
)
from repro.catalog.profiler import profile_table, spawn_column_rngs
from repro.table.column import Column
from repro.table.table import Table


def _random_table(rng: np.random.Generator, n_rows: int, n_cols: int) -> Table:
    data = {}
    for i in range(n_cols):
        kind = rng.integers(0, 3)
        if kind == 0:
            data[f"c{i}"] = rng.normal(size=n_rows)
        elif kind == 1:
            data[f"c{i}"] = rng.choice(
                ["red", "green", "blue", "teal"], size=n_rows
            ).tolist()
        else:  # numeric with missing values
            vals = rng.normal(size=n_rows).tolist()
            for j in range(0, n_rows, 4):
                vals[j] = None
            data[f"c{i}"] = vals
    data["y"] = rng.choice(["p", "n"], size=n_rows).tolist()
    return Table.from_dict(data, name="rand")


class TestParallelDeterminism:
    def test_spawned_rngs_independent_of_position_count(self):
        # each column's stream depends only on (seed, position)
        a = spawn_column_rngs(7, 3)
        b = spawn_column_rngs(7, 5)
        for rng_a, rng_b in zip(a, b):
            assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_appended_column_leaves_earlier_samples_unchanged(self):
        rng = np.random.default_rng(5)
        data = {
            "a": rng.normal(size=60).tolist(),
            "b": rng.choice(["red", "green", "blue"], size=60).tolist(),
            "c": rng.normal(size=60).tolist(),
            "y": rng.choice(["p", "n"], size=60).tolist(),
        }
        base = profile_table(
            Table.from_dict(data, name="t"), target="y", task_type="binary",
            seed=11, cache=ProfileCache(),
        )
        data["extra"] = rng.normal(size=60).tolist()
        grown = profile_table(
            Table.from_dict(data, name="t"), target="y", task_type="binary",
            seed=11, cache=ProfileCache(),
        )
        for profile in base.profiles():
            assert grown[profile.name].samples == profile.samples
        # the sampled (non-categorical) columns really drew from their RNG
        assert len(base["a"].samples) == 10 < 60


class TestProfileCache:
    def test_content_keyed_across_names(self):
        cache = ProfileCache()
        a = cache.embedding(Column("a", ["x", "y", "z"]))
        b = cache.embedding(Column("totally_different_name", ["x", "y", "z"]))
        assert cache.hits == 1
        assert (a == b).all()

    def test_different_content_different_entries(self):
        cache = ProfileCache()
        cache.embedding(Column("a", ["x", "y"]))
        cache.embedding(Column("a", ["x", "z"]))
        assert cache.hits == 0

    def test_embedding_and_hash_set_share_one_scan(self):
        cache = ProfileCache()
        cache.embedding(Column("a", ["x", "y", "z"]))
        before = cache.hits
        cache.hash_set(Column("a", ["x", "y", "z"]))
        assert cache.hits == before + 1  # the shared token-stats entry

    def test_missing_mask_in_fingerprint(self):
        with_missing = column_fingerprint(Column("a", [1.0, None, 3.0]))
        without = column_fingerprint(Column("a", [1.0, 2.0, 3.0]))
        assert with_missing != without

    def test_distinct_object_values_distinct_fingerprints(self):
        # md5 digests over encoded values, not built-in hash(): values
        # that collide under tuple-hash tricks must still separate
        fingerprints = {
            column_fingerprint(Column("a", values))
            for values in (
                ["x", "y"], ["y", "x"], ["xy", ""], ["x", "y", "x"],
                ["x", None], [None, "x"], ["1", "2"],
            )
        }
        assert len(fingerprints) == 7

    def test_object_fingerprint_stable_across_hash_seeds(self):
        """The resume/cache key must not depend on PYTHONHASHSEED.

        The old implementation keyed object columns by
        ``hash(tuple(...))``, whose str hashes are salted per process —
        two processes would disagree on every fingerprint.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from repro.catalog.cache import column_fingerprint\n"
            "from repro.table.column import Column\n"
            "print(column_fingerprint("
            "Column('c', ['alpha', None, 'beta', 'beta'])))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ,
                       PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           [str(src)] + sys.path))
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1

    def test_lru_eviction_bounds_memory(self):
        cache = ProfileCache(max_entries=4)
        for i in range(10):
            cache.embedding(Column("a", [f"v{i}"]))
        assert len(cache) == 4

    def test_clear(self):
        cache = ProfileCache()
        cache.embedding(Column("a", ["x"]))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_hash_set_cached(self):
        cache = ProfileCache()
        first = cache.hash_set(Column("a", ["x", "y"]))
        second = cache.hash_set(Column("b", ["x", "y"]))
        assert np.array_equal(first, second) and cache.hits == 1

    def test_default_cache_used_by_metadata_passes(self):
        clear_default_cache()
        table = Table.from_dict({"a": ["x", "y"] * 5, "b": ["x", "y"] * 5})
        pairwise_similarities(table)
        assert get_default_cache().misses > 0
        before = get_default_cache().hits
        pairwise_similarities(table)
        assert get_default_cache().hits > before


class TestVectorizedSimilarities:
    def test_matches_uncached_pair_loop(self):
        rng = np.random.default_rng(1)
        table = _random_table(rng, 40, 6)
        cache = ProfileCache()
        cold = pairwise_similarities(table, cache=cache)
        warm = pairwise_similarities(table, cache=cache)
        assert cache.hits > 0
        assert cold == warm == pairwise_similarities(table, cache=ProfileCache())
        names = table.column_names
        vectors = {name: column_embedding(table[name]) for name in names}
        for a in names:
            assert vectors[a].tobytes() == cache.embedding(table[a]).tobytes()
            expected = {
                b for b in names
                if b != a and cosine_similarity(vectors[a], vectors[b]) >= 0.5
            }
            assert {b for b, _ in cold[a]} == expected

    def test_zero_vector_column_never_similar(self):
        table = Table.from_dict({"a": [None, None], "b": ["x", "y"]})
        sims = pairwise_similarities(table, threshold=0.0)
        # threshold 0.0 technically admits the 0.0 similarity; the zero
        # embedding must not produce spurious >0 scores
        assert all(score == 0.0 for _, score in sims["a"])

    def test_inclusion_dependencies_cached_path(self):
        table = Table.from_dict({
            "fk": ["a", "b", "a"],
            "pk": ["a", "b", "c"],
            "other": ["x", "y", "z"],
        })
        cache = ProfileCache()
        cold = find_inclusion_dependencies(table, cache=cache)
        warm = find_inclusion_dependencies(table, cache=cache)
        assert cache.hits > 0
        assert cold == warm
        assert "pk" in cold["fk"]
        for a in table.column_names:
            assert cold[a] == [
                b for b in table.column_names
                if b != a and inclusion_coefficient(table[a], table[b]) >= 0.95
            ]

