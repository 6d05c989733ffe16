"""Streaming Algorithm 1: profile chunked/sharded data via mergeable sketches.

:func:`profile_table_streaming` produces the same :class:`DataCatalog`
schema as the batch :func:`~repro.catalog.profiler.profile_table`
without ever holding the table in memory.  Chunks (from
:func:`repro.table.io_csv.iter_csv_chunks`, or any iterable of
:class:`~repro.table.io_csv.CsvChunk`) are summarized into per-column
:class:`~repro.sketch.ColumnSketch` / :class:`~repro.sketch.PairSketch`
deltas one chunk at a time, and each summary is folded in **canonical
start-row order** (a reorder buffer absorbs out-of-order shards), so the
result is bit-identical for a given ``(seed, chunk_rows)`` at any chunk
arrival order.

Memory model: exactly one chunk is resident at a time, plus
constant-size sketch state per column — O(chunk_rows) cells, independent
of file size.

Exactness: while the stream fits the sketches' exact threshold the fold
reconstructs real columns and delegates to the batch profiler, so small
tables produce bit-identical catalogs.  Past the threshold, counts that
stay exact (rows, missing, kind, extrema, mean/std) match the batch
path; distinct counts, samples, embeddings and correlations become
seeded deterministic estimates (see ``docs/streaming_catalog.md``).
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from repro.catalog.cache import ProfileCache, get_default_cache
from repro.catalog.catalog import ColumnProfile, DataCatalog, DatasetInfo
from repro.catalog.embeddings import (
    _embedding_from_stats,
    _hash_set_from_stats,
    _stats_from_counts,
    inclusions_from_hash_sets,
    similarities_from_vectors,
)
from repro.catalog.feature_types import FeatureType, infer_feature_type_from_stats
from repro.catalog.profiler import DEFAULT_SAMPLES, profile_table
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.sketch import (
    ColumnSketch,
    ColumnSketchResult,
    FingerprintAccumulator,
    PairSketch,
    SketchConfig,
)
from repro.sketch.column import _ColumnChunkArtifacts
from repro.table.io_csv import DEFAULT_CHUNK_ROWS, CsvChunk, iter_csv_chunks
from repro.table.table import Table

__all__ = ["profile_table_streaming", "chunks_from_table", "peak_rss_bytes"]


def peak_rss_bytes() -> int:
    """Process peak resident set size in bytes (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak_kb) * 1024


def chunks_from_table(
    table: Table, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Iterator[CsvChunk]:
    """Adapt an in-memory :class:`Table` (e.g. one shard) into chunks."""
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    header = list(table.column_names)
    columns = [list(table[name]) for name in header]
    all_rows = [list(row) for row in zip(*columns)]
    for start in range(0, table.n_rows, chunk_rows):  # repro: allow-per-row (steps per chunk, not per row)
        stop = min(start + chunk_rows, table.n_rows)
        yield CsvChunk(
            header=header, start_row=start, rows=all_rows[start:stop]
        )
    if table.n_rows == 0:
        yield CsvChunk(header=header, start_row=0, rows=[])


class _ChunkSummary:
    """Everything the profiler extracts from one chunk."""

    __slots__ = ("start_row", "n_rows", "sketches", "pairs", "view_bytes")

    def __init__(
        self,
        start_row: int,
        n_rows: int,
        sketches: list[ColumnSketch],
        pairs: list[PairSketch | None],
        view_bytes: list[dict],
    ) -> None:
        self.start_row = start_row
        self.n_rows = n_rows
        self.sketches = sketches
        self.pairs = pairs
        self.view_bytes = view_bytes


def _summarize_chunk(
    chunk: CsvChunk, config: SketchConfig, target_index: int
) -> _ChunkSummary:
    with get_tracer().span("profile.chunk", start_row=chunk.start_row,
                           rows=chunk.n_rows):
        names = chunk.header
        artifacts: list[_ColumnChunkArtifacts] = []
        sketches: list[ColumnSketch] = []
        view_bytes: list[dict] = []
        for index, name in enumerate(names):
            art = _ColumnChunkArtifacts(chunk.column_values(index))
            artifacts.append(art)
            sketch = ColumnSketch(config, name, index)
            sketch.update(art, chunk.start_row)
            sketches.append(sketch)
            view_bytes.append(art.view_bytes())
        target_art = artifacts[target_index]
        pairs: list[PairSketch | None] = []
        for index in range(len(names)):
            if index == target_index:
                pairs.append(None)
                continue
            pair = PairSketch(config)
            art = artifacts[index]
            pair.update(
                art.tokens, art.floats,
                target_art.tokens, target_art.floats,
                chunk.start_row,
            )
            pairs.append(pair)
        return _ChunkSummary(
            chunk.start_row, chunk.n_rows, sketches, pairs, view_bytes
        )


class _StreamFold:
    """Canonical-order fold of chunk summaries with a reorder buffer.

    Summaries merge in ascending ``start_row`` order regardless of how
    chunks arrive; out-of-order summaries wait in ``_pending``.  This is
    what makes heavy-hitter pruning, moment folds, and the running
    fingerprints deterministic and chunk-order-independent.
    """

    def __init__(self, config: SketchConfig, names: list[str], target_index: int) -> None:
        self.names = names
        self.target_index = target_index
        self.sketches = [
            ColumnSketch(config, name, i) for i, name in enumerate(names)
        ]
        self.pairs: list[PairSketch | None] = [
            None if i == target_index else PairSketch(config)
            for i in range(len(names))
        ]
        self.fingerprints: list[dict[str, FingerprintAccumulator]] = [
            {
                "numeric": FingerprintAccumulator(),
                "string": FingerprintAccumulator(),
                "boolean": FingerprintAccumulator(),
            }
            for _ in names
        ]
        self.n_rows = 0
        self.n_chunks = 0
        self._next_row = 0
        self._pending: dict[int, _ChunkSummary] = {}

    def add(self, summary: _ChunkSummary) -> None:
        self._pending[summary.start_row] = summary
        while self._next_row in self._pending:
            ready = self._pending.pop(self._next_row)
            self._fold(ready)
            self._next_row += ready.n_rows

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _fold(self, summary: _ChunkSummary) -> None:
        metrics = get_metrics()
        for index, sketch in enumerate(summary.sketches):
            self.sketches[index].merge(sketch)
            pair = summary.pairs[index]
            mine = self.pairs[index]
            if pair is not None and mine is not None:
                mine.merge(pair)
            accs = self.fingerprints[index]
            views = summary.view_bytes[index]
            for view in list(accs):
                material = views.get(view)
                if material is None:
                    # this chunk rules the view out (e.g. non-boolean
                    # values); the final kind cannot be that view either
                    del accs[view]
                else:
                    accs[view].update(*material)
        metrics.inc("sketch.merges", len(summary.sketches))
        self.n_rows += summary.n_rows
        self.n_chunks += 1

    def all_exact(self) -> bool:
        return all(sketch.is_exact for sketch in self.sketches)

    def fingerprint_for(self, index: int, kind_name: str) -> tuple | None:
        view = {"numeric": "numeric", "string": "string", "boolean": "boolean"}[
            kind_name
        ]
        acc = self.fingerprints[index].get(view)
        if acc is None:
            return None
        return acc.fingerprint(kind_name)


def _resolve_chunks(
    source: "str | os.PathLike[str] | Iterable[CsvChunk]",
    chunk_rows: int,
    delimiter: str | None,
) -> tuple[Iterator[CsvChunk], str, str]:
    """Normalize the source into (chunk iterator, name, file_path)."""
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        base = os.path.splitext(os.path.basename(path))[0] or "table"
        return (
            iter_csv_chunks(path, chunk_rows=chunk_rows, delimiter=delimiter),
            base,
            path,
        )
    return iter(source), "", ""


def profile_table_streaming(
    source: "str | os.PathLike[str] | Iterable[CsvChunk]",
    target: str,
    task_type: str,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    tau_1: int = DEFAULT_SAMPLES,
    seed: int = 0,
    config: SketchConfig | None = None,
    with_dependencies: bool = True,
    cache: ProfileCache | None = None,
    name: str | None = None,
    n_tables: int = 1,
    file_path: str = "",
    delimiter: str | None = None,
    description: str = "",
) -> DataCatalog:
    """Profile a chunked stream into a :class:`DataCatalog`.

    ``source`` is a CSV path (streamed with :func:`iter_csv_chunks`) or
    any iterable of :class:`CsvChunk` (e.g. shards adapted through
    :func:`chunks_from_table`).  The output schema is exactly the batch
    profiler's; small streams (within the sketch exact threshold) are
    delegated to it for bit-identical results.
    """
    if config is None:
        config = SketchConfig(seed=seed)
    tracer = get_tracer()
    metrics = get_metrics()
    chunks, source_name, source_path = _resolve_chunks(
        source, chunk_rows, delimiter
    )
    table_name = name or source_name or "table"
    file_path = file_path or source_path or f"{table_name}.csv"
    delimiter = delimiter or ","
    with tracer.span(
        "profile.streaming", dataset=table_name, chunk_rows=chunk_rows,
    ):
        fold: _StreamFold | None = None
        for chunk in chunks:
            if fold is None:
                header = chunk.header
                if target not in header:
                    raise KeyError(f"target column {target!r} not in table")
                fold = _StreamFold(config, header, header.index(target))
            fold.add(_summarize_chunk(chunk, config, fold.target_index))
            metrics.inc("profile.chunks")
        if fold is None:
            raise ValueError("source produced no chunks")
        if fold.pending_count:
            raise ValueError(
                "chunk row ranges do not tile the stream "
                f"({fold.pending_count} chunks unplaceable)"
            )
        metrics.gauge("profile.peak_rss_bytes", float(peak_rss_bytes()))
        if fold.all_exact():
            # small stream: rebuild the real table, defer to the batch
            # profiler for bit-identical output
            columns = [sketch.exact_column() for sketch in fold.sketches]
            table = Table(columns, name=table_name)
            return profile_table(
                table,
                target=target,
                task_type=task_type,
                tau_1=tau_1,
                n_tables=n_tables,
                file_path=file_path,
                delimiter=delimiter,
                description=description,
                seed=seed,
                with_dependencies=with_dependencies,
                cache=cache,
            )
        return _assemble_catalog(
            fold, target, task_type, tau_1, with_dependencies,
            cache, table_name, n_tables, file_path, delimiter, description,
        )


def _assemble_catalog(
    fold: _StreamFold,
    target: str,
    task_type: str,
    tau_1: int,
    with_dependencies: bool,
    cache: ProfileCache | None,
    table_name: str,
    n_tables: int,
    file_path: str,
    delimiter: str,
    description: str,
) -> DataCatalog:
    n_rows = fold.n_rows
    names = fold.names
    results = [sketch.finalize(tau_1) for sketch in fold.sketches]
    profiles = [
        _profile_from_result(result, n_rows) for result in results
    ]
    if with_dependencies:
        cache_obj = cache if cache is not None else get_default_cache()
        with get_tracer().span("profile.dependencies", streaming=True):
            vectors = []
            hash_sets = {}
            for index, result in enumerate(results):
                fingerprint = fold.fingerprint_for(
                    index, {"number": "numeric", "string": "string",
                            "boolean": "boolean"}[result.data_type]
                )
                stats = _memo_stats(cache_obj, fingerprint, result)
                vectors.append(_embedding_from_stats(stats))
                hash_sets[names[index]] = _hash_set_from_stats(stats)
            similarities = similarities_from_vectors(names, vectors)
            inclusion = inclusions_from_hash_sets(names, hash_sets)
            target_index = fold.target_index
            target_numeric = results[target_index].is_numeric
            for index, profile in enumerate(profiles):
                profile.similarities = similarities.get(profile.name, [])
                profile.inclusion_dependencies = inclusion.get(profile.name, [])
                pair = fold.pairs[index]
                if pair is not None:
                    profile.target_correlation = round(
                        pair.correlation(
                            results[index].is_numeric, target_numeric
                        ),
                        4,
                    )
    metrics = get_metrics()
    metrics.inc("profile.tables")
    metrics.inc("profile.columns", len(names))
    info = DatasetInfo(
        name=table_name,
        task_type=task_type,
        target=target,
        n_rows=n_rows,
        n_cols=len(names),
        n_tables=n_tables,
        file_path=file_path,
        delimiter=delimiter,
        description=description,
    )
    return DataCatalog(info, profiles)


def _memo_stats(
    cache_obj: ProfileCache,
    fingerprint: tuple | None,
    result: ColumnSketchResult,
) -> list:
    """Token stats (embedding + hash-set precursor) via the cache.

    Keyed under a streaming-specific namespace: sketch-derived stats are
    estimates over all rows, whereas the batch entries are windowed —
    the two must never answer for each other.
    """
    compute = lambda: _stats_from_counts(result.token_items)  # noqa: E731
    if fingerprint is None:
        return compute()
    return cache_obj.memo(("stream-stats", *fingerprint), compute)


def _profile_from_result(result: ColumnSketchResult, n_rows: int) -> ColumnProfile:
    distinct_pct = 100.0 * result.distinct_count / n_rows if n_rows else 0.0
    missing_pct = 100.0 * result.missing_count / n_rows if n_rows else 0.0
    feature_type = infer_feature_type_from_stats(
        n_present=result.n_present,
        distinct_count=result.distinct_count,
        distinct_fraction=distinct_pct / 100.0,
        is_numeric=result.is_numeric,
        n_rows=n_rows,
        all_integer=result.all_integer,
        in_boolean_domain=result.in_bool_domain,
        evidence=result.evidence,
    )
    is_categorical = feature_type in (FeatureType.CATEGORICAL, FeatureType.BOOLEAN)
    if is_categorical:
        if result.distinct_values is not None:
            categorical_values = list(result.distinct_values)
        else:
            # distinct sketch degraded: fall back to the heavy hitters
            categorical_values = [value for value, _ in result.class_counts_items]
        samples = list(categorical_values)
        statistics: dict = {
            "class_counts": [count for _, count in result.class_counts_items]
        }
    else:
        categorical_values = []
        samples = list(result.samples_pool)
        if result.is_numeric:
            statistics = dict(result.statistics)
        else:
            statistics = {}
    return ColumnProfile(
        name=result.name,
        data_type=result.data_type,
        feature_type=feature_type,
        is_categorical=is_categorical,
        distinct_count=result.distinct_count,
        distinct_percentage=round(distinct_pct, 4),
        missing_count=result.missing_count,
        missing_percentage=round(missing_pct, 4),
        samples=samples,
        statistics=statistics,
        categorical_values=categorical_values,
    )
