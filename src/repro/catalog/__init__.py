"""Data catalog: profiling, metadata, refinement, and materialization.

Implements paper Sections 3.1-3.2: Algorithm 1 (PROFILING), the data
catalog store, LLM-assisted catalog refinement (feature type inference,
composite/sentence splitting, categorical deduplication: decided once,
then replayed on every split by ``RefinementResult.apply_to``), and the
multi-table join into the prepared single-table dataset.
"""

from repro.catalog.cache import (
    ProfileCache,
    clear_default_cache,
    column_fingerprint,
    get_default_cache,
)
from repro.catalog.catalog import ColumnProfile, DataCatalog, DatasetInfo
from repro.catalog.feature_types import FeatureType
from repro.catalog.materialize import join_multi_table
from repro.catalog.profiler import profile_dataset, profile_table
from repro.catalog.refinement import RefinementResult, refine_catalog
from repro.catalog.streaming import (
    chunks_from_table,
    peak_rss_bytes,
    profile_table_streaming,
)

__all__ = [
    "ColumnProfile",
    "DataCatalog",
    "DatasetInfo",
    "FeatureType",
    "join_multi_table",
    "profile_dataset",
    "profile_table",
    "profile_table_streaming",
    "chunks_from_table",
    "peak_rss_bytes",
    "ProfileCache",
    "clear_default_cache",
    "column_fingerprint",
    "get_default_cache",
    "RefinementResult",
    "refine_catalog",
]
