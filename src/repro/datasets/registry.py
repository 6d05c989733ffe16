"""Dataset registry: Table 3 of the paper, with scaled sizes documented.

``load_dataset(name)`` returns a :class:`DatasetBundle` carrying the raw
tables, the unified (joined) table, and the profiling inputs.  The
``paper_rows`` / ``paper_cols`` fields record the original sizes so the
benchmark harness can report the scale factor alongside results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.catalog.catalog import DataCatalog
from repro.catalog.materialize import join_multi_table
from repro.catalog.profiler import profile_table
from repro.datasets import generators as gen
from repro.table.table import Table

__all__ = ["DatasetSpec", "DatasetBundle", "DATASET_SPECS", "list_datasets", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 3."""

    dataset_id: int
    name: str
    task_type: str  # "binary" | "multiclass" | "regression"
    paper_tables: int
    paper_rows: int
    paper_cols: int
    paper_classes: int
    generator: Callable[..., gen.GeneratorResult]
    description: str = ""
    size_class: str = "small"  # "small" | "large" (drives Fig 9 shape)


@dataclass
class DatasetBundle:
    """A loaded dataset, ready for profiling and generation."""

    spec: DatasetSpec
    tables: list[Table]
    target: str
    task_type: str
    join_plan: list[tuple[str, str, str]]
    n_classes: int
    seed: int = 0
    _unified: Table | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def unified(self) -> Table:
        """Single-table (joined) view of the dataset."""
        if self._unified is None:
            if len(self.tables) == 1:
                self._unified = self.tables[0]
            else:
                self._unified = join_multi_table(self.tables, self.join_plan)
        return self._unified

    def profile(
        self,
        seed: int = 0,
        streaming: bool = False,
        chunk_rows: int | None = None,
        **kwargs: Any,
    ) -> DataCatalog:
        if streaming:
            from repro.catalog.streaming import (
                chunks_from_table,
                profile_table_streaming,
            )
            from repro.table.io_csv import DEFAULT_CHUNK_ROWS

            rows_per_chunk = (
                DEFAULT_CHUNK_ROWS if chunk_rows is None else chunk_rows
            )
            table = self.unified
            return profile_table_streaming(
                chunks_from_table(table, rows_per_chunk),
                target=self.target,
                task_type=self.task_type,
                chunk_rows=rows_per_chunk,
                seed=seed,
                name=table.name,
                n_tables=len(self.tables),
                description=self.spec.description,
                **kwargs,
            )
        return profile_table(
            self.unified,
            target=self.target,
            task_type=self.task_type,
            n_tables=len(self.tables),
            description=self.spec.description,
            seed=seed,
            **kwargs,
        )

    @property
    def scale_factor(self) -> float:
        """paper rows / reproduced rows."""
        return self.spec.paper_rows / max(1, self.unified.n_rows)


DATASET_SPECS: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    DATASET_SPECS[spec.name] = spec


_register(DatasetSpec(1, "wifi", "binary", 1, 98, 9, 2, gen.make_wifi,
                      "tiny wifi diagnostics; constant column + messy categorical"))
_register(DatasetSpec(2, "diabetes", "binary", 1, 768, 9, 2, gen.make_diabetes,
                      "clinical measurements with unrecorded-as-missing values"))
_register(DatasetSpec(3, "tictactoe", "binary", 1, 958, 10, 2, gen.make_tictactoe,
                      "pure categorical board states"))
_register(DatasetSpec(4, "imdb", "binary", 7, 30_530_313, 15, 2, gen.make_imdb,
                      "7-table movie star schema", size_class="large"))
_register(DatasetSpec(5, "kdd98", "binary", 1, 82_318, 478, 2, gen.make_kdd98,
                      "very wide sparse direct-mail response", size_class="large"))
_register(DatasetSpec(6, "walking", "multiclass", 1, 149_332, 5, 22, gen.make_walking,
                      "narrow accelerometer traces, 22 classes", size_class="large"))
_register(DatasetSpec(7, "cmc", "multiclass", 1, 1_473, 10, 3, gen.make_cmc,
                      "integer-coded categoricals read as numeric by naive profiling"))
_register(DatasetSpec(8, "eu_it", "multiclass", 1, 1_253, 23, 148, gen.make_eu_it,
                      "categorical-only survey with dirty duplicate target labels"))
_register(DatasetSpec(9, "survey", "multiclass", 1, 2_778, 29, 9, gen.make_survey,
                      "survey with sentence feature refinable to categorical"))
_register(DatasetSpec(10, "etailing", "multiclass", 1, 439, 44, 5, gen.make_etailing,
                      "small wide retail survey, duplicate spellings correlate with target"))
_register(DatasetSpec(11, "accidents", "multiclass", 3, 954_036, 46, 6, gen.make_accidents,
                      "3-table traffic accidents", size_class="large"))
_register(DatasetSpec(12, "financial", "multiclass", 8, 552_017, 62, 4, gen.make_financial,
                      "8-table PKDD financial loans", size_class="large"))
_register(DatasetSpec(13, "airline", "multiclass", 19, 445_827, 115, 3, gen.make_airline,
                      "19-table flight delays", size_class="large"))
_register(DatasetSpec(14, "gas_drift", "multiclass", 1, 13_910, 129, 6, gen.make_gas_drift,
                      "wide all-numeric sensor array", size_class="large"))
_register(DatasetSpec(15, "volkert", "multiclass", 1, 58_310, 181, 10, gen.make_volkert,
                      "wide numeric 10-class benchmark", size_class="large"))
_register(DatasetSpec(16, "yelp", "multiclass", 4, 229_907, 194, 9, gen.make_yelp,
                      "4-table reviews with list features and hashed day columns",
                      size_class="large"))
_register(DatasetSpec(17, "bike_sharing", "regression", 1, 17_379, 12, 869,
                      gen.make_bike_sharing, "hourly rental counts"))
_register(DatasetSpec(18, "utility", "regression", 1, 4_574, 13, 95, gen.make_utility,
                      "utility consumption with messy tariff categories"))
_register(DatasetSpec(19, "nyc", "regression", 1, 581_835, 17, 1_811, gen.make_nyc,
                      "taxi fares", size_class="large"))
_register(DatasetSpec(20, "house_sales", "regression", 1, 21_613, 18, 4_028,
                      gen.make_house_sales, "house prices"))


def list_datasets(task_type: str | None = None) -> list[str]:
    """Dataset names in Table 3 order, optionally filtered by task."""
    specs = sorted(DATASET_SPECS.values(), key=lambda s: s.dataset_id)
    return [s.name for s in specs if task_type is None or s.task_type == task_type]


def load_dataset(name: str, seed: int = 0, **overrides: Any) -> DatasetBundle:
    """Generate a dataset by name; ``overrides`` reach the generator
    (e.g. ``n=500`` for a smaller instance)."""
    if name not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; available: {list_datasets()}")
    spec = DATASET_SPECS[name]
    tables, target, task_type, join_plan, n_classes = spec.generator(
        seed=seed, **overrides
    )
    return DatasetBundle(
        spec=spec, tables=tables, target=target, task_type=task_type,
        join_plan=join_plan, n_classes=n_classes, seed=seed,
    )
