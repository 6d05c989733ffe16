"""Figure 9 — data profiling runtime and data type distribution.

(a) per-dataset offline profiling wall time; the paper reports ~6 min for
large datasets and <50 s for small ones — on scaled data the *ordering*
(large datasets slowest) is the reproduced shape.
(b) distribution of feature types across each dataset's columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.datasets.registry import DATASET_SPECS, load_dataset
from repro.experiments.common import _QUICK_SIZES, format_table

__all__ = ["Fig9Result", "run"]


@dataclass
class Fig9Result:
    rows: list[dict] = field(default_factory=list)

    def profiling_seconds(self) -> dict[str, float]:
        return {r["dataset"]: r["profiling_seconds"] for r in self.rows}

    def type_distribution(self) -> dict[str, dict[str, int]]:
        return {r["dataset"]: r["types"] for r in self.rows}

    def render(self) -> str:
        headers = ["dataset", "size", "rows", "cols", "profile[s]",
                   "numerical", "categorical", "other"]
        table_rows = []
        for r in self.rows:
            table_rows.append([
                r["dataset"], r["size_class"], r["n_rows"], r["n_cols"],
                f"{r['profiling_seconds']:.3f}",
                r["types"].get("Numerical", 0),
                r["types"].get("Categorical", 0) + r["types"].get("Boolean", 0),
                sum(v for k, v in r["types"].items()
                    if k not in ("Numerical", "Categorical", "Boolean")),
            ])
        return format_table(headers, table_rows,
                            title="Figure 9: profiling runtime & type distribution")


def run(
    datasets: list[str] | None = None,
    quick: bool = True,
    seed: int = 0,
) -> Fig9Result:
    names = datasets if datasets is not None else list(DATASET_SPECS)
    result = Fig9Result()
    for name in names:
        overrides = {}
        if quick and name in _QUICK_SIZES:
            overrides["n"] = _QUICK_SIZES[name]
        bundle = load_dataset(name, seed=seed, **overrides)
        unified = bundle.unified  # materialize joins before timing profiling
        start = time.perf_counter()
        catalog = bundle.profile(seed=seed)
        elapsed = time.perf_counter() - start
        types: dict[str, int] = {}
        for profile in catalog.profiles():
            key = profile.feature_type.value
            types[key] = types.get(key, 0) + 1
        result.rows.append({
            "dataset": name,
            "size_class": bundle.spec.size_class,
            "n_rows": unified.n_rows,
            "n_cols": unified.n_cols,
            "paper_rows": bundle.spec.paper_rows,
            "profiling_seconds": elapsed,
            "types": types,
        })
    return result
