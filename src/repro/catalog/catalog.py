"""The data catalog store: column profiles plus dataset-level metadata."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.catalog.feature_types import FeatureType

__all__ = ["ColumnProfile", "DatasetInfo", "DataCatalog"]


@dataclass
class ColumnProfile:
    """Everything Algorithm 1 extracts for one column."""

    name: str
    data_type: str  # physical: "number" | "string" | "boolean"
    feature_type: FeatureType
    is_categorical: bool
    distinct_count: int
    distinct_percentage: float  # % of rows with a distinct value
    missing_count: int
    missing_percentage: float
    samples: list[Any] = field(default_factory=list)
    statistics: dict[str, float] = field(default_factory=dict)  # numeric only
    inclusion_dependencies: list[str] = field(default_factory=list)
    similarities: list[tuple[str, float]] = field(default_factory=list)
    target_correlation: float = 0.0
    categorical_values: list[Any] = field(default_factory=list)
    refined_from: str | None = None  # original column when created by refinement
    list_delimiter: str | None = None  # set for List features by refinement

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["feature_type"] = self.feature_type.value
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ColumnProfile":
        data = dict(data)
        data["feature_type"] = FeatureType(data["feature_type"])
        data["similarities"] = [tuple(s) for s in data.get("similarities", [])]
        return cls(**data)


@dataclass
class DatasetInfo:
    """Dataset-level facts encoded into prompts (paths, task, shape)."""

    name: str
    task_type: str  # "binary" | "multiclass" | "regression"
    target: str
    n_rows: int
    n_cols: int
    n_tables: int = 1
    file_path: str = ""
    file_format: str = "csv"
    delimiter: str = ","
    description: str = ""

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DatasetInfo":
        return cls(**data)


class DataCatalog:
    """Profiles for one dataset: ordered column profiles + dataset info."""

    def __init__(self, info: DatasetInfo, profiles: list[ColumnProfile]) -> None:
        self.info = info
        self._profiles: dict[str, ColumnProfile] = {}
        for profile in profiles:
            if profile.name in self._profiles:
                raise ValueError(f"duplicate profile for column {profile.name!r}")
            self._profiles[profile.name] = profile

    # -- access ------------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return list(self._profiles)

    def __contains__(self, name: str) -> bool:
        return name in self._profiles

    def __getitem__(self, name: str) -> ColumnProfile:
        try:
            return self._profiles[name]
        except KeyError:
            raise KeyError(
                f"no profile for column {name!r}; have {self.column_names}"
            ) from None

    def __len__(self) -> int:
        return len(self._profiles)

    def profiles(self) -> list[ColumnProfile]:
        return list(self._profiles.values())

    def feature_profiles(self) -> list[ColumnProfile]:
        """Profiles of non-target columns."""
        return [p for p in self.profiles() if p.name != self.info.target]

    @property
    def target_profile(self) -> ColumnProfile:
        return self[self.info.target]

    def subset(self, names: list[str]) -> "DataCatalog":
        """Catalog restricted to ``names`` (target always kept)."""
        keep = list(names)
        if self.info.target not in keep and self.info.target in self._profiles:
            keep.append(self.info.target)
        profiles = [self._profiles[n] for n in keep if n in self._profiles]
        info = DatasetInfo(**{**self.info.to_dict(), "n_cols": len(profiles)})
        return DataCatalog(info, profiles)

    # -- persistence -----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "info": self.info.to_dict(),
            "columns": [p.to_dict() for p in self.profiles()],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def save(self, path: str | os.PathLike[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DataCatalog":
        info = DatasetInfo.from_dict(data["info"])
        profiles = [ColumnProfile.from_dict(c) for c in data["columns"]]
        return cls(info, profiles)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "DataCatalog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self) -> str:
        return (
            f"DataCatalog(dataset={self.info.name!r}, task={self.info.task_type!r}, "
            f"columns={len(self)}, target={self.info.target!r})"
        )
