"""Per-column composite sketch: everything Algorithm 1 needs, mergeable.

A :class:`ColumnSketch` summarizes one column of a chunked/sharded
stream.  Raw cell values go in (CSV tokens or scalars from table
shards); out comes every per-column field of a
:class:`~repro.catalog.catalog.ColumnProfile`.

Two complications drive the design:

**Exact mode.**  While the column has at most ``exact_threshold`` rows
the sketch just buffers ``(row, raw_value)`` pairs.  ``exact_column()``
then rebuilds a real :class:`~repro.table.column.Column`, and the
streaming profiler runs the *batch* profiler on it — small tables are
bit-identical to the batch path by construction, not by re-implementation.

**Kind is only known at the end.**  The batch path infers
:class:`ColumnKind` from all values before coercing; a stream cannot.
Past the threshold the sketch therefore maintains up to three *views*
in parallel — numeric (values parsed as floats), string (values
formatted as the batch string coercion would), boolean — each with its
own missing count, KMV distinct sketch, SpaceSaving counts, reservoir,
and moments where applicable.  :class:`~repro.sketch.accumulators.KindFlags`
replicates the batch kind inference; ``finalize`` picks the winning
view.  Views that can no longer win (e.g. numeric once a non-numeric
string appeared) are dropped on update/merge to reclaim memory.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.sketch.accumulators import (
    BOOLEAN_DOMAIN,
    FirstKEvidence,
    KindFlags,
    TokenStats,
    canonical_token,
)
from repro.sketch.base import SketchConfig
from repro.sketch.heavyhitters import SpaceSavingSketch
from repro.sketch.kmv import KMVSketch
from repro.sketch.moments import MomentsSketch
from repro.sketch.reservoir import ReservoirSketch
from repro.table.column import (
    Column,
    ColumnKind,
    _format_value,
    _is_missing_scalar,
    _to_bool,
    factorize,
)

__all__ = ["ColumnSketch", "ColumnSketchResult"]


class _NumericView:
    """State for the outcome «this column coerces to float64»."""

    __slots__ = (
        "n_missing", "all_integer", "moments", "quantiles", "kmv", "heavy", "tokens",
    )

    def __init__(self, config: SketchConfig, position: int) -> None:
        self.n_missing = 0  # raw-missing plus unparseable, as batch coercion counts
        self.all_integer = True
        self.moments = MomentsSketch()
        self.quantiles = ReservoirSketch(
            config.quantile_k,
            key=config.spawn_key(position, "quantiles"),
            exact_threshold=config.exact_threshold,
            numeric=True,
        )
        self.kmv = KMVSketch.from_config(config, key=config.spawn_key(position, "kmv-num"))
        self.heavy = SpaceSavingSketch.from_config(config)
        self.tokens = TokenStats(config.stats_cap)

    def update(self, parsed: np.ndarray, mask: np.ndarray, rows: np.ndarray) -> None:
        self.n_missing += int(mask.sum())
        present = parsed[~mask] + 0.0  # +0.0 folds -0.0 into 0.0 (batch str/== parity)
        present_rows = rows[~mask]
        if present.size == 0:
            return
        if self.all_integer:
            self.all_integer = bool(np.all(present == np.floor(present)))
        self.moments.update(present)
        self.quantiles.update(present, present_rows)
        values = present.tolist()
        row_list = present_rows.tolist()
        self.kmv.update(values, row_list)
        self.heavy.update(values, row_list)
        self.tokens.update(map(canonical_token, values), row_list)

    def merge(self, other: "_NumericView") -> "_NumericView":
        self.n_missing += other.n_missing
        self.all_integer = self.all_integer and other.all_integer
        self.moments.merge(other.moments)
        self.quantiles.merge(other.quantiles)
        self.kmv.merge(other.kmv)
        self.heavy.merge(other.heavy)
        self.tokens.merge(other.tokens)
        return self

    def canonical_state(self) -> tuple:
        return (
            self.n_missing,
            self.all_integer,
            self.moments.canonical_state(),
            self.quantiles.canonical_state(),
            self.kmv.canonical_state(),
            self.heavy.canonical_state(),
            self.tokens.canonical_state(),
        )


class _StringView:
    """State for the outcome «this column stays string-typed»."""

    __slots__ = ("kmv", "heavy", "reservoir", "evidence", "tokens", "in_bool_domain")

    def __init__(self, config: SketchConfig, position: int) -> None:
        self.kmv = KMVSketch.from_config(config, key=config.spawn_key(position, "kmv-str"))
        self.heavy = SpaceSavingSketch.from_config(config)
        self.reservoir = ReservoirSketch(
            max(config.quantile_k, 64),
            key=config.spawn_key(position, "reservoir-str"),
            exact_threshold=config.exact_threshold,
        )
        self.evidence = FirstKEvidence(config.evidence_k)
        self.tokens = TokenStats(config.stats_cap)
        self.in_bool_domain = True  # lowered tokens all in the Boolean domain

    def update(self, formatted: list[str], rows: list[int]) -> None:
        if not formatted:
            return
        # canonical_token of a str, inlined: this runs once per cell
        lowered = [v.strip().lower() for v in formatted]
        if self.in_bool_domain:
            self.in_bool_domain = all(v in BOOLEAN_DOMAIN for v in lowered)
        self.kmv.update(formatted, rows)
        self.heavy.update(formatted, rows)
        self.reservoir.update(formatted, rows)
        self.evidence.update(formatted, rows)
        self.tokens.update(lowered, rows)

    def merge(self, other: "_StringView") -> "_StringView":
        self.kmv.merge(other.kmv)
        self.heavy.merge(other.heavy)
        self.reservoir.merge(other.reservoir)
        self.evidence.merge(other.evidence)
        self.tokens.merge(other.tokens)
        self.in_bool_domain = self.in_bool_domain and other.in_bool_domain
        return self

    def canonical_state(self) -> tuple:
        return (
            self.in_bool_domain,
            self.kmv.canonical_state(),
            self.heavy.canonical_state(),
            self.reservoir.canonical_state(),
            self.evidence.canonical_state(),
            self.tokens.canonical_state(),
        )


class _BoolView:
    """State for the outcome «this column coerces to booleans».

    The domain has two values, so exact counts with first-seen rows are
    always affordable; no approximation ever applies here.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[bool, list[int]] = {}  # value -> [count, first_row]

    def update(self, values: list[Any], rows: list[int]) -> None:
        for value, row in zip(values, rows):
            flag = _to_bool(value)
            entry = self.counts.get(flag)
            if entry is not None:
                entry[0] += 1
                if row < entry[1]:
                    entry[1] = row
            else:
                self.counts[flag] = [1, row]

    def merge(self, other: "_BoolView") -> "_BoolView":
        for flag, (count, row) in other.counts.items():
            entry = self.counts.get(flag)
            if entry is not None:
                entry[0] += count
                if row < entry[1]:
                    entry[1] = row
            else:
                self.counts[flag] = [count, row]
        return self

    def canonical_state(self) -> tuple:
        return tuple(sorted(
            (flag, entry[0], entry[1]) for flag, entry in self.counts.items()
        ))


class ColumnSketchResult:
    """Finalized per-column fields in ``ColumnProfile`` vocabulary."""

    __slots__ = (
        "name", "data_type", "is_numeric", "n_present", "distinct_count",
        "missing_count", "all_integer", "in_bool_domain", "evidence",
        "samples_pool", "distinct_values", "class_counts_items",
        "statistics", "token_items", "approximate",
    )

    def __init__(self, **fields: Any) -> None:
        for slot in self.__slots__:
            setattr(self, slot, fields[slot])


class ColumnSketch:
    """Mergeable summary of one column of a row-partitioned stream."""

    __slots__ = (
        "config", "name", "position", "n_rows", "n_missing", "flags",
        "_buffer", "numeric", "string", "boolean",
    )

    def __init__(self, config: SketchConfig, name: str, position: int) -> None:
        self.config = config
        self.name = name
        self.position = position
        self.n_rows = 0
        self.n_missing = 0  # raw-missing (batch string/boolean coercion missing)
        self.flags = KindFlags()
        # exact mode: every (row, raw_value) including missing cells
        self._buffer: list[tuple[int, Any]] | None = []
        self.numeric: _NumericView | None = None
        self.string: _StringView | None = None
        self.boolean: _BoolView | None = None

    # -- properties ------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._buffer is not None

    # -- updates ---------------------------------------------------------------

    def update(self, values: list[Any], start_row: int) -> None:
        """Fold one chunk of raw cell values starting at global ``start_row``."""
        n = len(values)
        if n == 0:
            return
        self.n_rows += n
        self._observe_flags(values)
        if self._buffer is not None:
            self._buffer.extend(
                (start_row + offset, value) for offset, value in enumerate(values)
            )
            if self.n_rows > self.config.exact_threshold:
                self._degrade()
            return
        self._update_views(values, start_row)

    def _observe_flags(self, values: list[Any]) -> None:
        flags = self.flags
        for value in values:
            if _is_missing_scalar(value):
                self.n_missing += 1
            elif isinstance(value, bool):
                flags.saw_bool = True
            elif isinstance(value, (int, float, np.integer, np.floating)):
                flags.saw_number = True
            elif isinstance(value, str):
                flags.observe_token(value)
            else:
                flags.saw_string = True

    def _degrade(self) -> None:
        """Exact -> sketch: replay the buffer in row order as one batch."""
        assert self._buffer is not None
        buffer, self._buffer = sorted(self._buffer, key=lambda rv: rv[0]), None
        self.numeric = _NumericView(self.config, self.position)
        self.string = _StringView(self.config, self.position)
        self.boolean = _BoolView()
        self._drop_dead_views()  # flags cover the buffer already
        if buffer:
            rows = [row for row, _ in buffer]
            values = [value for _, value in buffer]
            self._feed_views(values, np.asarray(rows, dtype=np.int64))

    def _update_views(self, values: list[Any], start_row: int) -> None:
        self._drop_dead_views()  # flags cover this chunk already
        rows = np.arange(start_row, start_row + len(values), dtype=np.int64)
        self._feed_views(values, rows)

    def _feed_views(self, values: list[Any], rows: np.ndarray) -> None:
        # missing-probe / parse / format once per distinct value; cells
        # factorize cannot key (unhashable, exotic) get a slot each
        distinct, codes = factorize(values) or (values, np.arange(len(values)))
        d_missing = np.fromiter(
            (_is_missing_scalar(v) for v in distinct),
            dtype=bool, count=len(distinct),
        )
        raw_mask = d_missing[codes]
        present_idx = np.nonzero(~raw_mask)[0]
        present = [values[i] for i in present_idx.tolist()]
        present_rows = rows[present_idx]
        if self.numeric is not None:
            d_parsed = np.full(len(distinct), np.nan, dtype=np.float64)
            d_bad = d_missing.copy()
            for j, value in enumerate(distinct):
                if d_missing[j]:
                    continue
                try:
                    d_parsed[j] = float(value)
                except (TypeError, ValueError):
                    d_bad[j] = True
            self.numeric.update(d_parsed[codes], d_bad[codes], rows)
        if self.string is not None:
            d_fmt = np.empty(len(distinct), dtype=object)
            for j, value in enumerate(distinct):
                if not d_missing[j]:
                    d_fmt[j] = _format_value(value)
            formatted = d_fmt[codes[present_idx]].tolist()
            self.string.update(formatted, present_rows.tolist())
        if self.boolean is not None:
            self.boolean.update(present, present_rows.tolist())

    def _drop_dead_views(self) -> None:
        """Free views whose outcome the kind flags have ruled out."""
        flags = self.flags
        if flags.saw_string:
            self.numeric = None
        if flags.saw_string or flags.saw_number:
            self.boolean = None

    # -- merge -----------------------------------------------------------------

    def merge(self, other: "ColumnSketch") -> "ColumnSketch":
        if (self.config, self.name, self.position) != (
            other.config,
            other.name,
            other.position,
        ):
            raise ValueError("cannot merge sketches of different columns/configs")
        self.n_rows += other.n_rows
        self.n_missing += other.n_missing
        self.flags.merge(other.flags)
        if self._buffer is not None and other._buffer is not None:
            self._buffer.extend(other._buffer)
            if self.n_rows > self.config.exact_threshold:
                self._degrade()
            else:
                self._drop_dead_views()
            return self
        if self._buffer is not None:
            self._degrade()
        if other._buffer is not None:
            other = other.copy()
            other._degrade()
        for attr in ("numeric", "string", "boolean"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if mine is not None and theirs is not None:
                mine.merge(theirs)
            elif mine is None:
                setattr(self, attr, theirs)
        self._drop_dead_views()
        return self

    def copy(self) -> "ColumnSketch":
        clone = ColumnSketch(self.config, self.name, self.position)
        clone.n_rows = self.n_rows
        clone.n_missing = self.n_missing
        clone.flags = self.flags.copy()
        if self._buffer is not None:
            clone._buffer = list(self._buffer)
            return clone
        clone._buffer = None
        if self.numeric is not None:
            clone.numeric = _NumericView(self.config, self.position)
            clone.numeric.merge(self.numeric)
        if self.string is not None:
            clone.string = _StringView(self.config, self.position)
            clone.string.merge(self.string)
        if self.boolean is not None:
            clone.boolean = _BoolView()
            clone.boolean.merge(self.boolean)
        return clone

    # -- finalize ---------------------------------------------------------------

    def kind(self) -> ColumnKind:
        return ColumnKind(self.flags.kind_name())

    def exact_column(self) -> Column | None:
        """Rebuild the real :class:`Column`; ``None`` once degraded."""
        if self._buffer is None:
            return None
        ordered = sorted(self._buffer, key=lambda rv: rv[0])
        return Column(self.name, [value for _, value in ordered])

    def finalize(self, tau_1: int = 10) -> ColumnSketchResult:
        """Summarize the degraded state into profile-shaped fields.

        ``tau_1`` caps the non-categorical value sample, as in the batch
        profiler.  Only meaningful past the exact threshold — small
        columns should go through :meth:`exact_column` and the batch
        profiler instead.
        """
        if self._buffer is not None:
            self._degrade()
        kind = self.kind()
        if kind is ColumnKind.NUMERIC and self.numeric is not None:
            return self._finalize_numeric(tau_1)
        if kind is ColumnKind.BOOLEAN and self.boolean is not None:
            return self._finalize_boolean()
        return self._finalize_string(tau_1)

    def _finalize_numeric(self, tau_1: int) -> ColumnSketchResult:
        view = self.numeric
        assert view is not None
        missing = view.n_missing
        n_present = self.n_rows - missing
        distinct_values = view.kmv.distinct_values()
        statistics = view.moments.statistics()
        if statistics:
            all_values = view.quantiles.all_values()
            if all_values is not None:
                median = float(np.median(np.asarray(
                    [v for _, v in all_values], dtype=np.float64
                ))) if all_values else 0.0
            else:
                sample = np.asarray(view.quantiles.sample(), dtype=np.float64)
                median = float(np.median(sample)) if sample.size else 0.0
            statistics = {
                "min": statistics["min"],
                "max": statistics["max"],
                "mean": statistics["mean"],
                "median": median,
                "std": statistics["std"],
            }
        return ColumnSketchResult(
            name=self.name,
            data_type="number",
            is_numeric=True,
            n_present=n_present,
            distinct_count=view.kmv.estimate(),
            missing_count=missing,
            all_integer=view.all_integer,
            in_bool_domain=False,
            evidence=[],
            samples_pool=view.quantiles.sample(tau_1),
            distinct_values=distinct_values,
            class_counts_items=self._class_counts(view.heavy),
            statistics=statistics,
            token_items=view.tokens.items_first_seen(),
            approximate=not (
                view.kmv.is_exact and view.heavy.is_exact and view.quantiles.is_exact
            ),
        )

    def _finalize_string(self, tau_1: int) -> ColumnSketchResult:
        view = self.string
        assert view is not None
        n_present = self.n_rows - self.n_missing
        return ColumnSketchResult(
            name=self.name,
            data_type="string",
            is_numeric=False,
            n_present=n_present,
            distinct_count=view.kmv.estimate(),
            missing_count=self.n_missing,
            all_integer=False,
            in_bool_domain=n_present > 0 and view.in_bool_domain,
            evidence=view.evidence.values(),
            samples_pool=view.reservoir.sample(tau_1),
            distinct_values=view.kmv.distinct_values(),
            class_counts_items=self._class_counts(view.heavy),
            statistics={},
            token_items=view.tokens.items_first_seen(),
            approximate=not (
                view.kmv.is_exact and view.heavy.is_exact and view.reservoir.is_exact
            ),
        )

    def _finalize_boolean(self) -> ColumnSketchResult:
        view = self.boolean
        assert view is not None
        n_present = self.n_rows - self.n_missing
        by_first_seen = sorted(view.counts.items(), key=lambda kv: kv[1][1])
        distinct = [flag for flag, _ in by_first_seen]
        class_counts = [
            (flag, entry[0])
            for flag, entry in sorted(
                view.counts.items(), key=lambda kv: (-kv[1][0], str(kv[0]))
            )
        ]
        token_items = [
            ("true" if flag else "false", entry[0]) for flag, entry in by_first_seen
        ]
        return ColumnSketchResult(
            name=self.name,
            data_type="boolean",
            is_numeric=False,
            n_present=n_present,
            distinct_count=len(distinct),
            missing_count=self.n_missing,
            all_integer=False,
            in_bool_domain=n_present > 0,
            evidence=[_format_value(flag) for flag in distinct],
            samples_pool=distinct,
            distinct_values=distinct,
            class_counts_items=class_counts,
            statistics={},
            token_items=token_items,
            approximate=False,
        )

    @staticmethod
    def _class_counts(heavy: SpaceSavingSketch) -> list[tuple[Any, int]]:
        """``(value, count)`` in the batch ``value_counts`` order."""
        return [
            (value, count)
            for value, count, _ in sorted(
                heavy.counts(), key=lambda vce: (-vce[1], str(vce[0]))
            )
        ]

    def canonical_state(self) -> tuple:
        if self._buffer is not None:
            return ("exact", self.n_rows, self.n_missing, tuple(sorted(
                (row, repr(value)) for row, value in self._buffer
            )))
        return (
            "sketch",
            self.n_rows,
            self.n_missing,
            self.flags.canonical_state(),
            None if self.numeric is None else self.numeric.canonical_state(),
            None if self.string is None else self.string.canonical_state(),
            None if self.boolean is None else self.boolean.canonical_state(),
        )

    def __repr__(self) -> str:
        mode = "exact" if self._buffer is not None else "sketch"
        return (
            f"ColumnSketch(name={self.name!r}, mode={mode}, "
            f"rows={self.n_rows}, kind={self.flags.kind_name()})"
        )
