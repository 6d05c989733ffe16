"""Typed columns with explicit missing-value masks.

A :class:`Column` stores numeric values in a ``float64`` array (missing
slots hold ``nan``).  String and boolean columns are **dictionary
encoded**: an ``int32`` code per row (``-1`` marks missing) plus an
object array of distinct values, the *pool*.  Coercion, formatting and
hashing run once per distinct value instead of once per cell, and the
``data`` property materializes the legacy object-array view lazily so
existing callers keep working.

The encoding is an implementation detail: ``unique()`` keeps first-seen
order, ``value_counts()`` keeps the ``(-count, str(value))`` tie-break,
and the missing-token rules are unchanged (see ``docs/data_plane.md``
for the parity contract).
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = ["Column", "ColumnKind", "factorize"]


class ColumnKind(str, enum.Enum):
    """Physical storage kind of a column."""

    NUMERIC = "numeric"
    STRING = "string"
    BOOLEAN = "boolean"


_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none", "?", "missing"}

_TRUE_TOKENS = {"true", "t", "yes", "y"}
_FALSE_TOKENS = {"false", "f", "no", "n"}


def _is_missing_scalar(value: Any) -> bool:
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str) and value.strip().lower() in _MISSING_TOKENS:
        return True
    return False


# -- dictionary-encoding helpers -----------------------------------------------

# Numeric cell types; values of two of them can compare equal (True == 1 == 1.0).
_NUMBER_TYPES = (int, float, np.bool_, np.integer, np.floating)

_IS_NONE = np.frompyfunc(lambda value: value is None, 1, 1)
_IS_BOOL = np.frompyfunc(lambda value: isinstance(value, bool), 1, 1)


def _object_array(values: Sequence[Any]) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    try:
        out[:] = values
    except ValueError:  # sequence-valued cells defeat the bulk assign
        for i, value in enumerate(values):
            out[i] = value
    return out


def _all_numeric_types(types: set) -> bool:
    return bool(types) and all(
        t is not bool
        and t is not np.bool_
        and (t in (int, float) or issubclass(t, (np.integer, np.floating)))
        for t in types
    )


def factorize(values: list) -> tuple[list, np.ndarray] | None:
    """First-seen distinct values plus an ``int64`` code per cell, or ``None``.

    The one distinct-value key of the data plane.  Two cells share a slot
    only if they render identically: same type, equal, and (for float
    zero) the same sign.  Plain equality is coarser -- ``True == 1 == 1.0``
    and ``0.0 == -0.0`` each share a dict slot but format, parse and
    encode differently.  Returns ``None`` for unhashable cells and for
    types outside ``str``/``bool``/``int``/``float``/``None``/numpy
    scalars, whose equality says nothing about rendering
    (``Decimal("1") == Decimal("1.0")``); callers then give each cell
    its own slot.
    """
    numbers = strings = 0
    floats = []
    for t in set(map(type, values)):
        if issubclass(t, _NUMBER_TYPES):
            numbers += 1
            if issubclass(t, (float, np.floating)):
                floats.append(t)
        elif issubclass(t, str):
            strings += 1
        elif t is not type(None):
            return None
    # with one type per equality family the value alone is the typed key,
    # and dict.fromkeys keys the cells at C speed
    typed = numbers > 1 or strings > 1
    keys = list(zip(map(type, values), values)) if typed else values
    try:
        first = dict.fromkeys(keys)
    except TypeError:  # a hash-less str or number subclass
        return None
    if floats and (
        any((t, 0) in first for t in floats) if typed else 0 in first
    ):
        # 0.0 == -0.0 share one dict slot; key zeros with their sign
        keys = [
            (type(value), value, math.copysign(1.0, value))
            if value == 0 else key
            for key, value in zip(keys, values)
        ]
        first = dict.fromkeys(keys)
    index = {key: code for code, key in enumerate(first)}
    codes = np.fromiter(
        map(index.__getitem__, keys), dtype=np.int64, count=len(values)
    )
    if keys is values:
        return list(first), codes
    # every tuple key holds its first cell at [1]; values are never tuples
    return [key[1] if type(key) is tuple else key for key in first], codes


def _coerce_pool(
    pool: list, codes: np.ndarray, kind: ColumnKind
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce once per distinct raw value, then gather per-row storage.

    For NUMERIC returns ``(float64 data, missing mask)``; for STRING and
    BOOLEAN returns ``(object pool, int32 codes)`` where the pool has been
    re-deduplicated after formatting (``1`` and ``"1"`` both format to
    ``"1"``) and ``-1`` codes mark missing cells.
    """
    if kind is ColumnKind.NUMERIC:
        fpool = np.empty(len(pool), dtype=np.float64)
        mpool = np.zeros(len(pool), dtype=bool)
        for i, value in enumerate(pool):
            if _is_missing_scalar(value):
                fpool[i] = np.nan
                mpool[i] = True
                continue
            try:
                fpool[i] = float(value)
            except (TypeError, ValueError):
                fpool[i] = np.nan
                mpool[i] = True
        return fpool[codes], mpool[codes]
    remap = np.empty(len(pool), dtype=np.int32)
    index: dict[Any, int] = {}
    out_pool: list[Any] = []
    for i, value in enumerate(pool):
        if _is_missing_scalar(value):
            remap[i] = -1
            continue
        coerced = (
            _to_bool(value) if kind is ColumnKind.BOOLEAN else _format_value(value)
        )
        code = index.get(coerced)
        if code is None:
            code = len(out_pool)
            index[coerced] = code
            out_pool.append(coerced)
        remap[i] = code
    if len(pool):
        new_codes = remap[codes]
    else:
        new_codes = np.empty(0, dtype=np.int32)
    return _object_array(out_pool), new_codes


def _encode_coerced(
    data: np.ndarray, missing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode already-coerced values under a missing mask.

    Used by :meth:`Column.from_numpy`, which (like the seed) stores the
    given values verbatim.  :func:`factorize` keeps hash-colliding values
    of different types (``True`` vs ``1``) on distinct codes so
    fingerprints still hash the original cell values; ``unique()``
    re-applies the seed's hash-collapse at query time.  Cells
    :func:`factorize` cannot key get a code each.
    """
    present_idx = np.flatnonzero(~missing)
    present = data[present_idx].tolist()
    pool, present_codes = factorize(present) or (
        present, np.arange(len(present))
    )
    codes = np.full(len(data), -1, dtype=np.int32)
    codes[present_idx] = present_codes
    return _object_array(pool), codes


class Column:
    """A named, typed vector of values with a missing mask.

    Parameters
    ----------
    name:
        Column name; must be a non-empty string.
    values:
        Any iterable of scalars.  ``None``, ``nan`` and common textual
        missing tokens (``""``, ``"NA"``, ``"?"`` ...) are treated as
        missing.
    kind:
        Force a :class:`ColumnKind`; inferred from the values when omitted.
    """

    __slots__ = ("name", "kind", "missing", "_data", "_codes", "_pool")

    def __init__(
        self,
        name: str,
        values: Iterable[Any],
        kind: ColumnKind | str | None = None,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError(f"column name must be a non-empty string, got {name!r}")
        self.name = name
        raw = values if isinstance(values, list) else list(values)
        if kind is not None:
            kind = ColumnKind(kind)
        types = set(map(type, raw))
        if (
            kind in (None, ColumnKind.NUMERIC)
            and _all_numeric_types(types)
        ):
            data = np.asarray(raw, dtype=np.float64)
            missing = np.isnan(data)
            if kind is not None or not bool(missing.all()):
                # all-missing numeric input still infers STRING (seed rule)
                self.kind = ColumnKind.NUMERIC
                self._data = data
                self.missing = missing
                self._codes = None
                self._pool = None
                return
        # cells factorize cannot key (unhashable, exotic) get a slot each
        pool, codes = factorize(raw) or (raw, np.arange(len(raw)))
        self.kind = kind if kind is not None else _infer_kind(pool)
        a, b = _coerce_pool(pool, codes, self.kind)
        if self.kind is ColumnKind.NUMERIC:
            self._data = a
            self.missing = b
            self._codes = None
            self._pool = None
        else:
            self._pool = a
            self._codes = b
            self.missing = b < 0
            self._data = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        name: str,
        data: np.ndarray,
        missing: np.ndarray | None = None,
        kind: ColumnKind | str | None = None,
    ) -> "Column":
        """Wrap pre-coerced numpy storage without re-inferring types."""
        is_float = data.dtype.kind == "f"
        if missing is None:
            if is_float:
                missing = np.isnan(data)
            elif data.dtype == object and data.size:
                missing = _IS_NONE(data).astype(bool)
            else:
                missing = np.zeros(data.shape[0], dtype=bool)
        else:
            missing = np.asarray(missing, dtype=bool)
        if kind is None:
            if is_float:
                kind = ColumnKind.NUMERIC
            elif data.dtype.kind == "b":
                kind = ColumnKind.BOOLEAN
            else:
                present = data[~missing] if missing.any() else data
                if present.size and bool(_IS_BOOL(present).all()):
                    kind = ColumnKind.BOOLEAN
                else:
                    kind = ColumnKind.STRING
        kind = ColumnKind(kind)
        col = cls.__new__(cls)
        col.name = name
        col.kind = kind
        if kind is ColumnKind.NUMERIC:
            if is_float:
                col._data = data
            else:
                col._data = np.array(
                    [
                        np.nan if m else float(v)
                        for v, m in zip(data.tolist(), missing)
                    ],
                    dtype=np.float64,
                )
            col.missing = missing
            col._codes = None
            col._pool = None
            return col
        if data.dtype.kind == "b":
            # bool storage maps straight onto a two-value pool
            col._pool = _object_array([False, True])
            codes = data.astype(np.int32)
            codes[missing] = -1
            col._codes = codes
        else:
            col._pool, col._codes = _encode_coerced(data, missing)
        col.missing = missing
        col._data = None
        return col

    @classmethod
    def _from_numeric(
        cls, name: str, data: np.ndarray, missing: np.ndarray
    ) -> "Column":
        col = cls.__new__(cls)
        col.name = name
        col.kind = ColumnKind.NUMERIC
        col._data = data
        col.missing = missing
        col._codes = None
        col._pool = None
        return col

    @classmethod
    def _from_dict_storage(
        cls,
        name: str,
        kind: ColumnKind,
        pool: np.ndarray,
        codes: np.ndarray,
    ) -> "Column":
        col = cls.__new__(cls)
        col.name = name
        col.kind = kind
        col._pool = pool
        col._codes = codes
        col.missing = codes < 0
        col._data = None
        return col

    @classmethod
    def _from_raw_pool(
        cls, name: str, kind: ColumnKind, pool: list, codes: np.ndarray
    ) -> "Column":
        """Run the per-distinct coercion over an arbitrary raw pool.

        ``codes`` may contain ``-1``; a ``None`` sentinel is appended to
        the pool so missing cells flow through the same gather.
        """
        ext_pool = list(pool) + [None]
        ext_codes = np.where(codes < 0, len(ext_pool) - 1, codes).astype(np.int64)
        a, b = _coerce_pool(ext_pool, ext_codes, kind)
        if kind is ColumnKind.NUMERIC:
            return cls._from_numeric(name, a, b)
        return cls._from_dict_storage(name, kind, a, b)

    # -- dictionary view -------------------------------------------------------

    @property
    def codes(self) -> np.ndarray | None:
        """Per-row ``int32`` pool indices (``-1`` = missing); ``None`` for
        numeric columns.  Read-only: treat codes and pool as immutable."""
        return self._codes

    @property
    def pool(self) -> np.ndarray | None:
        """Distinct-value object array backing the codes; ``None`` for
        numeric columns."""
        return self._pool

    @property
    def data(self) -> np.ndarray:
        """Row-major storage view (seed layout), materialized lazily for
        dictionary-encoded columns."""
        if self._data is None:
            ext = np.empty(self._pool.shape[0] + 1, dtype=object)
            ext[:-1] = self._pool
            ext[-1] = None
            self._data = ext[self._codes]
        return self._data

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        if self._codes is not None:
            return int(self._codes.shape[0])
        return int(self._data.shape[0])

    def __iter__(self):
        if self._codes is not None:
            return iter(self.data.tolist())
        return self._iter_numeric()

    def _iter_numeric(self):
        for value, is_missing in zip(self._data, self.missing):
            yield None if is_missing else value

    def __getitem__(self, idx: int) -> Any:
        if self._codes is not None:
            code = self._codes[idx]
            if code < 0:
                return None
            return self._pool[code]
        if self.missing[idx]:
            return None
        return float(self._data[idx])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind is not other.kind:
            return False
        if len(self) != len(other):
            return False
        if self._codes is not None and other._codes is not None:
            try:
                index = {
                    value: code
                    for code, value in enumerate(self._pool.tolist())
                }
            except TypeError:
                return list(self) == list(other)
            if len(index) < self._pool.shape[0]:
                # hash-colliding pool entries: delegate to value compare
                return list(self) == list(other)
            remap = np.fromiter(
                (index.get(value, -2) for value in other._pool.tolist()),
                dtype=np.int64,
                count=other._pool.shape[0],
            )
            ext = np.empty(remap.shape[0] + 1, dtype=np.int64)
            ext[:-1] = remap
            ext[-1] = -1
            return bool(
                np.array_equal(self._codes.astype(np.int64), ext[other._codes])
            )
        if self._codes is None and other._codes is None:
            if not np.array_equal(self.missing, other.missing):
                return False
            keep = ~self.missing
            return bool(np.array_equal(self._data[keep], other._data[keep]))
        return list(self) == list(other)

    def __repr__(self) -> str:
        return (
            f"Column(name={self.name!r}, kind={self.kind.value}, "
            f"n={len(self)}, missing={int(self.missing.sum())})"
        )

    # -- accessors --------------------------------------------------------------

    def to_list(self) -> list[Any]:
        """Values with missing entries as ``None``."""
        out = self.data.tolist()  # C-speed; floats become Python floats
        if self._codes is None and self.missing.any():
            for i in np.nonzero(self.missing)[0].tolist():
                out[i] = None
        return out

    def non_missing(self) -> np.ndarray:
        """All present values, in row order."""
        if self._codes is not None:
            codes = self._codes
            return self._pool[codes[codes >= 0]]
        return self._data[~self.missing]

    @property
    def n_missing(self) -> int:
        return int(self.missing.sum())

    @property
    def missing_fraction(self) -> float:
        return float(self.missing.mean()) if len(self) else 0.0

    def _distinct_info(self) -> tuple[list[Any], list[int]]:
        """Distinct pool values in first-seen row order, with counts."""
        codes = self._codes
        present = codes[codes >= 0]
        if present.size == 0:
            return [], []
        used, first, counts = np.unique(
            present, return_index=True, return_counts=True
        )
        order = np.argsort(first, kind="stable")
        values = self._pool[used[order]].tolist()
        return values, counts[order].tolist()

    def unique(self) -> list[Any]:
        """Distinct non-missing values, in first-seen order."""
        if self._codes is not None:
            values, _ = self._distinct_info()
            # dict.fromkeys re-applies the seed's hash collapse for pools
            # that keep hash-equal values apart (from_numpy storage)
            return list(dict.fromkeys(values))
        return list(dict.fromkeys(self.non_missing().tolist()))

    def value_counts(self) -> dict[Any, int]:
        """Counts of distinct non-missing values, most frequent first."""
        if self._codes is not None:
            values, counts = self._distinct_info()
            merged: dict[Any, int] = {}
            for value, count in zip(values, counts):
                if value in merged:
                    merged[value] += count
                else:
                    merged[value] = count
            return dict(
                sorted(merged.items(), key=lambda kv: (-kv[1], str(kv[0])))
            )
        counts = Counter(self.non_missing().tolist())
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))))

    @property
    def n_distinct(self) -> int:
        return len(self.unique())

    # -- transformation ----------------------------------------------------------

    def take(self, indices: Sequence[int] | np.ndarray) -> "Column":
        idx = np.asarray(indices, dtype=np.intp)
        if self._codes is not None:
            return Column._from_dict_storage(
                self.name, self.kind, self._pool, self._codes[idx]
            )
        return Column._from_numeric(
            self.name, self._data[idx], self.missing[idx]
        )

    def mask_rows(self, keep: np.ndarray) -> "Column":
        keep = np.asarray(keep, dtype=bool)
        if self._codes is not None:
            return Column._from_dict_storage(
                self.name, self.kind, self._pool, self._codes[keep]
            )
        return Column._from_numeric(
            self.name, self._data[keep], self.missing[keep]
        )

    def renamed(self, name: str) -> "Column":
        if self._codes is not None:
            return Column._from_dict_storage(
                name, self.kind, self._pool, self._codes
            )
        return Column._from_numeric(name, self._data, self.missing)

    def copy(self) -> "Column":
        if self._codes is not None:
            return Column._from_dict_storage(
                self.name, self.kind, self._pool, self._codes.copy()
            )
        return Column._from_numeric(
            self.name, self._data.copy(), self.missing.copy()
        )

    def astype_numeric(self) -> "Column":
        """Best-effort conversion to a numeric column (unparseable -> missing)."""
        if self.kind is ColumnKind.NUMERIC:
            return self.copy()
        return Column._from_raw_pool(
            self.name, ColumnKind.NUMERIC, self._pool.tolist(), self._codes
        )

    def astype_string(self) -> "Column":
        if self.kind is ColumnKind.STRING:
            return self.copy()
        if self._codes is not None:
            formatted = [_format_value(v) for v in self._pool.tolist()]
            return Column._from_raw_pool(
                self.name, ColumnKind.STRING, formatted, self._codes
            )
        present = ~self.missing
        uniq, inverse = np.unique(self._data[present], return_inverse=True)
        formatted = [_format_value(float(v)) for v in uniq.tolist()]
        codes = np.full(self.missing.shape[0], -1, dtype=np.int64)
        codes[present] = inverse
        return Column._from_raw_pool(
            self.name, ColumnKind.STRING, formatted, codes
        )

    def fill_missing(self, fill_value: Any) -> "Column":
        if self._codes is not None:
            pool = self._pool.tolist() + [fill_value]
            codes = np.where(
                self._codes < 0, len(pool) - 1, self._codes
            ).astype(np.int64)
            return Column._from_raw_pool(self.name, self.kind, pool, codes)
        if not self.missing.any():
            return self.copy()
        if _is_missing_scalar(fill_value):
            return self.copy()
        try:
            fill = float(fill_value)
        except (TypeError, ValueError):
            return self.copy()
        data = np.where(self.missing, fill, self._data)
        return Column._from_numeric(
            self.name, data, np.zeros(data.shape[0], dtype=bool)
        )

    def numeric_values(self) -> np.ndarray:
        """Float array with ``nan`` in missing slots (numeric columns only)."""
        if self.kind is not ColumnKind.NUMERIC:
            raise TypeError(f"column {self.name!r} is {self.kind.value}, not numeric")
        return self._data


def _kind_evidence(present: Iterable[Any]) -> tuple[bool, bool, bool]:
    """``(saw_bool, saw_number, saw_string)`` over present (non-missing) cells.

    The one kind classifier: batch :func:`_infer_kind` and the streaming
    :class:`~repro.sketch.accumulators.KindFlags` both read it, so a
    streamed column gets the kind one ``Column(values)`` would infer.
    """
    saw_bool = saw_number = saw_string = False
    for value in present:
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, (int, float, np.integer, np.floating)):
            saw_number = True
        elif isinstance(value, str):
            token = value.strip().lower()
            if token in _TRUE_TOKENS or token in _FALSE_TOKENS:
                saw_bool = True
            else:
                try:
                    float(value)
                except ValueError:
                    saw_string = True
                else:
                    saw_number = True
        else:
            saw_string = True
    return saw_bool, saw_number, saw_string


def _kind_from_evidence(
    saw_bool: bool, saw_number: bool, saw_string: bool
) -> ColumnKind:
    """Precedence string > number > bool; no evidence at all is string."""
    if saw_string:
        return ColumnKind.STRING
    if saw_number:
        return ColumnKind.NUMERIC
    if saw_bool:
        return ColumnKind.BOOLEAN
    return ColumnKind.STRING


def _infer_kind(values: list[Any]) -> ColumnKind:
    return _kind_from_evidence(*_kind_evidence(
        value for value in values if not _is_missing_scalar(value)
    ))


def _to_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return bool(value)
    token = str(value).strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    raise ValueError(f"cannot interpret {value!r} as boolean")


def _format_value(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        # checked before int/float: bool subclasses int, so the numeric
        # branches would render True/False as "1"/"0"
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        as_float = float(value)
        if as_float.is_integer():
            return str(int(as_float))
        return repr(as_float)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)
