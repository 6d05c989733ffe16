"""Oracle for the one-parse update path of ``ColumnSketch``.

``ColumnSketch.update`` once classified kind cell by cell (a copy of
``_infer_kind`` in ``KindFlags.observe_token``), buffered raw
``(row, value)`` pairs in exact mode, and re-parsed every batch it fed to
its views (``_feed_views``: factorize, missing probe, float parse,
format, and a per-cell ``_to_bool`` for the boolean view).  That path is
embedded below as the reference.  The sketch that consumes one
``_ColumnChunkArtifacts`` parse per chunk must reach the identical
``canonical_state()`` on randomized chunked streams, in exact mode and
past the exact threshold, however the chunks are merged.
"""

from __future__ import annotations

import random
from decimal import Decimal
from typing import Any

import numpy as np
import pytest

from repro.sketch import ColumnSketch, SketchConfig
from repro.sketch.column import _NumericView, _StringView
from repro.table.column import (
    _FALSE_TOKENS,
    _TRUE_TOKENS,
    Column,
    _format_value,
    _is_missing_scalar,
    _to_bool,
    factorize,
)

# "inf" cells make the moments nan, with numpy's invalid-value warning
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

# -- reference: the per-cell update path as it was ----------------------------


class _RefKindFlags:
    __slots__ = ("saw_bool", "saw_number", "saw_string")

    def __init__(self) -> None:
        self.saw_bool = self.saw_number = self.saw_string = False

    def observe_token(self, token: str) -> None:
        lowered = token.strip().lower()
        if lowered in _TRUE_TOKENS or lowered in _FALSE_TOKENS:
            self.saw_bool = True
            return
        try:
            float(token)
        except ValueError:
            self.saw_string = True
        else:
            self.saw_number = True

    def merge(self, other: "_RefKindFlags") -> None:
        self.saw_bool = self.saw_bool or other.saw_bool
        self.saw_number = self.saw_number or other.saw_number
        self.saw_string = self.saw_string or other.saw_string

    def kind_name(self) -> str:
        if self.saw_string:
            return "string"
        if self.saw_number:
            return "numeric"
        if self.saw_bool:
            return "boolean"
        return "string"

    def canonical_state(self) -> tuple:
        return (self.saw_bool, self.saw_number, self.saw_string)


class _RefBoolView:
    def __init__(self) -> None:
        self.counts: dict[bool, list[int]] = {}

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

    def merge(self, other: "_RefBoolView") -> "_RefBoolView":
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


class _RefColumnSketch:
    def __init__(self, config: SketchConfig, name: str, position: int) -> None:
        self.config = config
        self.name = name
        self.position = position
        self.n_rows = 0
        self.n_missing = 0
        self.flags = _RefKindFlags()
        self._buffer: list[tuple[int, Any]] | None = []
        self.numeric = self.string = self.boolean = None

    def update(self, values: list[Any], start_row: int) -> None:
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
        self._drop_dead_views()
        rows = np.arange(start_row, start_row + len(values), dtype=np.int64)
        self._feed_views(values, rows)

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
        buffer, self._buffer = sorted(self._buffer, key=lambda rv: rv[0]), None
        self.numeric = _NumericView(self.config, self.position)
        self.string = _StringView(self.config, self.position)
        self.boolean = _RefBoolView()
        self._drop_dead_views()
        if buffer:
            rows = [row for row, _ in buffer]
            values = [value for _, value in buffer]
            self._feed_views(values, np.asarray(rows, dtype=np.int64))

    def _feed_views(self, values: list[Any], rows: np.ndarray) -> None:
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
        if self.flags.saw_string:
            self.numeric = None
        if self.flags.saw_string or self.flags.saw_number:
            self.boolean = None

    def merge(self, other: "_RefColumnSketch") -> "_RefColumnSketch":
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

    def copy(self) -> "_RefColumnSketch":
        clone = _RefColumnSketch(self.config, self.name, self.position)
        clone.n_rows = self.n_rows
        clone.n_missing = self.n_missing
        clone.flags.merge(self.flags)
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
            clone.boolean = _RefBoolView()
            clone.boolean.merge(self.boolean)
        return clone

    def exact_column(self) -> Column | None:
        if self._buffer is None:
            return None
        ordered = sorted(self._buffer, key=lambda rv: rv[0])
        return Column(self.name, [value for _, value in ordered])

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


# -- randomized streams ---------------------------------------------------------

_MISSING = [None, "", "NA", " n/a ", "?", float("nan"), "null"]
_BOOLS = [True, False, "yes", "No", " T ", "f", "TRUE", "n"]
_UNKEYABLE = [["x"], {"k": 1}, Decimal("2.5"), Decimal("2.50")]


def _numeric_cell(rng: random.Random) -> Any:
    pick = rng.random()
    if pick < 0.3:
        return round(rng.gauss(0, 5), rng.choice([0, 1, 3]))
    if pick < 0.5:
        return rng.randint(-4, 4)
    if pick < 0.6:
        return rng.choice([-0.0, 0.0, "-0.0", "0"])
    if pick < 0.8:
        return f"{rng.gauss(10, 3):.{rng.choice([0, 2])}f}"
    return rng.choice(["1e3", " 7 ", "inf", "-2"])


def _string_cell(rng: random.Random) -> Any:
    return rng.choice(["alpha", "Beta", " gamma ", "x1", "yes please", "Z"])


def _mixed_cell(rng: random.Random) -> Any:
    pick = rng.random()
    if pick < 0.35:
        return _numeric_cell(rng)
    if pick < 0.55:
        return rng.choice(_BOOLS)
    if pick < 0.75:
        return _string_cell(rng)
    return rng.choice(_UNKEYABLE)


# each palette keeps a different kind outcome (and so view) alive
_PALETTES = {
    "numeric": _numeric_cell,
    "boolean": lambda rng: rng.choice(_BOOLS),
    "string": _string_cell,
    "mixed": _mixed_cell,
    # numbers until late in the stream, then one string rules them out
    "late-string": None,
}


def _stream(palette: str, n: int, rng: random.Random) -> list[Any]:
    if palette == "late-string":
        cells = [_numeric_cell(rng) for _ in range(n)]
        cells[rng.randrange(n * 3 // 4, n)] = "not a number"
    else:
        cells = [_PALETTES[palette](rng) for _ in range(n)]
    missing_rate = rng.choice([0.0, 0.1, 0.4])
    return [
        rng.choice(_MISSING) if rng.random() < missing_rate else cell
        for cell in cells
    ]


def _bounds(n: int, rng: random.Random) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(6, n - 1))))
    return [0, *cuts, n]


def _chunk_sketches(cls, config, values, bounds):
    sketches = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sketch = cls(config, "col", 3)
        sketch.update(values[lo:hi], lo)
        sketches.append(sketch)
    return sketches


def _state(sketch) -> str:
    # repr: nan-valued moments compare unequal to themselves as floats
    return repr(sketch.canonical_state())


@pytest.mark.parametrize("palette", sorted(_PALETTES))
@pytest.mark.parametrize("seed", range(6))
def test_merged_chunks_match_reference(palette, seed):
    rng = random.Random(f"{palette}-{seed}")
    n = rng.randint(2, 400)
    values = _stream(palette, n, rng)
    bounds = _bounds(n, rng)
    config = SketchConfig(seed=seed, exact_threshold=rng.choice([4, 16, 64, 1000]))
    new = _chunk_sketches(ColumnSketch, config, values, bounds)
    ref = _chunk_sketches(_RefColumnSketch, config, values, bounds)
    for a, b in zip(new, ref):
        assert _state(a) == _state(b)
    order = list(range(len(new)))
    rng.shuffle(order)
    new_acc, ref_acc = new[order[0]].copy(), ref[order[0]].copy()
    assert _state(new_acc) == _state(ref_acc)
    for i in order[1:]:
        new_acc.merge(new[i])
        ref_acc.merge(ref[i])
        assert _state(new_acc) == _state(ref_acc)
    assert new_acc.kind() == ref_acc.flags.kind_name()
    new_column, ref_column = new_acc.exact_column(), ref_acc.exact_column()
    assert (new_column is None) == (ref_column is None)
    if ref_column is not None:
        assert repr(list(new_column)) == repr(list(ref_column))


@pytest.mark.parametrize("palette", sorted(_PALETTES))
def test_sequential_updates_cross_threshold_inside_a_chunk(palette):
    rng = random.Random(palette)
    n = 300
    values = _stream(palette, n, rng)
    config = SketchConfig(seed=1, exact_threshold=100)
    new = ColumnSketch(config, "col", 0)
    ref = _RefColumnSketch(config, "col", 0)
    # 70 + 70 stay exact; the third chunk crosses 100 rows mid-chunk
    for lo, hi in ((0, 70), (70, 140), (140, 210), (210, 300)):
        new.update(values[lo:hi], lo)
        ref.update(values[lo:hi], lo)
        assert _state(new) == _state(ref)
    assert not new.is_exact


def test_degrade_replays_the_buffer_in_row_order():
    # merged out of order; the replay's float fold depends on cell order
    config = SketchConfig(seed=0, exact_threshold=3)
    states = []
    for cls in (ColumnSketch, _RefColumnSketch):
        head, tail = cls(config, "col", 0), cls(config, "col", 0)
        head.update([1.0, 1.0], 0)
        tail.update([1e17, -1e17], 2)
        states.append(_state(tail.merge(head)))
    assert states[0] == states[1]
