"""Mergeable pair summaries behind streaming target correlations.

The batch path computes |Pearson r| (numeric-numeric), the correlation
ratio (categorical-numeric), or Cramér's V (categorical-categorical)
from both full columns.  A :class:`PairSketch` carries the sufficient
statistics for *all three* outcomes — the pair's final kind combination
is only known once the stream ends:

- co-moments (Chan's parallel covariance) over rows where both cells
  parse as floats,
- per-category moments of the numeric side keyed by the categorical
  side's formatted token (both directions),
- a capped contingency table over formatted token pairs.

All four merges are associative; the streaming profiler folds them in
canonical chunk order, so correlations are deterministic for a given
``(seed, chunk_rows)`` at any chunk arrival order.  Category/cell caps make the
summaries constant-size; overflow prunes lowest-count cells (contingency)
or latest-first-seen groups (category moments) and flags the estimate
approximate.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.sketch.base import SketchConfig

__all__ = ["PairSketch"]

_FAR_ROW = 1 << 62


class _CoMoments:
    """n, means, M2s and co-moment C_xy with Chan's parallel merge."""

    __slots__ = ("n", "mean_x", "mean_y", "m2x", "m2y", "cxy")

    def __init__(self) -> None:
        self.n = 0
        self.mean_x = self.mean_y = 0.0
        self.m2x = self.m2y = self.cxy = 0.0

    def update(self, xs: np.ndarray, ys: np.ndarray) -> None:
        n_b = int(xs.size)
        if n_b == 0:
            return
        mean_x = float(xs.mean())
        mean_y = float(ys.mean())
        dx = xs - mean_x
        dy = ys - mean_y
        self._combine(
            n_b, mean_x, mean_y,
            float(np.sum(dx * dx)), float(np.sum(dy * dy)), float(np.sum(dx * dy)),
        )

    def _combine(
        self, n_b: int, mean_x: float, mean_y: float,
        m2x: float, m2y: float, cxy: float,
    ) -> None:
        n_a = self.n
        if n_a == 0:
            self.n = n_b
            self.mean_x, self.mean_y = mean_x, mean_y
            self.m2x, self.m2y, self.cxy = m2x, m2y, cxy
            return
        n = n_a + n_b
        dx = mean_x - self.mean_x
        dy = mean_y - self.mean_y
        self.m2x += m2x + dx * dx * n_a * n_b / n
        self.m2y += m2y + dy * dy * n_a * n_b / n
        self.cxy += cxy + dx * dy * n_a * n_b / n
        self.mean_x += dx * n_b / n
        self.mean_y += dy * n_b / n
        self.n = n

    def merge(self, other: "_CoMoments") -> None:
        if other.n:
            self._combine(
                other.n, other.mean_x, other.mean_y, other.m2x, other.m2y, other.cxy
            )

    def abs_pearson(self) -> float:
        if self.n < 3 or self.m2x <= 0.0 or self.m2y <= 0.0:
            return 0.0
        return min(abs(self.cxy) / math.sqrt(self.m2x * self.m2y), 1.0)


class _GroupMoments:
    """Per-category [n, mean, M2] of a numeric companion, capped."""

    __slots__ = ("cap", "groups", "saturated")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        # token -> [n, mean, m2, first_row]
        self.groups: dict[str, list[Any]] = {}
        self.saturated = False

    def update(self, tokens: list[str], values: np.ndarray, rows: list[int]) -> None:
        by_token: dict[str, list[int]] = {}
        for i, token in enumerate(tokens):
            by_token.setdefault(token, []).append(i)
        for token, idx in by_token.items():
            vals = values[idx]
            mean = float(vals.mean())
            m2 = float(np.sum((vals - mean) ** 2))
            first_row = min(rows[i] for i in idx)
            self._combine(token, len(idx), mean, m2, first_row)
        self._prune()

    def _combine(self, token: str, n_b: int, mean_b: float, m2_b: float, row: int) -> None:
        entry = self.groups.get(token)
        if entry is None:
            self.groups[token] = [n_b, mean_b, m2_b, row]
            return
        n_a, mean_a, m2_a, first = entry
        n = n_a + n_b
        delta = mean_b - mean_a
        entry[0] = n
        entry[1] = mean_a + delta * n_b / n
        entry[2] = m2_a + m2_b + delta * delta * n_a * n_b / n
        entry[3] = min(first, row)

    def _prune(self) -> None:
        if len(self.groups) > self.cap:
            ranked = sorted(self.groups.items(), key=lambda kv: (kv[1][3], kv[0]))
            self.groups = dict(ranked[: self.cap])
            self.saturated = True

    def merge(self, other: "_GroupMoments") -> None:
        for token, (n, mean, m2, row) in other.groups.items():
            self._combine(token, n, mean, m2, row)
        self.saturated = self.saturated or other.saturated
        self._prune()

    def correlation_ratio(self) -> float:
        total = sum(entry[0] for entry in self.groups.values())
        if total < 3:
            return 0.0
        grand = sum(entry[0] * entry[1] for entry in self.groups.values()) / total
        ss_between = sum(
            entry[0] * (entry[1] - grand) ** 2 for entry in self.groups.values()
        )
        ss_total = ss_between + sum(entry[2] for entry in self.groups.values())
        if ss_total <= 0.0:
            return 0.0
        return math.sqrt(ss_between / ss_total)


class _Contingency:
    """Capped (token_a, token_b) count table for Cramér's V."""

    __slots__ = ("cap", "cells", "saturated")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.cells: dict[tuple[str, str], int] = {}
        self.saturated = False

    def update(self, tokens_a: list[str], tokens_b: list[str]) -> None:
        cells = self.cells
        for pair in zip(tokens_a, tokens_b):
            cells[pair] = cells.get(pair, 0) + 1
        self._prune()

    def _prune(self) -> None:
        if len(self.cells) > self.cap:
            ranked = sorted(self.cells.items(), key=lambda kv: (-kv[1], kv[0]))
            self.cells = dict(ranked[: self.cap])
            self.saturated = True

    def merge(self, other: "_Contingency") -> None:
        cells = self.cells
        for pair, count in other.cells.items():
            cells[pair] = cells.get(pair, 0) + count
        self.saturated = self.saturated or other.saturated
        self._prune()

    def cramers_v(self) -> float:
        if not self.cells:
            return 0.0
        a_levels = sorted({a for a, _ in self.cells})
        b_levels = sorted({b for _, b in self.cells})
        if len(a_levels) < 2 or len(b_levels) < 2:
            return 0.0
        a_index = {level: i for i, level in enumerate(a_levels)}
        b_index = {level: i for i, level in enumerate(b_levels)}
        table = np.zeros((len(a_levels), len(b_levels)), dtype=np.float64)
        for (a, b), count in self.cells.items():
            table[a_index[a], b_index[b]] = count
        n = table.sum()
        if n < 3:
            return 0.0
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
        with np.errstate(divide="ignore", invalid="ignore"):
            chi2 = np.nansum(
                np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
            )
        k = min(len(a_levels), len(b_levels))
        return float(np.sqrt(chi2 / (n * (k - 1))))


class PairSketch:
    """Summary of one (column, target) pair covering all kind outcomes."""

    __slots__ = ("config", "comoments", "eta_ab", "eta_ba", "contingency")

    def __init__(self, config: SketchConfig) -> None:
        self.config = config
        self.comoments = _CoMoments()
        # a categorical vs b numeric, and the mirror direction
        self.eta_ab = _GroupMoments(config.corr_category_cap)
        self.eta_ba = _GroupMoments(config.corr_category_cap)
        self.contingency = _Contingency(config.contingency_cap)

    def update(
        self,
        a_tokens: list[str | None],
        a_floats: np.ndarray,
        b_tokens: list[str | None],
        b_floats: np.ndarray,
        start_row: int,
    ) -> None:
        """Fold one chunk of the pair.

        ``*_tokens`` hold the formatted token per row (``None`` where the
        raw cell is missing); ``*_floats`` the float parse per row
        (``nan`` where missing or unparseable).
        """
        a_num = ~np.isnan(a_floats)
        b_num = ~np.isnan(b_floats)
        both_num = a_num & b_num
        if both_num.any():
            self.comoments.update(a_floats[both_num], b_floats[both_num])
        a_present = np.fromiter(
            (t is not None for t in a_tokens), dtype=bool, count=len(a_tokens)
        )
        b_present = np.fromiter(
            (t is not None for t in b_tokens), dtype=bool, count=len(b_tokens)
        )
        keep = a_present & b_num
        if keep.any():
            idx = np.nonzero(keep)[0].tolist()
            self.eta_ab.update(
                [a_tokens[i] for i in idx], b_floats[keep],
                [start_row + i for i in idx],
            )
        keep = b_present & a_num
        if keep.any():
            idx = np.nonzero(keep)[0].tolist()
            self.eta_ba.update(
                [b_tokens[i] for i in idx], a_floats[keep],
                [start_row + i for i in idx],
            )
        keep = a_present & b_present
        if keep.any():
            idx = np.nonzero(keep)[0].tolist()
            self.contingency.update(
                [a_tokens[i] for i in idx], [b_tokens[i] for i in idx]
            )

    def merge(self, other: "PairSketch") -> "PairSketch":
        if self.config != other.config:
            raise ValueError("cannot merge pair sketches with different configs")
        self.comoments.merge(other.comoments)
        self.eta_ab.merge(other.eta_ab)
        self.eta_ba.merge(other.eta_ba)
        self.contingency.merge(other.contingency)
        return self

    def correlation(self, a_numeric: bool, b_numeric: bool) -> float:
        """Association in [0, 1] given the pair's final kind combination."""
        if a_numeric and b_numeric:
            return self.comoments.abs_pearson()
        if a_numeric != b_numeric:
            groups = self.eta_ba if a_numeric else self.eta_ab
            return groups.correlation_ratio()
        return self.contingency.cramers_v()

    def __repr__(self) -> str:
        return (
            f"PairSketch(n_numeric={self.comoments.n}, "
            f"groups=({len(self.eta_ab.groups)}, {len(self.eta_ba.groups)}), "
            f"cells={len(self.contingency.cells)})"
        )
