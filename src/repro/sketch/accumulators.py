"""Small exact mergeable accumulators used by the column sketch.

These carry the pieces of the batch profiler's logic that are *exactly*
streamable — no approximation, no ordering sensitivity:

- :class:`KindFlags` replicates ``repro.table.column._infer_kind`` as
  three OR-merged booleans, so the final :class:`ColumnKind` of a
  streamed column equals what one batch ``Column(values)`` would infer.
- :class:`FirstKEvidence` keeps the ``k`` present values with the
  smallest global row indices — the ``present[:k]`` window the feature-
  type heuristics (`_looks_like_list`, `_looks_like_sentence`) inspect.
- :class:`TokenStats` counts canonical tokens with their first-seen row,
  feeding embeddings/hash-sets; the cap prunes by first-seen row, which
  is the batch scan's truncation rule.  :func:`canonical_token` is the
  one token form shared by the batch and streaming paths.
- :class:`FingerprintAccumulator` feeds running md5 digests chunk-by-
  chunk so cache fingerprints never require materializing the column.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro.table.column import _FALSE_TOKENS, _TRUE_TOKENS

__all__ = [
    "KindFlags",
    "FirstKEvidence",
    "TokenStats",
    "canonical_token",
    "FingerprintAccumulator",
    "BOOLEAN_DOMAIN",
]

_FAR_ROW = 1 << 62

# the lowered-token domain `infer_feature_type_heuristic` reads as Boolean
BOOLEAN_DOMAIN = frozenset(
    {"true", "false", "yes", "no", "0", "1", "t", "f", "y", "n"}
)


class KindFlags:
    """OR-merged evidence flags mirroring ``_infer_kind``."""

    __slots__ = ("saw_bool", "saw_number", "saw_string")

    def __init__(self) -> None:
        self.saw_bool = False
        self.saw_number = False
        self.saw_string = False

    def observe_token(self, token: str) -> None:
        """Classify one non-missing raw CSV token exactly as ``_infer_kind``."""
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

    def merge(self, other: "KindFlags") -> "KindFlags":
        self.saw_bool = self.saw_bool or other.saw_bool
        self.saw_number = self.saw_number or other.saw_number
        self.saw_string = self.saw_string or other.saw_string
        return self

    def copy(self) -> "KindFlags":
        clone = KindFlags()
        clone.merge(self)
        return clone

    def kind_name(self) -> str:
        """`_infer_kind` precedence: string > number > bool > string."""
        if self.saw_string:
            return "string"
        if self.saw_number:
            return "numeric"
        if self.saw_bool:
            return "boolean"
        return "string"

    def canonical_state(self) -> tuple:
        return (self.saw_bool, self.saw_number, self.saw_string)


class FirstKEvidence:
    """The ``k`` present values with the smallest global row indices."""

    __slots__ = ("k", "_entries", "_threshold")

    def __init__(self, k: int = 200) -> None:
        self.k = k
        self._entries: list[tuple[int, Any]] = []  # (row, value)
        self._threshold = _FAR_ROW  # rows >= this can never make the cut

    def update(self, values: Iterable[Any], rows: Iterable[int]) -> None:
        entries = self._entries
        threshold = self._threshold
        for value, row in zip(values, rows):
            if row < threshold:
                entries.append((row, value))
        if len(entries) > 4 * self.k:
            self._prune()

    def _prune(self) -> None:
        if len(self._entries) > self.k:
            self._entries.sort(key=lambda rv: rv[0])
            del self._entries[self.k:]
            self._threshold = self._entries[-1][0]

    def merge(self, other: "FirstKEvidence") -> "FirstKEvidence":
        if self.k != other.k:
            raise ValueError("cannot merge FirstKEvidence with different k")
        self._entries.extend(other._entries)
        self._prune()
        return self

    def copy(self) -> "FirstKEvidence":
        clone = FirstKEvidence(self.k)
        clone._entries = list(self._entries)
        clone._threshold = self._threshold
        return clone

    def values(self) -> list[Any]:
        """The first-K present values in row order."""
        self._prune()
        return [value for _, value in sorted(self._entries, key=lambda rv: rv[0])]

    def canonical_state(self) -> tuple:
        self._prune()
        return tuple(sorted((row, repr(value)) for row, value in self._entries))


def canonical_token(value: Any) -> str:
    """The embedding/hash-set token of one present cell.

    Integral floats print as integers (``2.0`` and ``"2"`` share a
    token, and so do ``0.0`` and ``-0.0``).  Other floats print as
    ``str`` does, which has no spaces or capitals to fold.  Everything
    else is its stripped, lower-cased ``str``.
    """
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else str(value)
    return str(value).strip().lower()


class TokenStats:
    """Canonical-token counts with first-seen rows, capped by row order.

    ``cap`` bounds the number of distinct tokens tracked; overflow prunes
    the tokens with the *largest* first-seen rows, matching the batch
    scan that stops admitting new distinct tokens past its cap.
    """

    __slots__ = ("cap", "_tokens")

    def __init__(self, cap: int = 5000) -> None:
        self.cap = cap
        self._tokens: dict[str, list[int]] = {}  # token -> [count, min_row]

    def update(self, tokens: Iterable[str], rows: Iterable[int]) -> None:
        table = self._tokens
        for token, row in zip(tokens, rows):
            entry = table.get(token)
            if entry is not None:
                entry[0] += 1
                if row < entry[1]:
                    entry[1] = row
            else:
                table[token] = [1, row]
        if len(table) > 2 * self.cap:
            self._prune()

    def _prune(self) -> None:
        if len(self._tokens) > self.cap:
            ranked = sorted(self._tokens.items(), key=lambda kv: (kv[1][1], kv[0]))
            self._tokens = dict(ranked[: self.cap])

    def merge(self, other: "TokenStats") -> "TokenStats":
        if self.cap != other.cap:
            raise ValueError("cannot merge TokenStats with different caps")
        table = self._tokens
        for token, (count, row) in other._tokens.items():
            entry = table.get(token)
            if entry is not None:
                entry[0] += count
                if row < entry[1]:
                    entry[1] = row
            else:
                table[token] = [count, row]
        if len(table) > self.cap:
            self._prune()
        return self

    def copy(self) -> "TokenStats":
        clone = TokenStats(self.cap)
        clone._tokens = {token: list(entry) for token, entry in self._tokens.items()}
        return clone

    def items_first_seen(self) -> list[tuple[str, int]]:
        """``(token, count)`` pairs in first-seen row order, within cap."""
        self._prune()
        return [
            (token, entry[0])
            for token, entry in sorted(
                self._tokens.items(), key=lambda kv: (kv[1][1], kv[0])
            )
        ]

    def __len__(self) -> int:
        return len(self._tokens)

    def canonical_state(self) -> tuple:
        self._prune()
        return tuple(sorted(
            (token, entry[0], entry[1]) for token, entry in self._tokens.items()
        ))


class FingerprintAccumulator:
    """Running (data, mask) md5 pair matching ``column_fingerprint``.

    The batch fingerprint hashes the data buffer and the missing mask as
    two separate digests (combined at the end), precisely so a streaming
    producer can feed both running hashes chunk-by-chunk without ever
    holding the column.  Chunks must arrive in canonical row order —
    the streaming profiler's ordered fold guarantees that.
    """

    __slots__ = ("_data_md5", "_mask_md5", "n", "n_missing")

    def __init__(self) -> None:
        self._data_md5 = hashlib.md5()
        self._mask_md5 = hashlib.md5()
        self.n = 0
        self.n_missing = 0

    def update(self, data_bytes: bytes, mask_bytes: bytes, n: int, n_missing: int) -> None:
        self._data_md5.update(data_bytes)
        self._mask_md5.update(mask_bytes)
        self.n += n
        self.n_missing += n_missing

    def fingerprint(self, kind_name: str) -> tuple:
        """The ``(kind, len, n_missing, content)`` cache key."""
        combined = hashlib.md5(
            self._data_md5.digest() + self._mask_md5.digest()
        ).hexdigest()
        return (kind_name, self.n, self.n_missing, combined)

    def copy(self) -> "FingerprintAccumulator":
        clone = FingerprintAccumulator()
        clone._data_md5 = self._data_md5.copy()
        clone._mask_md5 = self._mask_md5.copy()
        clone.n = self.n
        clone.n_missing = self.n_missing
        return clone
