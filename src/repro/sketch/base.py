"""Shared substrate for the mergeable-summary sketches.

Every sketch in this package follows one contract:

- ``update(...)`` folds a batch of values (with their *global* row
  indices where ordering matters) into the summary;
- ``merge(other)`` combines two summaries of disjoint row ranges into
  the summary of their union — the operation is associative and
  commutative, so shards and chunks can be summarized independently and
  combined in any grouping;
- an *exact mode* keeps the raw state while it stays below a
  configurable cardinality bound, so small inputs round-trip through the
  sketch without any approximation (and the streaming profiler can
  reproduce the batch profiler bit-for-bit).

Determinism is seeded, never salted: hashes are keyed by material drawn
from a :class:`numpy.random.SeedSequence`, so two processes with the
same seed produce identical summaries (unlike builtin ``hash``, which is
``PYTHONHASHSEED``-salted).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "SketchConfig",
    "encode_value",
    "hash64",
    "hash64_many",
    "priority_for_tokens",
    "priority_for_floats",
    "seed_material",
]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class SketchConfig:
    """Size/threshold knobs shared by every sketch of one profiling run.

    ``exact_threshold`` is the cardinality (or buffer-size) bound below
    which sketches keep exact state; ``kmv_k`` bounds the distinct-count
    sketch (relative error ~ 1/sqrt(k-2)); ``heavy_k`` bounds the
    SpaceSaving counter table after exact mode overflows.
    """

    seed: int = 0
    kmv_k: int = 1024
    heavy_k: int = 256
    exact_threshold: int = 8192
    quantile_k: int = 2048
    evidence_k: int = 200
    stats_cap: int = 5000
    corr_category_cap: int = 512
    contingency_cap: int = 4096

    def spawn_key(self, *scope: Any) -> int:
        """A stable 64-bit hash key for one (seed, scope) combination."""
        seq = np.random.SeedSequence(
            [self.seed] + [zlib.crc32(str(part).encode("utf-8")) for part in scope]
        )
        state = seq.generate_state(2, dtype=np.uint64)
        return int(state[0] ^ (state[1] >> np.uint64(1)))


def seed_material(seed: int, *scope: Any) -> int:
    """Stable 64-bit key from a seed plus arbitrary scope labels."""
    return SketchConfig(seed=seed).spawn_key(*scope)


def encode_value(value: Any) -> bytes:
    """Canonical byte encoding used by hash-based sketches.

    Floats encode as their little-endian IEEE-754 bytes (injective per
    distinct float), strings as UTF-8, booleans as one byte.  The 1-byte
    type tag keeps the three views from colliding.
    """
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        return b"\x03\x01" if value else b"\x03\x00"
    if isinstance(value, float):
        return b"\x02" + struct.pack("<d", value)
    if isinstance(value, str):
        return b"\x01" + value.encode("utf-8", "surrogatepass")
    return b"\x01" + str(value).encode("utf-8", "surrogatepass")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a well-mixed 64-bit permutation."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
    return x ^ (x >> np.uint64(31))


def hash64(key: int, data: bytes) -> int:
    """Seeded 64-bit hash of one encoded value (scalar path)."""
    crc_lo = zlib.crc32(data)
    crc_hi = zlib.crc32(data, 0x9E3779B9)
    packed = ((crc_hi << 32) | crc_lo) ^ (key & 0xFFFFFFFFFFFFFFFF)
    # 0-d arrays keep uint64 arithmetic in silent-wraparound (array) mode
    return int(_splitmix64(np.array([packed], dtype=np.uint64))[0])


def hash64_many(key: int, encodings: "list[bytes]") -> np.ndarray:
    """Batched :func:`hash64` — identical values, one finalizer pass.

    The per-call scalar path pays a numpy array construction per value;
    at chunk sizes that dominates sketch updates, so the hot loops hash
    whole chunks through this instead.
    """
    packed = np.fromiter(
        ((zlib.crc32(data, 0x9E3779B9) << 32) | zlib.crc32(data)
         for data in encodings),
        dtype=np.uint64,
        count=len(encodings),
    )
    return _splitmix64(packed ^ np.uint64(key & 0xFFFFFFFFFFFFFFFF))


def priority_for_tokens(
    key: int, rows: "np.ndarray | list[int]", tokens: "list[str]"
) -> np.ndarray:
    """Deterministic per-(row, value) priorities for bottom-k sampling.

    The priority depends only on ``(key, row, token)``, so the k lowest
    priorities over a multiset of rows form an order-invariant sample:
    chunking, sharding, and merge grouping cannot change the selection.
    """
    crcs = np.fromiter(
        (zlib.crc32(token.encode("utf-8", "surrogatepass")) for token in tokens),
        dtype=np.uint64,
        count=len(tokens),
    )
    rows64 = np.asarray(rows, dtype=np.uint64)
    return _splitmix64((rows64 << np.uint64(32)) ^ crcs ^ np.uint64(key & 0xFFFFFFFFFFFFFFFF))


def priority_for_floats(
    key: int, rows: "np.ndarray | list[int]", values: np.ndarray
) -> np.ndarray:
    """Vectorized priorities for float values (C-speed, no per-value loop)."""
    bits = np.ascontiguousarray(np.asarray(values, dtype=np.float64)).view(np.uint64)
    rows64 = np.asarray(rows, dtype=np.uint64)
    return _splitmix64(
        (rows64 << np.uint64(32)) ^ _splitmix64(bits) ^ np.uint64(key & 0xFFFFFFFFFFFFFFFF)
    )
