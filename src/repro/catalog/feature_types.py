"""ML feature types layered over physical data types.

The paper distinguishes *data types* (string, number, boolean) from
*feature types* the catalog refines them into (Section 3.2, Figure 5):
Categorical, List, Sentence, Numerical, Boolean, plus the degenerate
Constant and Id kinds that the prompt-construction stage filters out.
"""

from __future__ import annotations

import enum
import re
from typing import Sequence

import numpy as np

from repro.table.column import Column

__all__ = [
    "FeatureType",
    "infer_feature_type_heuristic",
    "infer_feature_type_from_stats",
]


class FeatureType(str, enum.Enum):
    NUMERICAL = "Numerical"
    CATEGORICAL = "Categorical"
    BOOLEAN = "Boolean"
    SENTENCE = "Sentence"
    LIST = "List"
    CONSTANT = "Constant"
    ID = "Id"


_LIST_DELIMITERS = (",", ";", "|")
_WORD_RE = re.compile(r"[A-Za-z]{2,}")
# the list and sentence detectors read only the first this-many present values
_EVIDENCE_CAP = 200


def infer_feature_type_heuristic(
    column: Column, distinct_fraction: float
) -> FeatureType:
    """Statistical baseline for feature-type inference.

    This is the *pre-refinement* typing based purely on syntactic evidence
    (what a conventional profiler would assign).  The LLM refinement stage
    (:mod:`repro.catalog.refinement`) can override it using semantic
    evidence, which is the behaviour the paper evaluates in Table 4.

    Each distinct value is read once, keyed type-exactly the way it
    renders: the pool values the present cells use for dictionary
    columns (``1``, ``True`` and ``1.0`` stay three values), the distinct
    float64 bit patterns for numeric ones (``0.0`` and ``-0.0`` stay two).
    """
    codes = column.codes
    if codes is None:
        present = column.numeric_values()[~column.missing]
        if present.size == 0:
            return FeatureType.CONSTANT
        distinct_count = int(np.unique(present.view(np.uint64)).size)
        all_integer = distinct_count > 1 and bool(
            np.all(np.isfinite(present) & (np.floor(present) == present))
        )
        in_boolean_domain = False
    else:
        present = codes[codes >= 0]
        if present.size == 0:
            return FeatureType.CONSTANT
        used = np.flatnonzero(np.bincount(present, minlength=column.pool.shape[0]))
        distinct = {str(v) for v in column.pool[used].tolist()}
        distinct_count = len(distinct)
        all_integer = False
        in_boolean_domain = {v.strip().lower() for v in distinct} <= _BOOLEAN_DOMAIN
    head = present[:_EVIDENCE_CAP]
    evidence = head.tolist() if codes is None else column.pool[head].tolist()
    return infer_feature_type_from_stats(
        n_present=int(present.size),
        distinct_count=distinct_count,
        distinct_fraction=distinct_fraction,
        is_numeric=codes is None,
        n_rows=len(column),
        all_integer=all_integer,
        in_boolean_domain=in_boolean_domain,
        evidence=[str(v) for v in evidence],
    )


_BOOLEAN_DOMAIN = frozenset(
    {"true", "false", "yes", "no", "0", "1", "t", "f", "y", "n"}
)


def infer_feature_type_from_stats(
    n_present: int,
    distinct_count: int,
    distinct_fraction: float,
    is_numeric: bool,
    n_rows: int,
    all_integer: bool,
    in_boolean_domain: bool,
    evidence: Sequence[str],
) -> FeatureType:
    """Feature typing from summary statistics instead of the full column.

    This is the decision core shared by the batch heuristic above and
    the streaming profiler, which supplies the inputs from mergeable
    sketches: ``distinct_count`` (KMV), ``all_integer`` and
    ``in_boolean_domain`` (AND-merged flags), and ``evidence`` (the
    first ~200 present values by row — the window the list/sentence
    detectors inspect).
    """
    if n_present == 0 or distinct_count <= 1:
        return FeatureType.CONSTANT
    if is_numeric:
        # small distinct integer domains read as categorical codes
        if distinct_count <= 12 and all_integer:
            return FeatureType.CATEGORICAL
        if distinct_fraction > 0.999 and n_rows > 50 and all_integer:
            return FeatureType.ID
        return FeatureType.NUMERICAL
    if in_boolean_domain:
        return FeatureType.BOOLEAN
    str_values = [str(v) for v in evidence]
    if _looks_like_list(str_values):
        return FeatureType.LIST
    if _looks_like_sentence(str_values, distinct_fraction):
        return FeatureType.SENTENCE
    if distinct_fraction > 0.95 and distinct_count > 50:
        return FeatureType.ID
    return FeatureType.CATEGORICAL


def _looks_like_list(values: list[str]) -> bool:
    """Delimiter-separated cells drawing on a shared small vocabulary."""
    sample = values[:_EVIDENCE_CAP]
    for delim in _LIST_DELIMITERS:
        multi = [v for v in sample if delim in v]
        if len(multi) < max(2, len(sample) // 4):
            continue
        vocabulary: dict[str, int] = {}
        cells_with_items = 0
        for cell in sample:
            items = [item.strip() for item in cell.split(delim) if item.strip()]
            if not items:
                continue
            cells_with_items += 1
            for item in items:
                vocabulary[item] = vocabulary.get(item, 0) + 1
        if not vocabulary or cells_with_items < 2:
            continue
        reuse = sum(1 for count in vocabulary.values() if count > 1)
        # list features re-use items across rows; free text rarely does
        if reuse >= max(2, len(vocabulary) // 3) and len(vocabulary) <= cells_with_items * 3:
            return True
    return False


def _looks_like_sentence(values: list[str], distinct_fraction: float) -> bool:
    """Mostly-unique, multi-word strings read as sentence data."""
    if distinct_fraction < 0.5:
        return False
    sample = values[:_EVIDENCE_CAP]
    multi_word = sum(1 for v in sample if len(_WORD_RE.findall(v)) >= 2 or " " in v.strip())
    mixed_repr = sum(1 for v in sample if _WORD_RE.search(v) and re.search(r"\d", v))
    return (multi_word + mixed_repr) >= len(sample) // 2
