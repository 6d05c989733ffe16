"""Materializing prepared data (paper Section 3.2, last step).

"After completing the refinement process, we update and overwrite the
input dataset.  In detail, we apply the mapping of categorical features
values and join multi-table datasets into a single table."

The category mappings (and the other refinement operations) are applied
by :meth:`repro.catalog.refinement.RefinementResult.apply_to`; this
module holds the multi-table join.
"""

from __future__ import annotations

from typing import Sequence

from repro.table.table import Table

__all__ = ["join_multi_table"]


def join_multi_table(
    tables: Sequence[Table], join_plan: Sequence[tuple[str, str, str]]
) -> Table:
    """Join a multi-table dataset into one table.

    ``join_plan`` lists ``(left_table_name, right_table_name, key)`` steps;
    the first entry's left table is the fact table.  Left joins keep every
    fact row (lookup semantics on dimension tables).
    """
    by_name = {t.name: t for t in tables}
    if not join_plan:
        if len(tables) == 1:
            return tables[0]
        raise ValueError("multi-table dataset requires a join plan")
    current: Table | None = None
    current_name = join_plan[0][0]
    for left_name, right_name, key in join_plan:
        if current is None:
            current = by_name[left_name]
        elif left_name != current_name:
            raise ValueError(
                f"join plan must chain from {current_name!r}, got {left_name!r}"
            )
        current = current.join(by_name[right_name], on=key, how="left")
        current.name = current_name
    assert current is not None
    return current

