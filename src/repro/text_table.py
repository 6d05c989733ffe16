"""Fixed-width text tables: the one renderer behind the paper-style
experiment tables and the ``repro runs`` listings."""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Left-justified columns joined by `` | `` under a ``-+-`` rule."""
    columns = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in columns]

    def line(cells: Sequence[Any]) -> str:
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(row) for row in rows)
    return "\n".join(out)
