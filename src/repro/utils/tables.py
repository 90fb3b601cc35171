"""Lightweight tabular result container used by the experiment harness.

The paper's evaluation is a set of tables and figure series; :class:`Table`
captures rows of heterogeneous values, prints them in the same row/column
structure the paper reports, and serialises to JSON (the ``--output`` file of
``repro-runtime run``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.utils.serialization import to_jsonable


def _format_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


@dataclass
class Table:
    """Ordered rows of named values.

    ``columns`` fixes the column order; rows may omit values (rendered blank).
    """

    title: str
    columns: Sequence[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"row has columns not declared for table '{self.title}': {sorted(unknown)}")
        self.rows.append(dict(values))

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.add_row(**dict(row))

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise KeyError(f"table '{self.title}' has no column '{name}'")
        return [row.get(name) for row in self.rows]

    def sort(self, key: str, reverse: bool = False) -> None:
        self.rows.sort(key=lambda row: row.get(key), reverse=reverse)

    def filter(self, predicate: Callable[[Mapping[str, Any]], bool]) -> "Table":
        kept = [dict(row) for row in self.rows if predicate(row)]
        return Table(self.title, list(self.columns), kept)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [to_jsonable(row) for row in self.rows],
        }

    def __len__(self) -> int:
        return len(self.rows)


def format_markdown(table: Table, float_format: str = ".3g") -> str:
    """Render a :class:`Table` as GitHub-flavoured markdown."""
    header = "| " + " | ".join(table.columns) + " |"
    divider = "|" + "|".join("---" for _ in table.columns) + "|"
    lines = [f"### {table.title}", "", header, divider]
    for row in table.rows:
        cells = [_format_cell(row.get(col, ""), float_format) for col in table.columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def format_aligned(table: Table, float_format: str = ".4g", padding: int = 2) -> str:
    """Render a :class:`Table` with aligned plain-text columns (console output)."""
    rendered_rows = [
        [_format_cell(row.get(col, ""), float_format) for col in table.columns]
        for row in table.rows
    ]
    widths = [len(col) for col in table.columns]
    for cells in rendered_rows:
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    pad = " " * padding

    def render(cells: Sequence[str]) -> str:
        return pad.join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    lines = [table.title, render(list(table.columns))]
    lines.append(render(["-" * width for width in widths]))
    lines.extend(render(cells) for cells in rendered_rows)
    return "\n".join(lines)
