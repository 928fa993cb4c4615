"""One result table for every experiment.

Every experiment returns a :class:`ResultTable`: its title, the
columns it prints, and one frozen row dataclass per benchmark (each
with a ``benchmark`` field). A :class:`Column` says how to read its
value from a row and how to print it, so the printed table,
:meth:`ResultTable.cell` and :meth:`ResultTable.average` all read the
same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple

#: Width of the label column every table starts with: "Benchmark" in
#: the header, a benchmark on each row, "Average" on the Average line.
_LABEL_WIDTH = 11


def item(field: str, key: Hashable) -> Callable[[Any], Any]:
    """Reads ``row.<field>[key]``: a column over one entry of a dict."""
    return lambda row: getattr(row, field)[key]


@dataclass(frozen=True)
class Column:
    """One printed column.

    Attributes:
        name: the key :meth:`ResultTable.cell` and
            :meth:`ResultTable.average` read it by.
        value: reads the column's value from a row.
        width: printed width of each value.
        spec: format spec after the width (``".1f"``, ``"d"``, ``"s"``).
        header: printed header (default: ``name``); it aligns like the
            values, left for strings and right for numbers.
        sep: printed before the column on every line; a wider one
            separates column groups.
        averaged: whether the Average line shows the column's mean.
    """

    name: str
    value: Callable[[Any], Any]
    width: int
    spec: str = ".1f"
    header: Optional[str] = None
    sep: str = " "
    averaged: bool = True

    def format_header(self) -> str:
        align = "<" if self.spec == "s" else ">"
        return self.sep + format(self.header or self.name,
                                 f"{align}{self.width}")

    def format_value(self, value: Any) -> str:
        return self.sep + format(value, f"{self.width}{self.spec}")


@dataclass(frozen=True)
class ResultTable:
    """An experiment's rows, printed as its columns say."""

    title: Optional[str]
    columns: Tuple[Column, ...]
    rows: Tuple[Any, ...]

    def _column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(
            f"no column {name!r}; columns: "
            f"{[column.name for column in self.columns]}"
        )

    def cell(self, benchmark: str, name: str) -> Any:
        """The value of column ``name`` in ``benchmark``'s row."""
        column = self._column(name)
        for row in self.rows:
            if row.benchmark == benchmark:
                return column.value(row)
        raise KeyError(
            f"no row for benchmark {benchmark!r}; rows: "
            f"{[row.benchmark for row in self.rows]}"
        )

    def average(self, name: str) -> float:
        """The mean of column ``name`` over the rows."""
        column = self._column(name)
        return sum(column.value(row) for row in self.rows) / len(self.rows)

    def format_table(self) -> str:
        """Title, header, rule, rows, and the Average line when any
        column is averaged (a blank where one is not, right-stripped)."""
        header = f"{'Benchmark':{_LABEL_WIDTH}s}" + "".join(
            column.format_header() for column in self.columns
        )
        lines = [self.title] if self.title else []
        lines += [header, "-" * len(header)]
        for row in self.rows:
            lines.append(f"{row.benchmark:{_LABEL_WIDTH}s}" + "".join(
                column.format_value(column.value(row))
                for column in self.columns
            ))
        if any(column.averaged for column in self.columns):
            lines.append((f"{'Average':{_LABEL_WIDTH}s}" + "".join(
                column.format_value(self.average(column.name))
                if column.averaged else column.sep + " " * column.width
                for column in self.columns
            )).rstrip())
        return "\n".join(lines)
