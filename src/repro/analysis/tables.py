"""Plain-text and markdown table rendering.

The sandboxed environment has no plotting stack, so every experiment's
output is a table of the series the paper's figures/theorems describe.
:class:`Table` keeps the data as typed rows and renders to aligned ASCII
(for terminal/benchmark output) or markdown (for EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence


def _fmt(x: Any, precision: int = 4) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        if x != x:  # NaN: "no value", e.g. a method with no bound
            return "-"
        if x in (float("inf"), float("-inf")):
            return "inf" if x > 0 else "-inf"
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return f"{x:.{precision}g}"
    return str(x)


@dataclass
class Table:
    """A titled table with named columns and typed rows."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column, for assertions on series shape."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    # -- rendering ----------------------------------------------------------------

    def render(self, *, precision: int = 4) -> str:
        """Aligned ASCII rendering."""
        header = [str(c) for c in self.columns]
        body = [[_fmt(v, precision) for v in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self, *, precision: int = 4) -> str:
        """GitHub-flavoured markdown rendering (used by EXPERIMENTS.md)."""
        header = [str(c) for c in self.columns]
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(v, precision) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
