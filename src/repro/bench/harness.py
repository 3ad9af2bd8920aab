"""Experiment harness: tables and series.

Every benchmark in ``benchmarks/`` prints through :class:`Table` (for the
paper-style tables) or :class:`Series` (for figure data), so outputs are
uniform and EXPERIMENTS.md can quote them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["Table", "Series", "bench_metadata"]


def bench_metadata() -> Dict[str, Any]:
    """Environment + engine-flag snapshot embedded in bench reports.

    Records everything needed to interpret a ``BENCH_wallclock.json``
    after the fact: interpreter and numpy versions plus the default
    :class:`~repro.dataflow.context.ExecOptions` the suite's contexts ran
    under.
    """
    import dataclasses
    import platform
    import numpy
    from ..dataflow import ExecOptions
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "exec_options": dataclasses.asdict(ExecOptions()),
    }


class Table:
    """An aligned text table with a title (one per experiment table).

    >>> t = Table("T0: demo", ["x", "y"])
    >>> t.add_row([1, 2.5])
    >>> print(t.render())    # doctest: +SKIP
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("table needs columns")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, values: Sequence[Any]) -> None:
        """Append a row (formatted: floats to 4 significant digits)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)}")
        self.rows.append([self._fmt(v) for v in values])

    @staticmethod
    def _fmt(v: Any) -> str:
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1e5 or abs(v) < 1e-3:
                return f"{v:.3e}"
            return f"{v:.4g}"
        return str(v)

    def render(self) -> str:
        """The table as aligned text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [f"== {self.title} ==", header, sep]
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table (benchmarks call this)."""
        print("\n" + self.render())

    def column(self, name: str) -> List[str]:
        """All cells of one column (assert helpers in tests)."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


@dataclass
class Series:
    """One figure line: a named (x, y) sequence."""

    name: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.xs.append(float(x))
        self.ys.append(float(y))

    def render(self) -> str:
        """The series as `name: (x, y) ...` text."""
        pts = "  ".join(f"({x:g}, {y:.5g})" for x, y in zip(self.xs, self.ys))
        return f"{self.name}: {pts}"

    def show(self) -> None:
        """Print the rendered series."""
        print(self.render())
