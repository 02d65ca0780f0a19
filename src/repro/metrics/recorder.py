"""Time-series and sweep-result recording for experiments.

:class:`SeriesRecorder` accumulates (x, series → value) rows from a
parameter sweep and renders them as the aligned text tables the benchmark
harness prints -- the reproduction's analogue of the paper's would-be
results tables.  Slope estimation (ordinary least squares on log-log or
linear axes) backs the "not an increasing function of system size" checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class SeriesRecorder:
    """Rows of sweep results: one x value, many named series."""

    x_label: str = "x"
    _rows: List[Tuple[float, Dict[str, float]]] = field(default_factory=list)

    def add(self, x: float, **values: float) -> None:
        """Record one sweep point."""
        self._rows.append((float(x), {k: float(v) for k, v in values.items()}))

    def series_names(self) -> List[str]:
        """All series names seen, in first-appearance order."""
        names: List[str] = []
        for _, values in self._rows:
            for name in values:
                if name not in names:
                    names.append(name)
        return names

    def series(self, name: str) -> List[Optional[float]]:
        """One series aligned to :attr:`xs` (None where missing)."""
        return [values.get(name) for _, values in self._rows]

    # -- analysis ---------------------------------------------------------------

    def slope(self, name: str, log_log: bool = False) -> float:
        """OLS slope of ``name`` vs x (optionally on log-log axes).

        On log-log axes the slope is the growth *exponent*: ~0 means the
        series is flat in system size (the distributed-systems-principle
        pass condition), ~1 means linear growth (a bottleneck).

        Log-log handling of awkward values: points at ``x <= 0`` have no
        log image and are *skipped* (a sweep may legitimately start at 0);
        zero ``y`` values are clamped to a tiny positive floor, so an
        all-zero series fits as flat instead of blowing up; negative ``y``
        counts indicate a recording bug and raise.
        """
        pts = [
            (x, v)
            for (x, values), v in zip(self._rows, self.series(name), strict=True)
            if v is not None
        ]
        if log_log:
            negative = [(x, v) for x, v in pts if v < 0]
            if negative:
                raise ValueError(
                    f"log-log slope of {name!r}: negative value "
                    f"{negative[0][1]} at x={negative[0][0]}"
                )
            dropped = len(pts)
            pts = [(x, v) for x, v in pts if x > 0]
            dropped -= len(pts)
        if len(pts) < 2:
            extra = f" ({dropped} point(s) at x<=0 dropped)" if log_log and dropped else ""
            raise ValueError(
                f"need >= 2 points to fit a slope for {name!r}, "
                f"have {len(pts)}{extra}"
            )
        xs = [float(p[0]) for p in pts]
        ys = [float(p[1]) for p in pts]
        if log_log:
            xs = [math.log(x) for x in xs]
            ys = [math.log(max(y, 1e-12)) for y in ys]
        # Ordinary least squares, closed form.
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        denom = sum((x - mx) ** 2 for x in xs)
        if denom == 0.0:
            raise ValueError("slope: all x values coincide after transform")
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys, strict=True)) / denom

    # -- rendering ----------------------------------------------------------------

    def to_table(self, title: str = "") -> str:
        """An aligned text table of all rows and series."""
        names = self.series_names()
        header = [self.x_label] + names
        rows: List[List[str]] = []
        for x, values in self._rows:
            row = [self._fmt(x)]
            for name in names:
                v = values.get(name)
                row.append("-" if v is None else self._fmt(v))
            rows.append(row)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = []
        if title:
            lines.append(title)
        lines.append(
            "  ".join(h.rjust(w) for h, w in zip(header, widths, strict=True))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(row, widths, strict=True))
            )
        return "\n".join(lines)

    @staticmethod
    def _fmt(value: float) -> str:
        """Integers as integers, everything else to two decimals."""
        if float(value).is_integer() and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.2f}"

    def __len__(self) -> int:
        return len(self._rows)
