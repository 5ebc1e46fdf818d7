"""Plain-text reporting helpers for the experiment harness.

The benchmarks regenerate the thesis' tables and figure series as ASCII;
these helpers keep the output format consistent across experiments so
EXPERIMENTS.md can quote them directly.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    columns = [[str(h)] + [_fmt(row[i]) for row in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            " | ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_series(
    name: str, values: Sequence[float], max_points: int = 24
) -> str:
    """Compact rendering of a long ordered series (downsampled)."""
    if not values:
        return f"{name}: <empty>"
    if len(values) <= max_points:
        shown = list(values)
    else:
        step = (len(values) - 1) / (max_points - 1)
        shown = [values[round(i * step)] for i in range(max_points)]
    body = " ".join(f"{v:.2f}" if isinstance(v, float) else str(v) for v in shown)
    return f"{name} (n={len(values)}): {body}"


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Unicode sparkline of a numeric series (figures in a terminal)."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    if len(values) > width:
        step = (len(values) - 1) / (width - 1)
        values = [values[round(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi == lo:
        return blocks[0] * len(values)
    scale = (len(blocks) - 1) / (hi - lo)
    return "".join(blocks[round((v - lo) * scale)] for v in values)
