"""ASCII rendering of the paper's figures and tables.

The experiment drivers produce numeric series; these helpers draw them as
monospace charts (suitable for terminals and logs) and aligned
tables.  Figures 1 and 2 are dual-series charts (cumulative
faults detected rising, seconds-per-pattern falling); Figure 3 is a pair
of straight lines over fault-sample size.
"""

from __future__ import annotations

from typing import Sequence


def ascii_chart(
    values: Sequence[float],
    *,
    title: str = "",
    height: int = 12,
    width: int = 72,
    y_label: str = "",
) -> str:
    """A single-series scatter chart with axis annotations."""
    if not values:
        return f"{title}\n(no data)\n"
    resampled = _resample(list(values), width)
    top = max(resampled)
    bottom = min(resampled)
    span = (top - bottom) or 1.0
    rows = []
    for level in range(height, -1, -1):
        threshold_low = bottom + span * (level - 0.5) / height
        threshold_high = bottom + span * (level + 0.5) / height
        line = "".join(
            "*" if threshold_low <= value < threshold_high else " "
            for value in resampled
        )
        label = ""
        if level == height:
            label = _short(top)
        elif level == 0:
            label = _short(bottom)
        rows.append(f"{label:>9s} |{line}")
    axis = f"{'':>9s} +" + "-" * len(resampled)
    header = f"{title}\n" if title else ""
    footer = f"{'':>11s}1 .. {len(values)} (pattern)"
    y_note = f"  [y: {y_label}]" if y_label else ""
    return f"{header}{chr(10).join(rows)}\n{axis}\n{footer}{y_note}\n"


def dual_chart(
    rising: Sequence[float],
    falling: Sequence[float],
    *,
    title: str,
    rising_label: str = "faults detected",
    falling_label: str = "seconds/pattern",
    height: int = 14,
    width: int = 72,
) -> str:
    """Figure 1/2 style chart: two series on independent scales.

    ``+`` plots the rising (detection) series, ``*`` the falling
    (seconds-per-pattern) series; each is normalized to its own range,
    exactly like the paper's dual-axis figures.
    """
    n = max(len(rising), len(falling))
    if n == 0:
        return f"{title}\n(no data)\n"
    rise = _resample(list(rising), width)
    fall = _resample(list(falling), width)
    columns = max(len(rise), len(fall))

    def normalize(series):
        top, bottom = max(series), min(series)
        span = (top - bottom) or 1.0
        return [(v - bottom) / span for v in series], top, bottom

    rise_n, rise_top, _ = normalize(rise)
    fall_n, fall_top, fall_bottom = normalize(fall)
    grid = [[" "] * columns for _ in range(height + 1)]
    for x in range(columns):
        grid[height - round(rise_n[x] * height)][x] = "+"
    for x in range(columns):
        row = height - round(fall_n[x] * height)
        grid[row][x] = "#" if grid[row][x] == "+" else "*"
    lines = [f"{title}"]
    lines.append(
        f"  [+] {rising_label} (max {_short(rise_top)})   "
        f"[*] {falling_label} (max {_short(fall_top)}, "
        f"min {_short(fall_bottom)})"
    )
    for row in grid:
        lines.append("   |" + "".join(row))
    lines.append("   +" + "-" * columns)
    lines.append(f"    1 .. {n} (pattern)")
    return "\n".join(lines) + "\n"


def xy_chart(
    points_by_series: dict[str, Sequence[tuple[float, float]]],
    *,
    title: str,
    height: int = 12,
    width: int = 60,
) -> str:
    """Figure 3 style chart: named (x, y) series on shared axes.

    Each series is drawn with its own marker (first letter of its name).
    """
    all_points = [p for pts in points_by_series.values() for p in pts]
    if not all_points:
        return f"{title}\n(no data)\n"
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_top, x_bottom = max(xs), min(xs)
    y_top, y_bottom = max(ys), min(ys)
    x_span = (x_top - x_bottom) or 1.0
    y_span = (y_top - y_bottom) or 1.0
    grid = [[" "] * (width + 1) for _ in range(height + 1)]
    for name, points in points_by_series.items():
        marker = name[0]
        for x, y in points:
            column = round((x - x_bottom) / x_span * width)
            row = height - round((y - y_bottom) / y_span * height)
            grid[row][column] = marker
    lines = [title]
    for name in points_by_series:
        lines.append(f"  [{name[0]}] {name}")
    lines.append(f"{_short(y_top):>9s} |" + "")
    for row in grid:
        lines.append(f"{'':>9s} |" + "".join(row))
    lines.append(f"{_short(y_bottom):>9s} +" + "-" * (width + 1))
    lines.append(f"{'':>11s}{_short(x_bottom)} .. {_short(x_top)}")
    return "\n".join(lines) + "\n"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A fixed-width aligned text table."""
    table = [list(map(str, headers))] + [
        [str(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(row[i]) for row in table) for i in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(table):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def _resample(values: list[float], width: int) -> list[float]:
    """Average-bucket ``values`` down to at most ``width`` columns."""
    if len(values) <= width:
        return values
    bucket = len(values) / width
    result = []
    for i in range(width):
        lo = int(i * bucket)
        hi = max(lo + 1, int((i + 1) * bucket))
        chunk = values[lo:hi]
        result.append(sum(chunk) / len(chunk))
    return result


def _short(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.3g}"
    if abs(value) >= 1:
        return f"{value:.3g}"
    return f"{value:.2g}"
