"""Summary statistics and the result-line format of the benchmark."""

from __future__ import annotations

import json
import math
import re
import statistics
from typing import Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND):
    """The highest percentile that leaves ``beyond`` samples above it.

    Returns ``(value, percentile, count)``: the sample of rank
    ``count - beyond`` (1-based) in ascending order, the percentile that
    rank is, and the sample count.  Needs more than ``beyond`` samples.
    """
    count = len(values)
    if count <= beyond:
        raise ValueError(
            f"a tail needs more than {beyond} samples, got {count}"
        )
    rank = count - beyond
    return sorted(values)[rank - 1], 100.0 * rank / count, count


def metric(value: float, unit: str) -> dict:
    """One printed metric: a finite number with its unit."""
    if not UNIT.fullmatch(unit):
        raise ValueError(f"bad unit {unit!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, dict]
) -> str:
    """The JSON object the benchmark prints as its last line."""
    for name, entry in metrics.items():
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if set(entry) != {"value", "unit"}:
            raise ValueError(f"metric {name!r} must carry a value and unit")
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )
