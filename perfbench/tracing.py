"""In-memory spans around the benchmark's calls into each layer.

A span records a name, start and end (``perf_counter`` seconds), the
span that caused it and a run or job id.  Spans stay in memory and are
written as JSON when the run ends.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Collects spans; every method is a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, run: str | None = None,
             parent: Span | None = None):
        """Time the body as span ``name``; the parent defaults to the
        calling thread's innermost open span, the run id to the
        parent's."""
        if not self.enabled:
            yield None
            return
        parent = parent if parent is not None else self.current()
        if run is None:
            run = parent.run if parent is not None else ""
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.id if parent is not None else None, run)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               parent: Span | None) -> None:
        """Add a span measured elsewhere (e.g. between callbacks)."""
        if not self.enabled:
            return
        span = Span(next(self._ids), name, start, end,
                    parent.id if parent is not None else None,
                    parent.run if parent is not None else "")
        with self._lock:
            self.spans.append(span)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.id, ()))
            row = table.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - covered
        return table

    def render_table(self) -> str:
        rows = sorted(
            self.layer_table().items(), key=lambda kv: -kv[1]["self_s"]
        )
        lines = [f"{'layer span':<24} {'count':>6} {'total s':>10} "
                 f"{'self s':>10}"]
        for name, row in rows:
            lines.append(
                f"{name:<24} {row['count']:>6} {row['total_s']:>10.4f} "
                f"{row['self_s']:>10.4f}"
            )
        return "\n".join(lines)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals, within span."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    reach = span.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def span_cost_seconds(samples: int = 2000) -> float:
    """Measured cost of recording one span on this machine."""
    probe = Tracer(enabled=True)
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples
