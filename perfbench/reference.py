"""The serial reference detections, computed once per pool and cached.

The reference is the ``serial`` backend with collapsing, trimming and
static pruning off: every faulty circuit simulated on its own, from
scratch.  Each fault's detections are independent of the other faults
in the run, so the pool is split into chunks graded in parallel worker
processes, and any sample's reference is a lookup.

The cache lives in ``.perfbench_work/reference/`` of the checkout, keyed
by a content hash of the pool (netlist, observed nodes, faults,
patterns), so it can never answer for different inputs.

Run as a script to build every missing pool reference::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import get_backend  # noqa: E402
from repro.netlist import sim_format  # noqa: E402
from workloads import POOLS, Pool  # noqa: E402

CACHE_DIR = ROOT / ".perfbench_work" / "reference"

#: Chunks per worker process: small enough that a slow chunk does not
#: leave the other worker idle for long.
CHUNKS_PER_WORKER = 8

#: One fault's detections: (pattern index, phase index) pairs.
Detections = tuple[tuple[int, int], ...]


def grade_serial(netlist, observed, faults, patterns) -> list[Detections]:
    """Reference detections of ``faults``, in order."""
    net = sim_format.loads(netlist)
    backend = get_backend(
        "serial", collapse=False, trim=False, static_prune=False
    )
    report = backend.run(net, faults, observed, patterns)
    found: list[list[tuple[int, int]]] = [[] for _ in faults]
    for detection in report.log.detections:
        found[detection.circuit_id - 1].append(
            (detection.pattern_index, detection.phase_index)
        )
    return [tuple(sorted(hits)) for hits in found]


def _grade_chunk(args) -> tuple[list[int], list[Detections]]:
    indices, netlist, observed, faults, patterns = args
    return indices, grade_serial(netlist, observed, faults, patterns)


def cache_path(pool: Pool) -> Path:
    return CACHE_DIR / f"{pool.spec.name}-{pool.digest}.json"


def build(pool: Pool, workers: int) -> list[Detections]:
    """Grade the whole pool with the serial reference, in parallel."""
    n_chunks = max(1, workers * CHUNKS_PER_WORKER)
    chunks = [
        list(range(start, len(pool.faults), n_chunks))
        for start in range(n_chunks)
    ]
    tasks = [
        (
            indices,
            pool.netlist,
            pool.observed,
            [pool.faults[i] for i in indices],
            pool.patterns,
        )
        for indices in chunks
        if indices
    ]
    results: list[Detections] = [() for _ in pool.faults]
    context = multiprocessing.get_context("spawn")
    with context.Pool(workers) as executor:
        for indices, found in executor.imap_unordered(_grade_chunk, tasks):
            for index, hits in zip(indices, found):
                results[index] = hits
    return results


def load(pool: Pool) -> list[Detections]:
    """The cached reference of ``pool``; raises if it was never built."""
    data = json.loads(cache_path(pool).read_text())
    return [tuple(tuple(hit) for hit in hits) for hits in data]


def ensure_all(workers: int) -> None:
    """Build and cache the reference of every pool that lacks one."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    for spec in POOLS.values():
        pool = Pool(spec)
        path = cache_path(pool)
        if path.exists():
            continue
        start = time.perf_counter()
        detections = build(pool, workers)
        partial = path.with_suffix(".partial")
        partial.write_text(json.dumps(detections))
        partial.replace(path)
        print(
            f"reference {spec.name}: {len(pool.faults)} faults graded "
            f"serially in {time.perf_counter() - start:.1f} s",
            flush=True,
        )


def lifetime(hits: Detections, n_patterns: int) -> int:
    """Patterns a fault stays live for: through the pattern that first
    detects it, or the whole sequence when nothing does."""
    return hits[0][0] + 1 if hits else n_patterns


if __name__ == "__main__":
    ensure_all(workers=max(1, min(2, os.cpu_count() or 1)))
