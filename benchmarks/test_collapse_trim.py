"""Fault collapsing + trimming speedup benchmark -> BENCH_collapse.json.

Runs the Figure-1 RAM16 workload over a combined fault universe (the
paper's node-stuck universe plus the transistor stuck-open/stuck-closed
universe, where structural collapsing actually bites) twice per
backend: once with collapsing and trimming enabled (the default) and
once with ``collapse=False, trim=False`` -- the exact pre-optimization
behavior.  Archives both timings next to the repo root as
``BENCH_collapse.json``.

Checks:

* post-expansion detections are identical to the uncollapsed baseline
  -- same faults detected at the same pattern and phase (collapsing and
  trimming are pure redundancy elimination, never approximation);
* each backend beats its own baseline end-to-end by the configured
  factor (``collapse_min_speedup``, 1.3x at both scales);
* the collapse actually found classes (representatives < faults) and
  the trim counters actually fired.

Timing uses the process clock: after one untimed warm-up run the two
legs alternate (optimized, baseline, optimized, ...) and each keeps the
min over its repeats, so a slow spell on a shared host lands on both
legs alike and the speedup assertion measures algorithmic work.
"""

from __future__ import annotations

import json
import os

from repro.circuits.ram import build_ram
from repro.core import SimPolicy, run_backend
from repro.core.faults import (
    ram_fault_universe,
    sample_faults,
    transistor_stuck_universe,
)
from repro.patterns.sequences import sequence1

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_collapse.json",
)

#: Timed repeats per leg (min-of-N), interleaved across the legs.
_REPEATS = 3


def _first_detections(report):
    return {
        circuit_id: (
            (hit.pattern_index, hit.phase_index)
            if (hit := report.log.first_detection(circuit_id)) is not None
            else None
        )
        for circuit_id in range(1, report.n_faults + 1)
    }


def _timed_legs(backend, net, faults, observed, patterns, legs):
    """Min-of-repeats process-clock reports, one per option set in
    ``legs``, with the legs interleaved after one untimed warm-up."""
    policy = SimPolicy()  # process clock: measure work, not the machine

    def run(options):
        return run_backend(
            backend, net, faults, observed, patterns, policy, **options
        )

    run(legs[0])
    best = [None] * len(legs)
    for _ in range(_REPEATS):
        for index, options in enumerate(legs):
            report = run(options)
            if (
                best[index] is None
                or report.total_seconds < best[index].total_seconds
            ):
                best[index] = report
    return best


def test_collapse_trim_speedup(bench_scale):
    rows, cols, n_serial, n_concurrent = bench_scale["collapse"]
    min_speedup = bench_scale["collapse_min_speedup"]
    ram = build_ram(rows, cols)
    patterns = list(sequence1(ram).patterns)
    universe = ram_fault_universe(ram) + transistor_stuck_universe(ram.net)

    def pick(count):
        if count is None or count >= len(universe):
            return universe
        return sample_faults(universe, count, seed=1985)

    payload = {
        "workload": "fig1_sequence1",
        "circuit": ram.name,
        "rows": rows,
        "cols": cols,
        "n_patterns": len(patterns),
        "universe_faults": len(universe),
        "clock": "process",
        "repeats": _REPEATS,
        "min_speedup": min_speedup,
        "backends": {},
    }
    for backend, faults in (
        ("serial", pick(n_serial)),
        ("concurrent", pick(n_concurrent)),
    ):
        # static_prune is off on both legs so the measurement isolates
        # collapse + trim (test_static_prune.py measures the pruner).
        optimized, baseline = _timed_legs(
            backend, ram.net, faults, [ram.dout], patterns,
            (
                {"static_prune": False},
                {"collapse": False, "trim": False, "static_prune": False},
            ),
        )

        # Redundancy elimination must not change the answer: identical
        # post-expansion detections, fault by fault.
        assert _first_detections(optimized) == _first_detections(baseline)

        # The machinery must actually be engaging on this workload.
        stats = optimized.collapse
        assert stats is not None
        assert stats["representatives"] < stats["faults"] == len(faults)
        assert optimized.trim and any(optimized.trim.values())
        assert baseline.collapse is None and baseline.trim is None

        speedup = baseline.total_seconds / max(
            optimized.total_seconds, 1e-9
        )
        payload["backends"][backend] = {
            "n_faults": len(faults),
            "representatives": stats["representatives"],
            "classes": stats["classes"],
            "trim": optimized.trim,
            "optimized_seconds": round(optimized.total_seconds, 6),
            "baseline_seconds": round(baseline.total_seconds, 6),
            "speedup": round(speedup, 3),
            "detected": optimized.detected,
        }
        assert speedup >= min_speedup, (backend, speedup, min_speedup)

    with open(_OUT_PATH, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    print()
    print(json.dumps(payload["backends"], indent=2))
