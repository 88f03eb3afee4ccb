"""Sharded-backend scaling sweep -> BENCH_shard.json.

Runs the Figure-1 workload through the plain inner backend once (the
baseline) and then through ``sharded(serial)`` at jobs in {1, 2, 4},
archiving per-jobs wall-clock next to the repo root as
``BENCH_shard.json``, so the parallel-scaling trajectory is tracked
across changes alongside ``BENCH_backends.json``.

At the default CI scale the workload is a reduced Figure-1 setup;
``REPRO_BENCH_SCALE=paper`` runs the paper's RAM64 dimensions (428
faults, 407 patterns -- budget tens of minutes per jobs count for the
serial inner backend).

Checks:

* sharding is exact: every jobs count produces detections identical to
  the unsharded inner run (fault, pattern, phase);
* the good circuit is settled exactly once per run (the
  ``good_settles`` counter), whether natively (jobs=1) or via the
  shipped :class:`~repro.core.goodtrace.GoodTrace` (jobs>1);
* the merged report is well-formed: per-block wall times recorded,
  live counts sum to the global count, backend tag names inner x
  shards, ``shard_stats`` carries block fault counts and the
  imbalance ratio;
* sharding at jobs=1 costs at most ``shard_max_jobs1_overhead`` of
  the inner backend run, and the per-worker busy-time imbalance at
  the largest jobs count stays under ``shard_max_imbalance``;
* wall-clock speedup beats 1x at every armed jobs count and
  ``shard_min_speedup`` at the largest -- asserted only for jobs
  counts with that many CPUs actually available (the sweep is pure
  CPU-bound Python, so on a single-core runner jobs=4 physically
  cannot beat jobs=1; the JSON records ``cpus`` so archived numbers
  stay interpretable).
"""

from __future__ import annotations

import json
import os
import time

from repro.circuits.ram import build_ram
from repro.core import SimPolicy, run_backend
from repro.core.faults import ram_fault_universe, sample_faults
from repro.patterns.sequences import sequence1

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_shard.json",
)

INNER = "serial"

#: Timed runs per configuration (min-of-N), interleaved across them.
_REPEATS = 3


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _first_detections(report, n_faults):
    result = {}
    for circuit_id in range(1, n_faults + 1):
        detection = report.log.first_detection(circuit_id)
        result[circuit_id] = (
            (detection.pattern_index, detection.phase_index)
            if detection
            else None
        )
    return result


def test_shard_scaling(bench_scale):
    rows, cols, n_faults = bench_scale["shard"]
    jobs_sweep = bench_scale["shard_jobs"]
    ram = build_ram(rows, cols)
    patterns = list(sequence1(ram).patterns)
    universe = ram_fault_universe(ram)
    if n_faults is None or n_faults >= len(universe):
        faults = universe
    else:
        faults = sample_faults(universe, n_faults, seed=1985)

    policy = SimPolicy(clock="perf")

    def timed(backend, **options):
        start = time.perf_counter()
        report = run_backend(
            backend, ram.net, faults, [ram.dout], patterns, policy,
            **options,
        )
        return report, time.perf_counter() - start

    # The unsharded inner backend is the exactness and overhead
    # baseline.  Every configuration runs _REPEATS times, interleaved
    # (inner, jobs=1, jobs=2, ..., inner, ...) after one untimed
    # warm-up, and keeps its fastest wall: single measurements of
    # CPU-bound runs are too noisy on shared runners to gate a 15%
    # margin on, and interleaving makes a slow spell land on every
    # configuration alike instead of deciding a ratio.
    configs = {"inner": (INNER, {})}
    for jobs in jobs_sweep:
        configs[jobs] = ("sharded", {"jobs": jobs, "inner_backend": INNER})
    timed(INNER)
    best = {}
    for _ in range(_REPEATS):
        for key, (backend, options) in configs.items():
            report, wall = timed(backend, **options)
            if key not in best or wall < best[key][1]:
                best[key] = (report, wall)
    inner_report, inner_wall = best.pop("inner")
    baseline = _first_detections(inner_report, len(faults))

    runs = {}
    for jobs in jobs_sweep:
        report, wall = best[jobs]
        assert report.backend == f"sharded({INNER}x{jobs})"
        stats = report.shard_stats
        assert stats is not None and stats["jobs"] == jobs
        assert len(report.shard_seconds) == stats["blocks"]
        assert sum(stats["block_faults"]) <= len(faults)
        # The headline claim: one good-circuit settle per run, shipped
        # to the shards as a GoodTrace whenever there is more than one.
        assert report.good_settles == 1
        assert stats["trace_shipped"] == (stats["blocks"] > 1)
        live = [p.live_after for p in report.patterns]
        assert live[-1] == report.n_faults - report.detected
        # Sharding is exact: identical detections to the inner run.
        assert (
            _first_detections(report, len(faults)) == baseline
        ), f"jobs={jobs} diverged from the unsharded {INNER} run"
        runs[jobs] = {"report": report, "wall": wall}

    cpus = _available_cpus()
    base_wall = runs[jobs_sweep[0]]["wall"]
    payload = {
        "workload": "fig1_sequence1",
        "circuit": ram.name,
        "rows": rows,
        "cols": cols,
        "n_patterns": len(patterns),
        "n_faults": len(faults),
        "inner_backend": INNER,
        "inner_wall_seconds": round(inner_wall, 6),
        "jobs1_overhead": round(
            runs[jobs_sweep[0]]["wall"] / max(inner_wall, 1e-9), 3
        ),
        "cpus": cpus,
        "runs": {
            str(jobs): {
                "wall_seconds": round(run["wall"], 6),
                "speedup_vs_jobs1": round(
                    base_wall / max(run["wall"], 1e-9), 3
                ),
                "shard_wall_seconds": [
                    round(s, 6) for s in run["report"].shard_seconds
                ],
                "detected": run["report"].detected,
                "good_settles": run["report"].good_settles,
                "blocks": run["report"].shard_stats["blocks"],
                "block_faults": run["report"].shard_stats["block_faults"],
                "imbalance_ratio": round(
                    run["report"].shard_stats["imbalance_ratio"], 3
                ),
                "trace_shipped": run["report"].shard_stats["trace_shipped"],
            }
            for jobs, run in runs.items()
        },
    }
    with open(_OUT_PATH, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    print()
    print(json.dumps(payload["runs"], indent=2))

    # Sharding must not tax the degenerate case: jobs=1 runs the inner
    # backend inline plus scheduling bookkeeping, nothing more.
    if jobs_sweep[0] == 1:
        assert payload["jobs1_overhead"] <= (
            bench_scale["shard_max_jobs1_overhead"]
        ), payload

    # Parallel speedup needs the parallelism to exist: assert for every
    # jobs count with that many CPUs to run on -- any armed count must
    # beat 1x, the largest must clear the configured floor.
    top = max(jobs_sweep)
    for jobs in jobs_sweep:
        if jobs == jobs_sweep[0] or cpus < jobs:
            continue
        floor = bench_scale["shard_min_speedup"] if jobs == top else 1.0
        assert payload["runs"][str(jobs)]["speedup_vs_jobs1"] > floor, (
            payload["runs"]
        )
    if cpus >= top:
        assert payload["runs"][str(top)]["imbalance_ratio"] <= (
            bench_scale["shard_max_imbalance"]
        ), payload["runs"]
