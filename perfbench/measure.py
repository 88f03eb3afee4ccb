"""One measured benchmark run of one workload, in a fresh process.

Called by ``run.py`` after the serial references exist; prints a
readable report and, as its last line, the JSON result.  Exits 1 when
any graded detection set differs from the serial reference.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import multiprocessing
import os
import platform
import resource
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.static import classify_faults  # noqa: E402
from repro.core import get_backend, record_good_trace  # noqa: E402
from repro.core.backends import supports_progress  # noqa: E402
from repro.core.faults import collapse_faults  # noqa: E402
from repro.netlist import sim_format  # noqa: E402
from repro.netlist.validate import ERROR, validate  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    CancelledFrame,
    DoneFrame,
    JobSpec,
    PatternFrame,
    StartedFrame,
    encode_frame,
)
from repro.service.server import FaultSimServer  # noqa: E402
from repro.switchlevel.compiled import (  # noqa: E402
    compile_network,
    numpy_enabled,
)

import reference  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, span_cost_seconds  # noqa: E402
from workloads import WORKLOADS, JobMix, grading_input  # noqa: E402

#: name -> unit, better.  The end-to-end metrics come from untraced
#: runs, the per-layer ones from traced runs.
END_TO_END = {
    "grade_s": ("s", "lower"),
    "grade_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "result_latency_p50_s": ("s", "lower"),
    "result_latency_tail_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "success_rate": ("ratio", "higher"),
}
PER_LAYER = {
    "netlist.parse_s": ("s", "lower"),
    "netlist.lint_s": ("s", "lower"),
    "compiled.compile_s": ("s", "lower"),
    "static.classify_s": ("s", "lower"),
    "static.pruned_ratio": ("ratio", "higher"),
    "collapse.collapse_s": ("s", "lower"),
    "collapse.removed_ratio": ("ratio", "higher"),
    "sim.run_s": ("s", "lower"),
    "sim.pattern_ms_p50": ("ms", "lower"),
    "sim.pattern_ms_tail": ("ms", "lower"),
    "sim.live_circuit_patterns": ("count", "lower"),
    "sim.circuit_patterns_per_s": ("1/s", "higher"),
    "sim.oscillation_events": ("count", "lower"),
    "concurrent.round_skips": ("count", "higher"),
    "concurrent.sites_pruned": ("count", "higher"),
    "compiled.solve_hit_rate": ("ratio", "higher"),
    "compiled.solve_misses": ("count", "lower"),
    "goodtrace.record_s": ("s", "lower"),
    "shard.wall_s": ("s", "lower"),
    "shard.block_busy_s": ("s", "lower"),
    "shard.parallel_efficiency": ("ratio", "higher"),
    "shard.imbalance_ratio": ("ratio", "lower"),
    "shard.blocks": ("count", "higher"),
    "shard.good_settles": ("count", "lower"),
    "service.encode_s": ("s", "lower"),
    "service.queue_s": ("s", "lower"),
    "service.compile_s": ("s", "lower"),
    "service.simulate_s": ("s", "lower"),
    "service.transport_s": ("s", "lower"),
    "service.warm_ratio": ("ratio", "higher"),
    "service.job_latency_tail_s": ("s", "lower"),
    "service.jobs": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Backend and options of each grading workload; everything else is
#: the library default.
GRADING = {
    "fig1_ram64_concurrent": ("concurrent", {}),
    "fig2_ram64_concurrent_mixed": ("concurrent", {}),
    "fig1_ram64_sharded2": (
        "sharded", {"jobs": 2, "inner_backend": "concurrent"}
    ),
}
#: Grading calls per run at least, even past ``--seconds``.
MIN_CALLS = 2

#: Set-ups timed before each grading call (set-up is far cheaper than
#: grading, and host slowdowns come in episodes of seconds, so the
#: samples are spread over the run rather than taken back to back).
SETUP_BATCH = 8
#: Server start-ups per service run.
SERVER_SETUPS = 8
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    times = os.times()
    return (times.user + times.system + times.children_user
            + times.children_system)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def live_children_cpu() -> float:
    """CPU seconds so far of the live child processes (Linux /proc)."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            fields = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        parts = fields.rsplit(")", 1)[1].split()
        total += int(parts[11]) + int(parts[12])
    return total / os.sysconf("SC_CLK_TCK")


def check(report, indices, ref) -> list[str]:
    """Differences between a report's detections and the reference."""
    got = {
        (d.circuit_id, d.pattern_index, d.phase_index)
        for d in report.log.detections
    }
    want = {
        (cid, pattern, phase)
        for cid, index in enumerate(indices, start=1)
        for pattern, phase in ref[index]
    }
    problems = [f"missing detection {item}" for item in sorted(want - got)]
    problems += [f"extra detection {item}" for item in sorted(got - want)]
    if report.n_faults != len(indices):
        problems.append(
            f"report covers {report.n_faults} faults, not {len(indices)}"
        )
    return problems


def work(indices, ref, n_patterns) -> int:
    """Live faulty circuit-patterns: each fault's reference lifetime."""
    return sum(reference.lifetime(ref[i], n_patterns) for i in indices)


# ---------------------------------------------------------------------------
# grading workloads: direct calls into the library
# ---------------------------------------------------------------------------


def set_up(netlist: str, tracer: Tracer):
    """Parse, lint and compile; returns the network and the timings."""
    t0 = time.perf_counter()
    with tracer.span("netlist.parse"):
        net = sim_format.loads(netlist)
    t1 = time.perf_counter()
    with tracer.span("netlist.lint"):
        lints = validate(net)
    t2 = time.perf_counter()
    errors = [lint for lint in lints if lint.severity == ERROR]
    if errors:
        raise RuntimeError(f"netlist fails lint: {errors[0]}")
    with tracer.span("compiled.compile"):
        compile_network(net)
    t3 = time.perf_counter()
    return net, {"parse": t1 - t0, "lint": t2 - t1, "compile": t3 - t2}


@dataclass
class Graded:
    """One grading call, cut into segments at each streamed pattern
    (start to first pattern, pattern to pattern, last pattern to
    return); a backend that does not stream is one segment."""

    wall_segments: list[float]
    cpu_segments: list[float]
    #: Per fault: the segment its verdict arrived in (its detecting
    #: pattern, or the final segment).
    verdict_segment: list[int]
    report: object

    @property
    def wall(self) -> float:
        return sum(self.wall_segments)

    @property
    def cpu(self) -> float:
        return sum(self.cpu_segments)


def grade(backend, net, faults, pool, tracer: Tracer) -> Graded:
    """One timed grading call, streaming per-pattern results when the
    backend can."""
    walls: list[float] = []
    cpus: list[float] = []
    first_seen: dict[int, int] = {}

    def progress(record, detections) -> None:
        walls.append(time.perf_counter())
        cpus.append(time.process_time())
        for detection in detections:
            first_seen.setdefault(detection.circuit_id, len(walls) - 1)

    kwargs = {"progress": progress} if supports_progress(backend) else {}
    cpu_start = cpu_seconds()
    process_start = time.process_time()
    with tracer.span("sim.run") as run_span:
        start = time.perf_counter()
        report = backend.run(
            net, faults, pool.observed, pool.patterns, **kwargs
        )
        end = time.perf_counter()
    process_end = time.process_time()
    cpu = cpu_seconds() - cpu_start
    for begin, stamp in zip([start] + walls, walls):
        tracer.record("sim.pattern", begin, stamp, run_span)
    wall_marks = [start] + walls + [end]
    cpu_marks = [process_start] + cpus + [process_end]
    cpu_segments = [b - a for a, b in zip(cpu_marks, cpu_marks[1:])]
    # Children (shard workers) are billed to the final segment.
    cpu_segments[-1] += cpu - (process_end - process_start)
    return Graded(
        wall_segments=[b - a for a, b in zip(wall_marks, wall_marks[1:])],
        cpu_segments=cpu_segments,
        verdict_segment=[
            first_seen.get(cid, len(walls))
            for cid in range(1, len(faults) + 1)
        ],
        report=report,
    )


def robust_total(runs: list[list[float]]) -> float:
    """A call's duration from repeated calls: the sum over segments of
    each segment's median across calls.  Host slowdowns come in
    episodes of a few seconds that hit different segments of different
    calls; from three calls on, the segment medians drop an episode
    that a median of whole calls would keep."""
    return sum(stats.median(column) for column in zip(*runs))


def robust_verdicts(graded: list[Graded]) -> list[float]:
    """Each fault's verdict time (from the call's start), with every
    segment at its median across calls."""
    segments = [
        stats.median(column)
        for column in zip(*(g.wall_segments for g in graded))
    ]
    ends = list(itertools.accumulate(segments))
    return [ends[k] for k in graded[0].verdict_segment]


def layer_extras(name, pool, faults, tracer: Tracer) -> dict[str, float]:
    """Traced runs only: time the fault eliminators (and, where the
    backend uses it, good-trace recording) as standalone calls of the
    functions the backends call, on a separately set-up network."""
    net, _ = set_up(pool.netlist, Tracer(enabled=False))
    observed = pool.observed
    with tracer.span("static.classify", run="extras"):
        start = time.perf_counter()
        classification = classify_faults(net, faults, observed)
        classify_s = time.perf_counter() - start
    kept = [faults[cid - 1] for cid in classification.kept]
    with tracer.span("collapse.collapse", run="extras"):
        start = time.perf_counter()
        collapsed = collapse_faults(net, kept, observed)
        collapse_s = time.perf_counter() - start
    record_s = 0.0
    if GRADING[name][0] == "sharded":
        with tracer.span("goodtrace.record", run="extras"):
            start = time.perf_counter()
            record_good_trace(net, observed, pool.patterns)
            record_s = time.perf_counter() - start
    return {
        "static.classify_s": classify_s,
        "static.pruned_ratio": 1 - len(kept) / len(faults),
        "collapse.collapse_s": collapse_s,
        "collapse.removed_ratio": (
            len(kept) - len(collapsed.representatives)
        ) / len(faults),
        "goodtrace.record_s": record_s,
    }


def run_grading(name: str, seed: int, seconds: float, tracer: Tracer):
    pool, indices = grading_input(name, seed)
    faults = [pool.faults[i] for i in indices]
    ref = reference.load(pool)
    live = work(indices, ref, len(pool.patterns))
    kind, options = GRADING[name]
    backend = get_backend(kind, **options)
    print(f"input: {pool.spec.name}, {len(faults)} faults, "
          f"{len(pool.patterns)} patterns, {live} live circuit-patterns")
    extras = layer_extras(name, pool, faults, tracer) if tracer.enabled \
        else {}

    setups: list[dict[str, float]] = []
    graded: list[Graded] = []
    failed = 0
    start = time.perf_counter()
    while True:
        with tracer.span("bench.rep", run=f"rep{len(graded)}"):
            for _ in range(SETUP_BATCH):
                net, setup_times = set_up(pool.netlist, tracer)
                setups.append(setup_times)
            result = grade(backend, net, faults, pool, tracer)
        graded.append(result)
        problems = check(result.report, indices, ref)
        if problems:
            failed += 1
            print(f"MISMATCH against the serial reference: "
                  f"{len(problems)} difference(s)")
            for problem in problems[:10]:
                print(f"  {problem}")
        print(f"rep {len(graded)}: grade {result.wall:.3f} s wall, "
              f"{result.cpu:.3f} s cpu, "
              f"{result.report.detected}/{len(faults)} detected")
        elapsed = time.perf_counter() - start
        if len(graded) >= MIN_CALLS and elapsed + result.wall > seconds:
            break

    walls = [g.wall for g in graded]
    grade_s = robust_total([g.wall_segments for g in graded])
    latencies = robust_verdicts(graded)
    tail, percentile, count = stats.tail(latencies)
    print(f"{len(graded)} grading calls, {len(graded[0].wall_segments)} "
          f"segments each; result latency tail: p{percentile:.1f} of "
          f"{count} fault verdicts")
    end_to_end = {
        "grade_s": grade_s,
        "grade_cpu_s": robust_total([g.cpu_segments for g in graded]),
        "setup_s": stats.median([sum(s.values()) for s in setups]),
        "peak_rss_mb": peak_rss_mb(),
        "result_latency_p50_s": stats.median(latencies),
        "result_latency_tail_s": tail,
        "jobs_per_s": 1 / grade_s,
        "success_rate": 1 - failed / len(graded),
    }
    if not tracer.enabled:
        return end_to_end, len(graded), failed, walls

    report = graded[0].report
    if len(graded[0].wall_segments) > 1:
        pattern_ms = [
            1000 * stats.median(column)
            for column in zip(*(g.wall_segments[:-1] for g in graded))
        ]
    else:
        pattern_ms = [1000 * record.seconds for record in report.patterns]
    pattern_tail, _, _ = stats.tail(pattern_ms)
    trim = report.trim or {}
    cache = report.solve_cache or {}
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update(extras)
    layer.update({
        "netlist.parse_s": stats.median([s["parse"] for s in setups]),
        "netlist.lint_s": stats.median([s["lint"] for s in setups]),
        "compiled.compile_s": stats.median([s["compile"] for s in setups]),
        "sim.run_s": grade_s,
        "sim.pattern_ms_p50": stats.median(pattern_ms),
        "sim.pattern_ms_tail": pattern_tail,
        "sim.live_circuit_patterns": live,
        "sim.circuit_patterns_per_s": live / grade_s,
        "sim.oscillation_events": report.oscillation_events,
        "concurrent.round_skips": trim.get("round_skips", 0),
        "concurrent.sites_pruned": trim.get("sites_pruned", 0),
        "compiled.solve_hit_rate": cache.get("hit_rate", 0.0),
        "compiled.solve_misses": cache.get("misses", 0),
    })
    if report.shard_stats is not None:
        busy = stats.median([sum(g.report.shard_seconds) for g in graded])
        jobs = report.shard_stats["jobs"]
        layer.update({
            "shard.wall_s": grade_s,
            "shard.block_busy_s": busy,
            "shard.parallel_efficiency": busy / (jobs * grade_s),
            "shard.imbalance_ratio": report.shard_stats["imbalance_ratio"],
            "shard.blocks": report.shard_stats["blocks"],
            "shard.good_settles": report.good_settles,
        })
        print(f"shards: {report.shard_stats['blocks']} blocks, trace "
              f"shipped: {report.shard_stats['trace_shipped']}")
    return layer, len(graded), failed, walls


# ---------------------------------------------------------------------------
# the service workload: a closed loop against an in-process server
# ---------------------------------------------------------------------------


@dataclass
class JobRecord:
    latency: float
    result_latencies: list[float]
    timings: dict[str, float]
    warm: bool
    work: int
    report: object
    encode_s: float
    pattern_seconds: list[float] = field(default_factory=list)


class ClosedLoop:
    """Clients that each submit their next job only when the previous
    one has completed."""

    #: Untimed warm-up jobs: one of each kind, so every circuit has
    #: been compiled before the timed window opens.
    WARMUP = 4

    def __init__(self, address, mix: JobMix, refs, seconds, tracer,
                 span=None):
        self.address = address
        self.mix = mix
        self.refs = refs
        self.seconds = seconds
        self.tracer = tracer
        #: The traced loop span, parent of every job span.
        self.span = span
        self.jobs: list[JobRecord] = []
        self.failures: list[str] = []
        self.attempted = 0
        self._lock = threading.Lock()
        self._next = itertools.count(self.WARMUP)
        self._barrier = threading.Barrier(SERVICE_CLIENTS,
                                          action=self._open_window)
        self.window_start = self.window_end = 0.0
        self.window_cpu = 0.0
        self._cpu_start = 0.0

    def _open_window(self) -> None:
        self._cpu_start = cpu_seconds() + live_children_cpu()
        self.window_start = time.perf_counter()

    def run(self) -> None:
        threads = [
            threading.Thread(target=self._client, args=(c,))
            for c in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.window_end = time.perf_counter()
        self.window_cpu = (
            cpu_seconds() + live_children_cpu() - self._cpu_start
        )

    def _client(self, number: int) -> None:
        host, port = self.address
        client = ServiceClient(host=host, port=port)
        for index in range(number, self.WARMUP, SERVICE_CLIENTS):
            self._job(client, index, timed=False)
        self._barrier.wait()
        deadline = self.window_start + self.seconds
        while time.perf_counter() < deadline:
            with self._lock:
                index = next(self._next)
            self._job(client, index, timed=True)

    def _job(self, client: ServiceClient, index: int, timed: bool) -> None:
        pool, indices = self.mix.job(index)
        faults = tuple(pool.faults[i] for i in indices)
        spec = JobSpec(pool.netlist, pool.observed, faults, pool.patterns)
        tracer = self.tracer
        encode_s = 0.0
        if tracer.enabled:
            start = time.perf_counter()
            encode_frame({"type": "submit", "job": spec.to_wire(),
                          "stream": True})
            encode_s = time.perf_counter() - start
        with self._lock:
            self.attempted += 1
        first_seen: dict[int, float] = {}
        pattern_seconds: list[float] = []
        done = None
        warm = False
        with tracer.span("service.job", run=f"job{index}",
                         parent=self.span) as job_span:
            start = time.perf_counter()
            try:
                for frame in client.submit(spec):
                    now = time.perf_counter() - start
                    if isinstance(frame, StartedFrame):
                        warm = frame.warm
                    elif isinstance(frame, PatternFrame):
                        pattern_seconds.append(frame.record.seconds)
                        for detection in frame.detections:
                            first_seen.setdefault(detection.circuit_id, now)
                    elif isinstance(frame, DoneFrame):
                        done = frame
                    elif isinstance(frame, CancelledFrame):
                        raise RuntimeError("job cancelled")
            except Exception as error:  # a failed job is counted, not fatal
                with self._lock:
                    self.failures.append(f"job {index}: {error!r}")
                return
            latency = time.perf_counter() - start
        if done is None:
            with self._lock:
                self.failures.append(f"job {index}: no done frame")
            return
        ref = self.refs[pool.spec.name]
        problems = check(done.report, indices, ref)
        if problems:
            with self._lock:
                self.failures.append(
                    f"job {index}: {len(problems)} difference(s) against "
                    f"the serial reference, first: {problems[0]}"
                )
            return
        if job_span is not None:
            self._record_phases(job_span, done.timings)
        if not timed:
            return
        record = JobRecord(
            latency=latency,
            result_latencies=[
                first_seen.get(cid, latency)
                for cid in range(1, len(faults) + 1)
            ],
            timings=done.timings,
            warm=warm,
            work=work(indices, ref, len(pool.patterns)),
            report=done.report,
            encode_s=encode_s,
            pattern_seconds=pattern_seconds,
        )
        with self._lock:
            self.jobs.append(record)

    def _record_phases(self, job_span, timings) -> None:
        """Server-side phases as child spans of the job, laid end to end
        from submission (the server reports durations only)."""
        at = job_span.start
        for name, key in (("service.queue", "queue_seconds"),
                          ("service.compile", "compile_seconds"),
                          ("service.simulate", "simulate_seconds")):
            duration = timings.get(key, 0.0)
            self.tracer.record(name, at, at + duration, job_span)
            at += duration


async def _server_session(mix, refs, tracer, loop_seconds):
    """Start a server (timed as set-up), optionally run the closed loop,
    stop it; returns the set-up seconds and the loop."""
    start = time.perf_counter()
    server = FaultSimServer(port=0, workers=SERVICE_WORKERS)
    try:
        with tracer.span("service.start", run="setup"):
            await server.start()
            host, port = server.address
            await asyncio.to_thread(
                ServiceClient(host=host, port=port).ping
            )
        setup_s = time.perf_counter() - start
        loop = None
        if loop_seconds:
            with tracer.span("service.loop", run="loop") as span:
                loop = ClosedLoop((host, port), mix, refs, loop_seconds,
                                  tracer, span)
                await asyncio.to_thread(loop.run)
    finally:
        await server.stop()
    return setup_s, loop


def run_service(seed: int, seconds: float, tracer: Tracer):
    mix = JobMix(seed)
    refs = {name: reference.load(pool) for name, pool in mix.pools.items()}
    setups = []
    for _ in range(SERVER_SETUPS - 1):
        setup_s, _ = asyncio.run(_server_session(mix, refs, tracer, 0))
        setups.append(setup_s)
    setup_s, loop = asyncio.run(
        _server_session(mix, refs, tracer, seconds)
    )
    setups.append(setup_s)

    for failure in loop.failures:
        print(f"FAILED {failure}")
    jobs = loop.jobs
    if len(jobs) <= stats.TAIL_BEYOND:
        raise RuntimeError(f"only {len(jobs)} timed jobs completed")
    wall = loop.window_end - loop.window_start
    latencies = [job.latency for job in jobs]
    results = [x for job in jobs for x in job.result_latencies]
    result_tail, percentile, count = stats.tail(results)
    job_tail, job_percentile, job_count = stats.tail(latencies)
    print(f"{len(jobs)} timed jobs in {wall:.2f} s; job latency tail "
          f"p{job_percentile:.1f} of {job_count} = {job_tail:.3f} s; "
          f"result latency tail p{percentile:.1f} of {count} verdicts")
    failed = len(loop.failures)
    end_to_end = {
        "grade_s": stats.median(latencies),
        "grade_cpu_s": loop.window_cpu / len(jobs),
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "result_latency_p50_s": stats.median(results),
        "result_latency_tail_s": result_tail,
        "jobs_per_s": len(jobs) / wall,
        "success_rate": 1 - failed / loop.attempted,
    }
    if not tracer.enabled:
        return end_to_end, loop.attempted, failed, [wall]

    def timing(key):
        return [job.timings.get(key, 0.0) for job in jobs]

    hits = sum((job.report.solve_cache or {}).get("hits", 0) for job in jobs)
    misses = sum(
        (job.report.solve_cache or {}).get("misses", 0) for job in jobs
    )
    pattern_ms = [1000 * x for job in jobs for x in job.pattern_seconds]
    pattern_tail, _, _ = stats.tail(pattern_ms)

    def per_job(value):
        return sum(value(job) for job in jobs) / len(jobs)

    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update({
        "sim.run_s": stats.median(timing("simulate_seconds")),
        "sim.pattern_ms_p50": stats.median(pattern_ms),
        "sim.pattern_ms_tail": pattern_tail,
        "sim.live_circuit_patterns": per_job(lambda j: j.work),
        "sim.circuit_patterns_per_s": sum(job.work for job in jobs) / wall,
        "sim.oscillation_events": per_job(
            lambda j: j.report.oscillation_events
        ),
        "concurrent.round_skips": per_job(
            lambda j: (j.report.trim or {}).get("round_skips", 0)
        ),
        "concurrent.sites_pruned": per_job(
            lambda j: (j.report.trim or {}).get("sites_pruned", 0)
        ),
        "compiled.solve_hit_rate": hits / max(1, hits + misses),
        "compiled.solve_misses": misses / len(jobs),
        "service.encode_s": stats.median([job.encode_s for job in jobs]),
        "service.queue_s": stats.median(timing("queue_seconds")),
        "service.compile_s": per_job(
            lambda j: j.timings.get("compile_seconds", 0.0)
        ),
        "service.simulate_s": stats.median(timing("simulate_seconds")),
        "service.transport_s": stats.median(
            [job.latency - job.timings["total_seconds"] for job in jobs]
        ),
        "service.warm_ratio": per_job(lambda j: float(j.warm)),
        "service.job_latency_tail_s": job_tail,
        "service.jobs": len(jobs),
    })
    return layer, loop.attempted, failed, [wall]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=bool(args.trace))
    affinity = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: nproc {os.cpu_count()} (usable {affinity}), "
          f"kernel {'numpy' if numpy_enabled() else 'pure-python'}, "
          f"python {platform.python_version()}")
    if args.workload == "service_small_jobs":
        values, attempted, failed, walls = run_service(
            args.seed, args.seconds, tracer
        )
    else:
        values, attempted, failed, walls = run_grading(
            args.workload, args.seed, args.seconds, tracer
        )

    table = PER_LAYER if tracer.enabled else END_TO_END
    if tracer.enabled:
        cost = span_cost_seconds()
        values["trace.spans"] = len(tracer.spans)
        values["trace.overhead_ratio"] = (
            len(tracer.spans) * cost / sum(walls)
        )
        print(tracer.render_table())
        out = (ROOT / ".perfbench_work" / "traces"
               / f"{args.workload}-seed{args.seed}.json")
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")
    metrics = {
        name: stats.metric(values[name], unit)
        for name, (unit, _better) in table.items()
    }
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(stats.result_line(failed == 0, attempted, failed, metrics))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
