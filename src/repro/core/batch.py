"""Batch (bit-parallel) fault simulation: W faulty circuits per pass.

The third strategy next to serial and concurrent simulation: pack up to
``lane_width`` faulty circuits into the bit lanes of a
:class:`~repro.switchlevel.bitplane.LaneSimulator` and advance them in
lockstep.  Each lane is a *complete* faulty circuit (no good-circuit
tracking, unlike the concurrent algorithm), but the work of a round is
shared across lanes: gate evaluation, conduction updates and the
steady-state relaxation all run once per union vicinity with lane masks
instead of once per circuit (the approach of batch RTL fault simulators,
arXiv:2505.06687, transplanted to the switch-level model).

Faults whose circuits agree keep their planes identical, so packed
simulation costs roughly one circuit's work until faults actually
diverge; detected circuits are dropped from the ``active`` lane mask
immediately and the planes are *compacted* onto the surviving lanes
once at most half a chunk is alive -- fault dropping trims the bit
width itself, which is this backend's analogue of the concurrent
simulator's record purge (and of ERASER-style redundancy pruning,
arXiv:2504.16473).

The good circuit runs alongside as a scalar
:class:`~repro.switchlevel.scheduler.Engine` and supplies the reference
values for detection.  Lanes that blow the round budget are handed to a
scalar engine finished by the shared
:class:`~repro.switchlevel.kernel.SettleKernel`, so oscillation
fallback semantics match the other backends; cross-backend parity is
property-tested in ``tests/core/test_backends.py``.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import FaultError, SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.bitplane import LaneSimulator
from ..switchlevel.kernel import (
    DEFAULT_MAX_ROUNDS,
    SettleStats,
    check_locality,
    compiled_for,
)
from ..switchlevel.logic import STATES
from ..switchlevel.network import Network
from ..switchlevel.scheduler import Engine
from .detection import (
    POLICY_HARD,
    Detection,
    DetectionLog,
    check_policy,
)
from .faults import Fault
from .goodtrace import GoodTrace
from .inject import CLOSED_STATE, Instrumented, PreparedFault, prepare
from .report import PatternRecord, RunReport

ProgressCallback = Callable[[PatternRecord, list[Detection]], None]

#: Default number of faulty circuits packed per integer bit-plane.
DEFAULT_LANE_WIDTH = 64

#: Compaction threshold: repack once at most this fraction is alive.
_COMPACT_FRACTION = 0.5

#: Never compact chunks narrower than this (repacking costs more than
#: the dead lanes do).
_COMPACT_MIN_WIDTH = 8


class _Chunk:
    """Up to ``lane_width`` prepared faults packed into one lane plane."""

    __slots__ = ("pfs", "lanes")

    def __init__(self, sim: "BatchFaultSimulator", pfs: list[PreparedFault]):
        self.pfs = pfs
        net = sim.network
        full = (1 << len(pfs)) - 1
        node_force_mask: dict[int, int] = {}
        node_force_values: dict[int, tuple[int, int]] = {}
        t_on: dict[int, int] = {}
        t_off: dict[int, int] = {}
        # Inserted fault devices default to their good-circuit forcing
        # in every lane; each fault's own lane then overrides.
        for t, state in sim.good_forced_transistors.items():
            if state == CLOSED_STATE:
                t_on[t] = full
            else:
                t_off[t] = full
        for index, pf in enumerate(pfs):
            bit = 1 << index
            for node, value in pf.forced_nodes.items():
                node_force_mask[node] = node_force_mask.get(node, 0) | bit
                f0, f1 = node_force_values.get(node, (0, 0))
                if value != 1:
                    f0 |= bit
                if value != 0:
                    f1 |= bit
                node_force_values[node] = (f0, f1)
            for t, state in pf.forced_transistors.items():
                t_on[t] = t_on.get(t, 0) & ~bit
                t_off[t] = t_off.get(t, 0) & ~bit
                if state == CLOSED_STATE:
                    t_on[t] |= bit
                else:
                    t_off[t] |= bit
        self.lanes = LaneSimulator(
            net,
            len(pfs),
            node_force_mask=node_force_mask,
            node_force_values=node_force_values,
            t_force_on={t: m for t, m in t_on.items() if m},
            t_force_off={t: m for t, m in t_off.items() if m},
            compiled=sim.compiled,
        )
        # Rails, then fault activation, then one settle -- the same
        # initialization order as a standalone engine per fault.
        for node, state in net.rail_settings():
            self.lanes.drive(node, state)
        for index, pf in enumerate(pfs):
            bit = 1 << index
            for seed in pf.seeds:
                self.lanes.perturb(seed, bit)
            for node in pf.forced_nodes:
                for t in net.node_gates[node]:
                    for terminal in (net.t_source[t], net.t_drain[t]):
                        if not net.node_is_input[terminal]:
                            self.lanes.perturb(terminal, bit)

    def merged_forced_transistors(
        self, sim: "BatchFaultSimulator", pf: PreparedFault
    ) -> Mapping[int, int]:
        if not pf.forced_transistors:
            return sim.good_forced_transistors
        merged = dict(sim.good_forced_transistors)
        merged.update(pf.forced_transistors)
        return merged


class BatchFaultSimulator:
    """Bit-parallel fault simulation of one network under a fault list.

    The constructor mirrors :class:`~repro.core.concurrent.
    ConcurrentFaultSimulator`; ``lane_width`` bounds how many circuits
    share one set of bit planes.
    """

    def __init__(
        self,
        net: Network,
        faults: Sequence[Fault],
        observed: Sequence[str],
        *,
        detection_policy: str = POLICY_HARD,
        drop_on_detect: bool = True,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        lane_width: int = DEFAULT_LANE_WIDTH,
        locality: str = "dynamic",
        good_trace: GoodTrace | None = None,
    ):
        check_policy(detection_policy)
        if lane_width < 1:
            raise SimulationError("lane_width must be positive")
        check_locality(locality)
        instrumented: Instrumented = prepare(net, list(faults))
        self.network = instrumented.net
        self.good_forced_transistors = instrumented.good_forced_transistors
        self.detection_policy = detection_policy
        self.drop_on_detect = drop_on_detect
        self.max_rounds = max_rounds
        self.lane_width = lane_width
        self.locality = locality
        #: Under the compiled locality the lanes select dirty components
        #: from this partition (with per-chunk lane-aware solve caches);
        #: the scalar good engine shares the network-level cache.  The
        #: static locality applies to the scalar good engine only: the
        #: lanes' union vicinity is already a component-complete region.
        self.compiled = compiled_for(self.network, locality)
        self.oscillation_events = 0
        if not observed:
            raise SimulationError("at least one observed node is required")
        self.observed = [self.network.node(name) for name in observed]

        #: A precomputed good run (see :mod:`repro.core.goodtrace`):
        #: detection compares lanes against its recorded observed
        #: responses and the scalar good engine is never built, so the
        #: good circuit is settled zero times here.
        self.good_trace = good_trace
        #: How many good-circuit settles this simulator performs over
        #: its lifetime (0 when consuming a trace, 1 otherwise).
        self.good_settles = 0 if good_trace is not None else 1
        self.good: Engine | None = None
        if good_trace is not None:
            good_trace.validate(self.network, observed, max_rounds)
            self.oscillation_events += good_trace.oscillation_events
        else:
            self.good = Engine(
                self.network,
                forced_transistors=self.good_forced_transistors,
                max_rounds=max_rounds,
                locality=locality,
            )
            for node, state in self.network.rail_settings():
                self.good.drive(node, state)
            self.good.settle()

        prepared = list(instrumented.prepared)
        self.live: set[int] = {pf.circuit_id for pf in prepared}
        self.n_faults = len(prepared)
        self.chunks: list[_Chunk] = []
        for start in range(0, len(prepared), lane_width):
            chunk = _Chunk(self, prepared[start:start + lane_width])
            self.chunks.append(chunk)
            self._settle_chunk(chunk)

        self.log = DetectionLog()
        self._pattern_index = 0
        self._phase_index = 0
        #: Which observe phase of the current pattern comes next
        #: (indexes the trace's recorded responses).
        self._observation_index = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        patterns: Iterable[TestPattern],
        *,
        clock: str = "process",
        progress: ProgressCallback | None = None,
    ) -> RunReport:
        """Simulate a pattern sequence; returns the measurement report.

        ``progress``, if given, is called after every pattern with
        ``(record, detections)``; see
        :meth:`repro.core.concurrent.ConcurrentFaultSimulator.run`.
        """
        timer = time.process_time if clock == "process" else time.perf_counter
        report = RunReport(n_faults=self.n_faults, backend="batch")
        start_total = timer()
        for pattern in patterns:
            detected_before = len(self.log.detected_circuits())
            events_before = len(self.log.detections)
            start = timer()
            self.apply_pattern(pattern)
            elapsed = timer() - start
            record = PatternRecord(
                index=self._pattern_index - 1,
                label=pattern.label,
                seconds=elapsed,
                detections=(
                    len(self.log.detected_circuits()) - detected_before
                ),
                live_after=len(self.live),
            )
            report.patterns.append(record)
            if progress is not None:
                progress(record, tuple(self.log.detections[events_before:]))
        report.total_seconds = timer() - start_total
        report.log = self.log
        report.oscillation_events = self.oscillation_events + (
            self.good.oscillation_events if self.good is not None else 0
        )
        report.good_settles = self.good_settles
        return report

    def apply_pattern(self, pattern: TestPattern) -> None:
        """Simulate one pattern (all its phases, with observations)."""
        trace = self.good_trace
        if trace is not None:
            if self._pattern_index >= len(trace.observed):
                raise SimulationError(
                    "good trace exhausted: more patterns than recorded"
                )
            if trace.pattern_labels[self._pattern_index] != pattern.label:
                raise SimulationError(
                    "good trace was recorded for a different pattern "
                    "sequence"
                )
        self._observation_index = 0
        for phase_index, phase in enumerate(pattern.phases):
            self._phase_index = phase_index
            self.apply_phase(phase.settings)
            if phase.observe:
                self._observe()
        self._pattern_index += 1
        if self.drop_on_detect:
            self._maybe_compact()

    def apply_phase(self, settings: Mapping[str, int]) -> None:
        """Apply one input setting and settle every lane."""
        net = self.network
        for name, state in settings.items():
            node = net.node(name)
            if self.good is not None:
                # The good engine validates (input-ness, state range)
                # for every circuit; lanes share the same inputs.
                self.good.drive(node, state)
            else:
                # Trace mode: the same validation, without an engine.
                if state not in STATES:
                    raise SimulationError(
                        f"invalid state {state!r} for {name!r}"
                    )
                if not net.node_is_input[node]:
                    raise SimulationError(f"node {name!r} is not an input")
            for chunk in self.chunks:
                if chunk.lanes.active:
                    chunk.lanes.drive(node, state)
        if self.good is not None:
            self.good.settle()
        for chunk in self.chunks:
            # A fully detected chunk has nothing left to simulate; its
            # lanes stay frozen at their drop-time states.
            if chunk.lanes.active:
                self._settle_chunk(chunk)

    def circuit_state_of(self, circuit_id: int, name: str) -> int:
        """A faulty circuit's state of a node, by name."""
        node = self.network.node(name)
        for chunk in self.chunks:
            for index, pf in enumerate(chunk.pfs):
                if pf.circuit_id == circuit_id:
                    return chunk.lanes.lane_state(node, index)
        raise FaultError(
            f"no circuit {circuit_id} (compacted away or unknown)"
        )

    @property
    def live_circuits(self) -> set[int]:
        """Ids of faulty circuits still being simulated."""
        return set(self.live)

    def total_lane_bits(self) -> int:
        """Current packed width across chunks (memory footprint proxy)."""
        return sum(chunk.lanes.lane_count for chunk in self.chunks)

    def lane_cache_counters(self) -> tuple[int, int]:
        """(hits, misses) summed over every chunk's lane solve cache."""
        hits = sum(chunk.lanes.cache_hits for chunk in self.chunks)
        misses = sum(chunk.lanes.cache_misses for chunk in self.chunks)
        return hits, misses

    # ------------------------------------------------------------------
    # settling with the scalar oscillation fallback
    # ------------------------------------------------------------------
    def _settle_chunk(self, chunk: _Chunk) -> None:
        pending_lanes = chunk.lanes.settle(self.max_rounds)
        while pending_lanes:
            lane = (pending_lanes & -pending_lanes).bit_length() - 1
            pending_lanes &= pending_lanes - 1
            self._finish_lane(chunk, lane)

    def _finish_lane(self, chunk: _Chunk, lane: int) -> None:
        """Hand one oscillating lane to a scalar engine to finish.

        The engine continues from the lane's mid-settle state with the
        round budget already marked spent, so the kernel goes straight
        to its force-to-X attempts -- byte-for-byte what a standalone
        simulation of this circuit would do at this point.
        """
        pf = chunk.pfs[lane]
        states, tstates = chunk.lanes.extract_lane(lane)
        engine = Engine(
            self.network,
            forced_nodes=pf.forced_nodes,
            forced_transistors=chunk.merged_forced_transistors(self, pf),
            max_rounds=self.max_rounds,
            locality=self.locality,
        )
        engine.states[:] = states
        engine.tstates[:] = tstates
        engine.pending = chunk.lanes.pending_lane_nodes(lane)
        stats = SettleStats(rounds=self.max_rounds)
        engine.kernel.settle(engine, stats)
        self.oscillation_events += stats.x_fallbacks
        chunk.lanes.writeback_lane(lane, engine.states)

    # ------------------------------------------------------------------
    # detection and lane compaction
    # ------------------------------------------------------------------
    def _observe(self) -> None:
        policy = self.detection_policy
        trace = self.good_trace
        if trace is None:
            good_states = self.good.states
            recorded = None
        else:
            recorded = trace.observed[self._pattern_index][
                self._observation_index
            ]
        self._observation_index += 1
        names = self.network.node_names
        for index, node in enumerate(self.observed):
            good_state = (
                good_states[node] if recorded is None else recorded[index]
            )
            for chunk in self.chunks:
                lanes = chunk.lanes
                p0, p1 = lanes.p0[node], lanes.p1[node]
                if policy == POLICY_HARD:
                    if good_state == 1:
                        detected = p0 & ~p1
                    elif good_state == 0:
                        detected = p1 & ~p0
                    else:
                        detected = 0
                else:  # POLICY_ANY: any state difference, X included
                    if good_state == 1:
                        detected = p0
                    elif good_state == 0:
                        detected = p1
                    else:
                        detected = ~(p0 & p1) & lanes.full
                detected &= lanes.active
                while detected:
                    lane = (detected & -detected).bit_length() - 1
                    detected &= detected - 1
                    pf = chunk.pfs[lane]
                    self.log.record(
                        Detection(
                            circuit_id=pf.circuit_id,
                            description=pf.fault.describe(),
                            pattern_index=self._pattern_index,
                            phase_index=self._phase_index,
                            node=names[node],
                            good_state=good_state,
                            faulty_state=lanes.lane_state(node, lane),
                        )
                    )
                    if self.drop_on_detect:
                        lanes.active &= ~(1 << lane)
                        self.live.discard(pf.circuit_id)

    def _maybe_compact(self) -> None:
        """Repack chunks whose live fraction dropped below the threshold."""
        for chunk in self.chunks:
            lanes = chunk.lanes
            if lanes.lane_count < _COMPACT_MIN_WIDTH:
                continue
            alive = bin(lanes.active).count("1")
            if alive <= lanes.lane_count * _COMPACT_FRACTION:
                keep = [
                    index
                    for index in range(lanes.lane_count)
                    if (lanes.active >> index) & 1
                ]
                chunk.pfs = [chunk.pfs[index] for index in keep]
                lanes.compact(keep)
