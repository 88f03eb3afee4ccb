"""The concurrent switch-level fault simulator (the paper's algorithm).

One network is shared by the good circuit (id 0) and every faulty
circuit (ids 1..F).  The good circuit is simulated in full; a faulty
circuit is represented *only* by its divergences:

* per-node :class:`~repro.core.statelist.StateList` records <i, s_i>
  where circuit i's node state differs from the good circuit's (plus a
  per-circuit dict index of the same records, for O(1) state lookup);
* per-circuit overlays for the fault itself: forced nodes (node faults
  act as pseudo-inputs) and forced transistors (stuck devices, inserted
  short/open fault transistors).

Events are (node, circuit) pairs.  Each input setting is simulated by
first running the good circuit to quiescence and then each pending
faulty circuit in ascending circuit-id order (the paper's discipline).
All of the round mechanics -- seed grouping, vicinity exploration,
steady-state solving, the force-to-X oscillation fallback -- come from
the shared :mod:`repro.switchlevel.kernel`; this module supplies the
two circuit adapters (good and faulty) whose ``apply_round`` methods do
the concurrent-specific work: trigger scanning and divergence-record
maintenance.

While the good circuit settles, every solved vicinity is scanned to
*trigger* events for exactly those circuits whose behavior there can
differ:

* circuits with divergence records on the vicinity's nodes or on the
  gates controlling transistors that touch it;
* circuits with a node fault inside the vicinity (the pseudo-input's
  omega drive can change outcomes even when its value matches the good
  circuit's);
* circuits with a forced transistor touching the vicinity whose forced
  state differs from the good circuit's current state for that
  transistor.

Everything else tracks the good circuit implicitly, which is where the
concurrent speedup comes from.

**Round alignment.**  A faulty circuit's round r must be computed from
round r-1 states -- exactly what a standalone simulation of that
circuit would see -- but the good circuit's round r has already been
applied by the time the faulty circuits run.  The overlay views
therefore resolve reads as records -> forced nodes -> a *round-start
snapshot* of the good states (a standing list, resynced after each
round's faulty circuits have run).  For the same reason, divergence
records that *reconverge* (become equal to the new good state) are only
deleted after the round's faulty circuits have run: until then the
record is the faulty circuit's round r-1 state.  An earlier version
instead pinned pre-change values as records during the trigger scan,
which missed changes outside the triggering vicinity (e.g. a gate node
solved in a sibling vicinity) and made the concurrent simulator
disagree with the serial one.

Good-circuit node changes also maintain the records: a record equal to
the new good state is deleted (reconvergence, deferred as above), and
forced-node records are refreshed.

Detection compares observed output nodes after any phase marked
``observe``; by default a detected circuit is *dropped*: its records and
pending events are purged and it costs nothing from then on (the paper's
fault dropping, responsible for the cheap Figure-1 "tail").
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import FaultError, SimulationError
from ..patterns.clocking import TestPattern
from ..switchlevel.compiled import compile_network
from ..switchlevel.kernel import (
    DEFAULT_MAX_ROUNDS,
    SettleKernel,
    SettleStats,
    VicinitySolution,
    check_locality,
)
from ..switchlevel.logic import STATES
from ..switchlevel.network import TRANS_TABLE, Network
from ..switchlevel.vicinity import expand_seed
from .detection import (
    POLICY_HARD,
    Detection,
    DetectionLog,
    check_policy,
    differs,
)
from .faults import Fault
from .goodtrace import GoodTrace
from .inject import Instrumented, PreparedFault, prepare
from .report import PatternRecord, RunReport
from .statelist import StateList

ProgressCallback = Callable[[PatternRecord, list[Detection]], None]

#: Reserved ``base_key_cache`` slot holding the numpy snapshot of the
#: round-start good states (key tokens are ints, so ``None`` is free).
_SNAP_KEY = None


class _OverlayStates:
    """Node-state view of one faulty circuit.

    Reads resolve records -> forced nodes -> ``base``, where ``base``
    is the simulator's *round-start* good states (see the module
    docstring on round alignment) -- a plain list, so the common
    tracks-the-good-circuit case costs one dict miss and one index.
    """

    __slots__ = ("base", "records", "base_key_cache")

    def __init__(
        self,
        base: list[int],
        records: dict[int, int],
        base_key_cache: dict | None = None,
    ):
        self.base = base
        self.records = records
        #: Shared per-simulator memo of ``base`` key bytes per node
        #: tuple, cleared whenever ``base`` changes (once per round):
        #: every faulty circuit of a round reads the same round-start
        #: snapshot, so the bulk of each solve-cache key is computed
        #: once per component per round instead of once per circuit.
        self.base_key_cache = (
            base_key_cache if base_key_cache is not None else {}
        )

    def __getitem__(self, node: int) -> int:
        state = self.records.get(node)
        if state is None:
            return self.base[node]
        return state

    def _base_bytes(self, token: int, idx: Any) -> bytes:
        """Round-start states of ``idx``'s nodes, memoized across circuits.

        Every faulty circuit of a round reads the same snapshot, so the
        bulk of each solve-cache key is computed once per component (or
        region) per round -- keyed by the component's int ``token``,
        which hashes in O(1) where the node tuple would not.  The
        snapshot is lowered to one uint8 array per round and each key is
        a fancy-index gather + ``tobytes``.
        """
        cache = self.base_key_cache
        raw = cache.get(token)
        if raw is None:
            snap = cache.get(_SNAP_KEY)
            if snap is None:
                snap = np.frombuffer(bytes(self.base), dtype=np.uint8)
                cache[_SNAP_KEY] = snap
            raw = snap[idx].tobytes()
            cache[token] = raw
        return raw

    def key_bytes(
        self,
        nodes: tuple,
        positions: Mapping[int, int],
        token: int,
        idx: Any,
    ) -> bytes:
        """States of ``nodes`` as bytes (solve-cache key fast path).

        ``positions`` maps node -> index within ``nodes``.  The bulk of
        the read comes from the shared round-start snapshot (see
        :meth:`_base_bytes`) and the (typically tiny) record overlay is
        patched on top.
        """
        raw = self._base_bytes(token, idx)
        records = self.records
        if records:
            # Iterate the smaller side directly: building an
            # intersection set per call costs more than it saves at
            # this call volume.
            patched = None
            if len(records) <= len(positions):
                for node, state in records.items():
                    pos = positions.get(node)
                    if pos is not None:
                        if patched is None:
                            patched = bytearray(raw)
                        patched[pos] = state
            else:
                for node, pos in positions.items():
                    state = records.get(node)
                    if state is not None:
                        if patched is None:
                            patched = bytearray(raw)
                        patched[pos] = state
            if patched is not None:
                raw = bytes(patched)
        return raw


class _OverlayStatesForced(_OverlayStates):
    """Overlay for circuits with pinned pseudo-inputs (node faults).

    The forced layer matters only in the window where a forced node's
    record has been removed (forced value caught up with the *new* good
    state) while the round-start snapshot still holds the old one.
    """

    __slots__ = ("forced",)

    def __init__(
        self,
        base: list[int],
        records: dict[int, int],
        forced: Mapping[int, int],
        base_key_cache: dict | None = None,
    ):
        super().__init__(base, records, base_key_cache)
        self.forced = forced

    def __getitem__(self, node: int) -> int:
        state = self.records.get(node)
        if state is not None:
            return state
        state = self.forced.get(node)
        if state is not None:
            return state
        return self.base[node]

    def key_bytes(
        self,
        nodes: tuple,
        positions: Mapping[int, int],
        token: int,
        idx: Any,
    ) -> bytes:
        raw = self._base_bytes(token, idx)
        patched = None
        # Later layers win: forced under records, as in __getitem__.
        # Iterate the smaller side of each layer/positions pair; a
        # per-call intersection set costs more than it saves here.
        for layer in (self.forced, self.records):
            if not layer:
                continue
            if len(layer) <= len(positions):
                for node, state in layer.items():
                    pos = positions.get(node)
                    if pos is None:
                        continue
                    if patched is None:
                        if raw[pos] == state:
                            continue
                        patched = bytearray(raw)
                    patched[pos] = state
            else:
                for node, pos in positions.items():
                    state = layer.get(node)
                    if state is None:
                        continue
                    if patched is None:
                        if raw[pos] == state:
                            continue
                        patched = bytearray(raw)
                    patched[pos] = state
        if patched is None:
            # The shared (hash-cached) object: most components are
            # untouched by this circuit's fault and divergences.
            return raw
        return bytes(patched)


class _OverlayTransistors:
    """Transistor-state view of one faulty circuit.

    Forced transistors (the circuit's own plus the good-circuit forcing
    for inserted fault devices) take their forced state; all others
    derive from the circuit's view of their gate node.
    """

    __slots__ = ("kinds", "gates", "states", "forced")

    def __init__(
        self,
        net: Network,
        states: _OverlayStates,
        forced: Mapping[int, int],
    ):
        self.kinds = net.t_kind
        self.gates = net.t_gate
        self.states = states
        self.forced = forced

    def __getitem__(self, t: int) -> int:
        forced = self.forced
        if forced:
            state = forced.get(t)
            if state is not None:
                return state
        return TRANS_TABLE[self.kinds[t]][self.states[self.gates[t]]]


class _GoodCircuit:
    """The good circuit as a kernel :class:`RoundCircuit`."""

    __slots__ = (
        "sim",
        "forced_nodes",
        "forced_transistors",
        "compiled_sig_cache",
    )

    def __init__(self, sim: "ConcurrentFaultSimulator"):
        self.sim = sim
        self.forced_nodes: Mapping[int, int] = {}
        self.forced_transistors = sim.good_forced_transistors
        self.compiled_sig_cache: dict[int, tuple] = {}

    @property
    def states(self) -> list[int]:
        return self.sim.states

    @property
    def tstates(self) -> list[int]:
        return self.sim.tstates

    def take_seeds(self) -> set[int]:
        seeds = self.sim._good_pending
        self.sim._good_pending = set()
        return seeds

    def has_pending(self) -> bool:
        return bool(self.sim._good_pending)

    def apply_round(
        self,
        solutions: list[VicinitySolution],
        stats: SettleStats | None,
    ) -> None:
        self.sim._apply_good_round(solutions)


class _FaultyCircuit:
    """One faulty circuit's overlay views as a kernel ``RoundCircuit``."""

    __slots__ = (
        "sim", "cid", "states", "tstates", "forced_nodes",
        "forced_transistors", "compiled_sig_cache", "_seeds",
        "applied_changes", "_fault_comps",
    )

    def __init__(self, sim: "ConcurrentFaultSimulator", cid: int):
        self.sim = sim
        self.cid = cid
        self._seeds: set[int] = set()
        #: Whether this round's solver produced real changes (synthesized
        #: record-maintenance entries do not count); drives the per-circuit
        #: oscillation budget in ``_settle_all``.
        self.applied_changes = False
        pf = sim.prepared[cid]
        self.forced_nodes = pf.forced_nodes
        if pf.forced_nodes:
            self.states = _OverlayStatesForced(
                sim._prev_states,
                sim.circuit_records[cid],
                pf.forced_nodes,
                sim._base_key_cache,
            )
        else:
            self.states = _OverlayStates(
                sim._prev_states,
                sim.circuit_records[cid],
                sim._base_key_cache,
            )
        self.forced_transistors = sim._merged_forced_t[cid]
        self.compiled_sig_cache: dict[int, tuple] = {}
        self.tstates = _OverlayTransistors(
            sim.network, self.states, self.forced_transistors
        )
        self._fault_comps = sim._fault_comps.get(cid)

    def take_seeds(self) -> set[int]:
        net = self.sim.network
        topo = self.sim._topo
        if topo is None:
            expanded: set[int] = set()
            for raw_seed in self._seeds:
                expanded.update(
                    expand_seed(
                        net, self.tstates, raw_seed, self.forced_nodes
                    )
                )
            self._seeds = set()
            return expanded
        # Drop seeds in components where this circuit provably tracks
        # the good circuit -- no divergence records on the component's
        # members or on the gates driving its channels, and no fault
        # site inside it.  Solving there would reproduce the good
        # circuit's own work (or the identity); the trigger scan
        # re-triggers the circuit if divergence ever reaches such a
        # component.  The filter applies the same expansion rule as
        # ``expand_seed`` (storage seeds are their own seed, input and
        # forced seeds perturb the storage nodes they conduct to), so
        # its output feeds the dynamic kernel directly; the component
        # check runs *before* the conducting-channel test: rail seeds
        # (vdd/gnd) have channel lists spanning the circuit, and the
        # per-channel transistor-state reads go through the overlay
        # views -- skipping them for clean components is a large win.
        dirty_comps = self.sim._dirty_comp_counts[self.cid]
        fault_comps = self._fault_comps
        node_component = topo.node_component
        node_is_input = net.node_is_input
        node_channels = net.node_channels
        forced = self.forced_nodes
        tstates = self.tstates
        kept: set[int] = set()
        for raw_seed in self._seeds:
            if not node_is_input[raw_seed] and raw_seed not in forced:
                cid = node_component[raw_seed]
                if cid in dirty_comps or cid in fault_comps:
                    kept.add(raw_seed)
                continue
            # Input/forced seed: perturbs the storage nodes it conducts
            # to (the paper's second perturbation rule).
            for t, m in node_channels[raw_seed]:
                if m in kept or node_is_input[m] or m in forced:
                    continue
                cid = node_component[m]
                if cid not in dirty_comps and cid not in fault_comps:
                    continue
                if tstates[t] == 0:
                    continue
                kept.add(m)
        self._seeds = set()
        return kept

    def has_pending(self) -> bool:
        return bool(self._seeds)

    def apply_round(
        self,
        solutions: list[VicinitySolution],
        stats: SettleStats | None,
    ) -> None:
        changes = [
            change for solution in solutions for change in solution.changes
        ]
        self.applied_changes = bool(changes)
        # A member the good circuit changed this round but this circuit
        # kept at its old value produced no change entry, yet it now
        # *diverges from the new good state*.  Synthesize an entry at
        # the retained value so record maintenance sees it (the derived
        # next-round seeds are unaffected: old == new).
        old_good = self.sim._old_good
        if old_good:
            recomputed = {node for node, _state in changes}
            for solution in solutions:
                for node in solution.members:
                    if node in old_good and node not in recomputed:
                        changes.append((node, self.states[node]))
        if changes:
            self.sim._apply_circuit_changes(self.cid, changes, self.states)


class ConcurrentFaultSimulator:
    """Concurrent fault simulation of one network under a fault list.

    Parameters
    ----------
    net:
        The circuit (finalized).  Short/open faults re-instrument it; use
        :attr:`network` for the network actually simulated.
    faults:
        Fault descriptions (see ``repro.core.faults``).  May be empty, in
        which case :meth:`run` measures the good circuit alone.
    observed:
        Names of the output nodes compared for detection.
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
        locality: str = "dynamic",
        trim: bool = True,
        good_trace: GoodTrace | None = None,
    ):
        check_policy(detection_policy)
        check_locality(locality)
        instrumented: Instrumented = prepare(net, list(faults))
        self.network = instrumented.net
        self.good_forced_transistors = instrumented.good_forced_transistors
        self.detection_policy = detection_policy
        self.drop_on_detect = drop_on_detect
        self.max_rounds = max_rounds
        self.locality = locality
        #: Redundancy trimming: clean-component seed filtering, whole
        #: round skips and fault-site index pruning.  All three only
        #: remove work whose outcome is provably identical to the good
        #: circuit's; ``trim=False`` is the ablation baseline.
        self.trim = trim
        self.oscillation_events = 0
        self._kernel = SettleKernel(
            self.network,
            max_rounds=max_rounds,
            locality=locality,
        )
        #: With the compiled locality one solve cache (on the
        #: instrumented network) serves the good circuit and every
        #: faulty overlay: a faulty circuit differs from the good one on
        #: only a few components, so most of its solves hit entries the
        #: good circuit (or a sibling fault) already paid for.  ``None``
        #: off the compiled locality.
        self.compiled = self._kernel.compiled
        #: Channel-connected-component indexes (node_component /
        #: t_component / gate_fanout) backing the dirty-component
        #: bookkeeping.  The partition is pure topology -- independent of
        #: how vicinities are solved -- so when trimming, the dynamic and
        #: static localities borrow the compiled form's indexes (memoized
        #: per network; the solve caches stay untouched).  ``None`` only
        #: for untrimmed non-compiled runs.
        self._topo = (
            self.compiled
            if self.compiled is not None
            else (compile_network(self.network) if trim else None)
        )

        if not observed:
            raise SimulationError("at least one observed node is required")
        self.observed = [self.network.node(name) for name in observed]

        # --- good circuit state ---
        net_ = self.network
        self.states: list[int] = net_.initial_node_states()
        self.tstates: list[int] = net_.compute_transistor_states(self.states)
        for t, state in self.good_forced_transistors.items():
            self.tstates[t] = state
        self._good_pending: set[int] = set()
        self._good = _GoodCircuit(self)
        #: Round-start good states: identical to ``states`` except while
        #: a round's faulty circuits run, when nodes the good round just
        #: changed still hold their previous value (round alignment).
        self._prev_states: list[int] = list(self.states)
        #: Nodes (-> old value) the current round's good changes
        #: overwrote; drives ``_prev_states`` resync and the faulty
        #: adapters' synthesized record-maintenance entries.
        self._old_good: dict[int, int] = {}
        #: (node, circuit) records that reconverged this round; removal
        #: is deferred until the round's faulty circuits have run.
        self._stale_records: set[tuple[int, int]] = set()

        # --- faulty circuit state ---
        self.prepared: dict[int, PreparedFault] = {
            pf.circuit_id: pf for pf in instrumented.prepared
        }
        self.live: set[int] = set(self.prepared)
        self.circuit_records: dict[int, dict[int, int]] = {
            cid: {} for cid in self.prepared
        }
        #: Per circuit: component id -> number of records making it
        #: dirty (divergence on a member or on a gate driving its
        #: channels).  Maintained incrementally by record set/remove so
        #: the compiled locality's take_seeds filter is O(1) per seed.
        self._dirty_comp_counts: dict[int, dict[int, int]] = {
            cid: {} for cid in self.prepared
        }
        #: Round-start base-state key bytes per node tuple, shared by
        #: every faulty overlay; cleared whenever the snapshot changes.
        self._base_key_cache: dict = {}
        self.node_records: list[StateList | None] = [None] * net_.n_nodes
        self._merged_forced_t: dict[int, Mapping[int, int]] = {}
        for cid, pf in self.prepared.items():
            if pf.forced_transistors:
                merged = dict(self.good_forced_transistors)
                merged.update(pf.forced_transistors)
                self._merged_forced_t[cid] = merged
            else:
                self._merged_forced_t[cid] = self.good_forced_transistors
        # Fault-site indexes for trigger scanning, plus the reverse maps
        # (circuit -> index keys it occupies) that let _drop prune a
        # detected circuit's entries so the scan loops shrink as
        # coverage rises.
        self._node_fault_sites: dict[int, list[tuple[int, int]]] = {}
        self._trans_fault_sites: dict[int, list[tuple[int, int, int]]] = {}
        self._fault_site_keys: dict[int, tuple[set[int], set[int]]] = {}
        for cid, pf in self.prepared.items():
            node_keys: set[int] = set()
            trans_keys: set[int] = set()
            for node, value in pf.forced_nodes.items():
                self._node_fault_sites.setdefault(node, []).append(
                    (cid, value)
                )
                node_keys.add(node)
            for t, state in pf.forced_transistors.items():
                for node in (net_.t_source[t], net_.t_drain[t]):
                    self._trans_fault_sites.setdefault(node, []).append(
                        (cid, t, state)
                    )
                    trans_keys.add(node)
            if node_keys or trans_keys:
                self._fault_site_keys[cid] = (node_keys, trans_keys)
        #: Components each circuit's *fault itself* touches (forced
        #: nodes dirty their own component and, as gates, their fanout;
        #: forced transistors their component).  Shared by the adapters'
        #: take_seeds filter and the whole-round skip in _settle_all.
        self._fault_comps: dict[int, set[int]] = {}
        if self._topo is not None:
            topo = self._topo
            for cid, pf in self.prepared.items():
                fault_comps: set[int] = set()
                for node in pf.forced_nodes:
                    fault_comps.add(topo.node_component[node])
                    fault_comps.update(topo.gate_fanout[node])
                for t in pf.forced_transistors:
                    comp_of_t = topo.t_component[t]
                    if comp_of_t >= 0:
                        fault_comps.add(comp_of_t)
                fault_comps.discard(-1)
                self._fault_comps[cid] = fault_comps
        #: Redundancy-trim counters surfaced on the run report.
        self._round_skips = 0
        self._sites_pruned = 0
        self._fault_pending: dict[int, set[int]] = {}
        #: Reusable per-circuit round adapters (their overlay views hold
        #: only stable references: records dict, forced map, snapshot).
        self._adapters: dict[int, _FaultyCircuit] = {}

        # Static topology tables used by the trigger scan: the gate nodes
        # controlling transistors whose channel touches a node, and the
        # storage channel terminals of the transistors a node gates.
        self._channel_gate_nodes: list[tuple[int, ...]] = [
            tuple({net_.t_gate[t] for t, _m in net_.node_channels[n]})
            for n in range(net_.n_nodes)
        ]
        gate_terminals: list[tuple[int, ...]] = []
        for g in range(net_.n_nodes):
            terminals: set[int] = set()
            for t in net_.node_gates[g]:
                for terminal in (net_.t_source[t], net_.t_drain[t]):
                    if not net_.node_is_input[terminal]:
                        terminals.add(terminal)
            gate_terminals.append(tuple(terminals))
        self._gate_channel_terminals = gate_terminals

        self.log = DetectionLog()
        self._pattern_index = 0
        self._phase_index = 0

        #: A precomputed good run to replay instead of solving good
        #: rounds (see :mod:`repro.core.goodtrace`): each settle
        #: re-applies the recorded vicinity solutions through
        #: :meth:`_apply_good_round`, so trigger scans and record
        #: maintenance happen exactly as in a native run while the
        #: good-circuit solving cost is paid zero times here.
        self._replay = good_trace
        if good_trace is not None:
            good_trace.validate(self.network, observed, max_rounds)
            if not good_trace.replayable:
                raise SimulationError(
                    "good trace is not replayable (the good circuit "
                    "entered the oscillation fallback while recording)"
                )
        #: The recorded rounds of the settle currently in progress
        #: (``None`` outside replay mode / between phases).
        self._replay_rounds: list | None = None
        #: How many good-circuit settles this simulator performs over
        #: its lifetime (0 when replaying a trace, 1 otherwise).
        self.good_settles = 0 if good_trace is not None else 1

        self._drive_rails()
        self._activate_faults()

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

        ``clock`` selects ``process`` (CPU seconds, as the paper
        measured) or ``perf`` (wall clock) for per-pattern timing.

        ``progress``, if given, is called after every pattern with
        ``(record, detections)`` -- the freshly appended
        :class:`~repro.core.report.PatternRecord` and the tuple of
        :class:`~repro.core.detection.Detection` events that pattern
        produced.  The service layer streams these to clients; a
        callback that raises aborts the run at a pattern boundary
        (cancellation), propagating the exception.
        """
        timer = time.process_time if clock == "process" else time.perf_counter
        report = RunReport(n_faults=len(self.prepared), backend="concurrent")
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
        report.oscillation_events = self.oscillation_events
        report.good_settles = self.good_settles
        if self.trim:
            report.trim = {
                "round_skips": self._round_skips,
                "sites_pruned": self._sites_pruned,
            }
        return report

    def apply_pattern(self, pattern: TestPattern) -> None:
        """Simulate one pattern (all its phases, with observations)."""
        trace = self._replay
        groups = None
        if trace is not None:
            if self._pattern_index >= len(trace.phase_rounds):
                raise SimulationError(
                    "good trace exhausted: more patterns than recorded"
                )
            if trace.pattern_labels[self._pattern_index] != pattern.label:
                raise SimulationError(
                    "good trace was recorded for a different pattern "
                    "sequence"
                )
            groups = trace.phase_rounds[self._pattern_index]
            if len(groups) != len(pattern.phases):
                raise SimulationError(
                    "good trace phase count does not match pattern "
                    f"{pattern.label!r}"
                )
        for phase_index, phase in enumerate(pattern.phases):
            self._phase_index = phase_index
            if groups is not None:
                self._replay_rounds = groups[phase_index]
            self.apply_phase(phase.settings)
            if phase.observe:
                self._observe()
        self._pattern_index += 1

    def apply_phase(self, settings: Mapping[str, int]) -> None:
        """Apply one input setting and settle every circuit."""
        if self._replay is not None and self._replay_rounds is None:
            raise SimulationError(
                "a trace-fed simulator must be driven through "
                "apply_pattern/run (apply_phase has no recorded rounds)"
            )
        net = self.network
        for name, state in settings.items():
            node = net.node(name)
            if state not in STATES:
                raise SimulationError(f"invalid state {state!r} for {name!r}")
            if not net.node_is_input[node]:
                raise SimulationError(f"node {name!r} is not an input")
            if self.states[node] == state:
                continue
            self.states[node] = state
            # Inputs change for every circuit at once; the round-start
            # snapshot follows immediately (standalone simulations see
            # new inputs before their first round too).
            self._prev_states[node] = state
            self._base_key_cache.clear()
            self._good_node_changed(node)
            self._good_pending.update(
                expand_seed(net, self.tstates, node)
            )
            # An input node belongs to no vicinity, so the good-circuit
            # trigger scan never sees it; circuits in which a transistor
            # on this input's channel conducts differently (fault-forced,
            # or switched by a divergent gate) must be scheduled here or
            # the input change would pass them by entirely.
            for cid, t, forced_state in self._trans_fault_sites.get(node, ()):
                if cid in self.live and forced_state != self.tstates[t]:
                    self._schedule(
                        cid, (net.t_source[t], net.t_drain[t])
                    )
            for t, _partner in net.node_channels[node]:
                gate = net.t_gate[t]
                state_list = self.node_records[gate]
                if not state_list:
                    continue
                table = TRANS_TABLE[net.t_kind[t]]
                good_tstate = self.tstates[t]
                terminals = (net.t_source[t], net.t_drain[t])
                for cid, gate_state in state_list.items():
                    if (
                        cid in self.live
                        and t not in self._merged_forced_t[cid]
                        and table[gate_state] != good_tstate
                    ):
                        self._schedule(cid, terminals)
        self._settle_all()

    def good_state_of(self, name: str) -> int:
        """Good-circuit state of a node, by name."""
        return self.states[self.network.node(name)]

    def circuit_state_of(self, circuit_id: int, name: str) -> int:
        """A faulty circuit's state of a node, by name."""
        node = self.network.node(name)
        records = self.circuit_records.get(circuit_id)
        if records is None:
            raise FaultError(f"no circuit {circuit_id} (dropped or unknown)")
        return records.get(node, self.states[node])

    @property
    def live_circuits(self) -> set[int]:
        """Ids of faulty circuits still being simulated."""
        return set(self.live)

    def total_divergence_records(self) -> int:
        """Total records across all state lists (memory footprint proxy)."""
        return sum(len(records) for records in self.circuit_records.values())

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def _drive_rails(self) -> None:
        """Power up: both rails in one phase, then one settle.

        Driving vdd and gnd together (rather than settling between
        them) matches the single-circuit engine's initialization
        (``serial._make_engine``, the good-trace recorder), so the good
        circuit's power-up round sequence is identical across backends
        and a recorded trace replays it exactly.
        """
        net = self.network
        settings = {
            net.node_names[node]: state
            for node, state in net.rail_settings()
        }
        if self._replay is not None:
            self._replay_rounds = self._replay.init_rounds
        self.apply_phase(settings)

    def _activate_faults(self) -> None:
        """Create initial divergences and schedule fault-site events."""
        net = self.network
        if self._replay is not None:
            # The good circuit contributes nothing to this settle (only
            # faulty circuits are seeded), so its recorded group is
            # empty by construction.
            self._replay_rounds = []
        for cid, pf in self.prepared.items():
            seeds: set[int] = set(pf.seeds)
            for node, value in pf.forced_nodes.items():
                if value != self.states[node]:
                    self._set_record(node, cid, value)
                # The pseudo-input pins transistors it gates, which may
                # differ from the good circuit's states.
                for t in net.node_gates[node]:
                    seeds.add(net.t_source[t])
                    seeds.add(net.t_drain[t])
            self._schedule(cid, seeds)
        self._settle_all()

    # ------------------------------------------------------------------
    # record maintenance
    # ------------------------------------------------------------------
    def _set_record(self, node: int, cid: int, state: int) -> None:
        state_list = self.node_records[node]
        if state_list is None:
            state_list = StateList()
            self.node_records[node] = state_list
        state_list.set(cid, state)
        records = self.circuit_records[cid]
        if node not in records and self._topo is not None:
            counts = self._dirty_comp_counts[cid]
            topo = self._topo
            for comp in (
                topo.node_component[node],
                *topo.gate_fanout[node],
            ):
                counts[comp] = counts.get(comp, 0) + 1
        records[node] = state

    def _remove_record(self, node: int, cid: int) -> None:
        state_list = self.node_records[node]
        if state_list is not None:
            state_list.remove(cid)
        removed = self.circuit_records[cid].pop(node, None)
        if removed is not None and self._topo is not None:
            counts = self._dirty_comp_counts[cid]
            topo = self._topo
            for comp in (
                topo.node_component[node],
                *topo.gate_fanout[node],
            ):
                remaining = counts[comp] - 1
                if remaining:
                    counts[comp] = remaining
                else:
                    del counts[comp]

    def _flush_stale_records(self) -> None:
        """Delete reconverged records once the round's circuits have run.

        A record marked stale may have been rewritten by its circuit's
        own round in the meantime; only records still equal to the
        current good state are deleted.
        """
        if not self._stale_records:
            return
        states = self.states
        for node, cid in self._stale_records:
            if self.circuit_records[cid].get(node) == states[node]:
                self._remove_record(node, cid)
        self._stale_records.clear()

    # ------------------------------------------------------------------
    # good-circuit simulation
    # ------------------------------------------------------------------
    def _good_node_changed(self, node: int) -> None:
        """Good node changed: transistor updates + record maintenance."""
        net = self.network
        states = self.states
        tstates = self.tstates
        new_state = states[node]
        for t in net.node_gates[node]:
            if t in self.good_forced_transistors:
                continue
            new_t = TRANS_TABLE[net.t_kind[t]][new_state]
            if new_t != tstates[t]:
                tstates[t] = new_t
                for terminal in (net.t_source[t], net.t_drain[t]):
                    if not net.node_is_input[terminal]:
                        self._good_pending.add(terminal)
        # Reconvergence: records equal to the new good state vanish --
        # but only after the round's faulty circuits have consumed them
        # (the record *is* the circuit's round r-1 state until then).
        state_list = self.node_records[node]
        if state_list:
            for cid, state in state_list.items():
                if state == new_state:
                    self._stale_records.add((node, cid))
        # Forced-node records must reflect divergence from the new state
        # (reads fall through to the forced layer once removed).
        for cid, value in self._node_fault_sites.get(node, ()):
            if cid in self.live:
                if value == new_state:
                    self._remove_record(node, cid)
                else:
                    self._set_record(node, cid, value)

    def _settle_all(self) -> None:
        """Run unit-delay rounds until every circuit is quiescent.

        Each round simulates the good circuit first, then every faulty
        circuit with pending events in ascending circuit-id order (the
        paper's time-step discipline).  Interleaving per *round* -- not
        per input setting -- matters: switching transients (e.g. decoder
        hazards) are real events in the unit-delay model, and faulty
        circuits must see the same intermediate states a standalone
        simulation of them would.  The kernel supplies the rounds; the
        round budget and the good/faulty interleave live here.
        """
        kernel = self._kernel
        circuit_rounds: dict[int, int] = {}
        good_rounds = 0
        total_rounds = 0
        hard_cap = 3 * self.max_rounds + 50
        replay = self._replay_rounds
        replay_pos = 0
        while (
            self._good_pending
            or self._fault_pending
            or (replay is not None and replay_pos < len(replay))
        ):
            total_rounds += 1
            if total_rounds > hard_cap:
                # Pathological mutual churn: states already conservative,
                # stop scheduling (counted for reporting).
                self.oscillation_events += 1
                self._good_pending.clear()
                self._fault_pending.clear()
                self._sync_prev_states()
                self._stale_records.clear()
                self._replay_rounds = None
                return
            if replay is not None:
                # Replay mode: the recorded solutions are this settle's
                # entire good-circuit evolution.  Applying them runs the
                # trigger scans and record maintenance natively; the
                # seeds the applied changes (and this phase's drives)
                # generate are discarded -- solving them is exactly the
                # work the recording already did.
                if replay_pos < len(replay):
                    self._apply_good_round(replay[replay_pos])
                    replay_pos += 1
                self._good_pending.clear()
            elif self._good_pending:
                good_rounds += 1
                if good_rounds > self.max_rounds:
                    self.oscillation_events += 1
                    kernel.force_x(self._good)
                else:
                    kernel.step(self._good)
            if self._fault_pending:
                pending = self._fault_pending
                self._fault_pending = {}
                adapters = self._adapters
                for cid in sorted(pending):
                    if cid not in self.live:
                        continue
                    # Whole-round skip: a circuit with no dirty
                    # components tracks the good circuit everywhere
                    # except around its own fault sites, so unless a
                    # seed lands in a fault component this round is
                    # provably a no-op -- don't even build the adapter
                    # or expand the seeds.
                    if (
                        self.trim
                        and self._topo is not None
                        and not self._dirty_comp_counts[cid]
                        and not self._seeds_matter(cid, pending[cid])
                    ):
                        self._round_skips += 1
                        circuit_rounds[cid] = 0
                        continue
                    count = circuit_rounds.get(cid, 0) + 1
                    circuit = adapters.get(cid)
                    if circuit is None:
                        circuit = adapters[cid] = _FaultyCircuit(self, cid)
                    circuit._seeds = pending[cid]
                    # Reset per round: kernel.step never reaches
                    # apply_round when the seeds expand to nothing, and
                    # a stale True would bill that no-op round to the
                    # circuit's oscillation budget.
                    circuit.applied_changes = False
                    if count > self.max_rounds:
                        self.oscillation_events += 1
                        kernel.force_x(circuit, batch_apply=True)
                        circuit_rounds[cid] = 0
                    else:
                        kernel.step(circuit, batch=True)
                        # Only rounds that actually changed the circuit
                        # count toward its oscillation budget: a stable
                        # circuit re-triggered by good-circuit churn
                        # (e.g. an oscillating good region scanning its
                        # records every round) is responding to fresh
                        # stimuli, not oscillating -- a standalone
                        # simulation of it would be quiescent.
                        circuit_rounds[cid] = (
                            count if circuit.applied_changes else 0
                        )
            # The round is over: the faulty circuits have seen the good
            # circuit's round r-1 states where they needed them.
            self._flush_stale_records()
            self._sync_prev_states()
        # A consumed group may not be reused: apply_pattern installs the
        # next phase's rounds before the next settle.
        self._replay_rounds = None

    def _seeds_matter(self, cid: int, seeds: set[int]) -> bool:
        """Whether any raw seed could survive the adapter's take_seeds
        filter for a circuit with *no* dirty components.

        A storage seed matters only if its component is a fault
        component; an input/forced seed only if it conducts toward one.
        This over-approximates take_seeds (the conducting-channel test
        is omitted), so a False is always safe to skip on.
        """
        fault_comps = self._fault_comps[cid]
        if not fault_comps:
            return False
        net = self.network
        node_component = self._topo.node_component
        node_is_input = net.node_is_input
        forced = self.prepared[cid].forced_nodes
        for seed in seeds:
            if not node_is_input[seed] and seed not in forced:
                if node_component[seed] in fault_comps:
                    return True
                continue
            for _t, partner in net.node_channels[seed]:
                if node_is_input[partner] or partner in forced:
                    continue
                if node_component[partner] in fault_comps:
                    return True
        return False

    def _sync_prev_states(self) -> None:
        """Fold the round's good changes into the round-start snapshot."""
        old_good = self._old_good
        if old_good:
            states = self.states
            prev = self._prev_states
            for node in old_good:
                prev[node] = states[node]
            old_good.clear()
            self._base_key_cache.clear()

    def _apply_good_round(self, solutions: list[VicinitySolution]) -> None:
        """Apply one good round: states, trigger scans, then fan-out.

        Trigger scans run *before* transistor updates and record
        maintenance so they see start-of-round transistor states, and
        before the old states are forgotten.
        """
        states = self.states
        old_good = self._old_good
        detailed: list[list[tuple[int, int, int]]] = []
        for solution in solutions:
            changes = [
                (node, states[node], new_state)
                for node, new_state in solution.changes
            ]
            detailed.append(changes)
            for node, old_state, new_state in changes:
                if node not in old_good:
                    old_good[node] = old_state
                states[node] = new_state
        for solution, changes in zip(solutions, detailed):
            self._trigger_scan(solution.members, changes, solution.seeds)
        for changes in detailed:
            for node, _old_state, _new_state in changes:
                self._good_node_changed(node)

    # ------------------------------------------------------------------
    # trigger scanning (good -> faulty event creation)
    # ------------------------------------------------------------------
    def _trigger_scan(
        self,
        members: list[int],
        changes: list[tuple[int, int, int]],
        vic_seeds: list[int],
    ) -> None:
        """Schedule faulty-circuit events for one solved good vicinity.

        ``changes`` carries (node, old_state, new_state).  Triggered
        circuits are rescheduled on the vicinity's seeds and changed
        nodes; their reads of any good state this round overwrote
        resolve through the ``old_good`` layer, so their recomputation
        sees the same round r-1 values a standalone simulation would
        (the paper's event-creation rule: "a node in a faulty circuit
        that previously had the same state as the good circuit may now
        be different").  Untriggered circuits adopt the new value
        implicitly, which is sound because nothing in their fault or
        divergence set touches this vicinity.
        """
        if not self.live:
            return
        net = self.network
        tstates = self.tstates
        node_records = self.node_records
        node_fault_sites = self._node_fault_sites
        trans_fault_sites = self._trans_fault_sites
        channel_gate_nodes = self._channel_gate_nodes
        base: set[int] = set(vic_seeds)
        base.update(node for node, _old, _new in changes)
        triggered: dict[int, set[int]] = {}

        gate_nodes: set[int] = set()
        for node in members:
            state_list = node_records[node]
            if state_list:
                for cid in state_list.circuit_ids():
                    triggered.setdefault(cid, set()).add(node)
            if node in node_fault_sites:
                for cid, _value in node_fault_sites[node]:
                    # A pseudo-input in the vicinity can change outcomes
                    # even when its value matches the good circuit
                    # (omega drive).
                    triggered.setdefault(cid, set()).add(node)
            if node in trans_fault_sites:
                for cid, t, forced_state in trans_fault_sites[node]:
                    if forced_state != tstates[t]:
                        seeds = triggered.setdefault(cid, set())
                        seeds.add(net.t_source[t])
                        seeds.add(net.t_drain[t])
            gate_nodes.update(channel_gate_nodes[node])
        for gate in gate_nodes:
            state_list = node_records[gate]
            if state_list:
                terminals = self._gate_channel_terminals[gate]
                for cid in state_list.circuit_ids():
                    triggered.setdefault(cid, set()).update(terminals)

        if not triggered:
            return
        live = self.live
        for cid, extra in triggered.items():
            if cid in live:
                self._schedule(cid, base | extra)

    def _schedule(self, cid: int, seeds: Iterable[int]) -> None:
        self._fault_pending.setdefault(cid, set()).update(seeds)

    # ------------------------------------------------------------------
    # faulty-circuit simulation
    # ------------------------------------------------------------------
    def _apply_circuit_changes(
        self,
        cid: int,
        changes: list[tuple[int, int]],
        view: _OverlayStates,
    ) -> None:
        """Update records and derive next-round events for circuit cid.

        ``view`` is the overlay the changes were computed against; it
        supplies the circuit's pre-change states (which may live in the
        ``old_good`` layer rather than in records).
        """
        net = self.network
        good_states = self.states
        merged_forced = self._merged_forced_t[cid]
        old_states = {node: view[node] for node, _state in changes}
        for node, state in changes:
            if state == good_states[node]:
                self._remove_record(node, cid)
            else:
                self._set_record(node, cid, state)
        next_seeds: set[int] = set()
        for node, state in changes:
            old = old_states[node]
            for t in net.node_gates[node]:
                if t in merged_forced:
                    continue
                table = TRANS_TABLE[net.t_kind[t]]
                if table[old] != table[state]:
                    next_seeds.add(net.t_source[t])
                    next_seeds.add(net.t_drain[t])
        if next_seeds:
            self._schedule(cid, next_seeds)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _observe(self) -> None:
        for node in self.observed:
            state_list = self.node_records[node]
            if not state_list:
                continue
            good_state = self.states[node]
            # Snapshot: dropping mutates the list during iteration.
            detected = [
                (cid, state)
                for cid, state in state_list.items()
                if cid in self.live
                and differs(good_state, state, self.detection_policy)
            ]
            for cid, state in detected:
                self.log.record(
                    Detection(
                        circuit_id=cid,
                        description=self.prepared[cid].fault.describe(),
                        pattern_index=self._pattern_index,
                        phase_index=self._phase_index,
                        node=self.network.node_names[node],
                        good_state=good_state,
                        faulty_state=state,
                    )
                )
                if self.drop_on_detect:
                    self._drop(cid)

    def _drop(self, cid: int) -> None:
        """Purge a detected circuit: records, events, liveness, and its
        fault-site index entries (so trigger scans stop visiting it)."""
        records = self.circuit_records[cid]
        for node in list(records):
            state_list = self.node_records[node]
            if state_list is not None:
                state_list.remove(cid)
        records.clear()
        self._dirty_comp_counts[cid].clear()
        self.live.discard(cid)
        self._fault_pending.pop(cid, None)
        if not self.trim:
            return
        keys = self._fault_site_keys.pop(cid, None)
        if keys is None:
            return
        node_keys, trans_keys = keys
        for node in node_keys:
            entries = self._node_fault_sites[node]
            kept = [entry for entry in entries if entry[0] != cid]
            self._sites_pruned += len(entries) - len(kept)
            if kept:
                self._node_fault_sites[node] = kept
            else:
                del self._node_fault_sites[node]
        for node in trans_keys:
            entries = self._trans_fault_sites[node]
            kept = [entry for entry in entries if entry[0] != cid]
            self._sites_pruned += len(entries) - len(kept)
            if kept:
                self._trans_fault_sites[node] = kept
            else:
                del self._trans_fault_sites[node]
