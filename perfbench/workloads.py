"""Benchmark inputs: circuits, fault pools, seeded samples, job mixes.

Everything here derives from the benchmark seed alone; the simulator
under test receives only the netlist text, the faults and the patterns.

A *pool* is a fixed, seed-independent fault universe on one circuit
under one test sequence.  The serial reference is computed once per
pool (see ``reference.py``), so any sample drawn from a pool is checked
by lookup.  Samples are stratified on two keys that ``strata.json``
records for every fault of a pool (see ``make_strata.py``): its
measured simulation cost and its lifetime, the patterns it stays live
under the serial reference.  Grading time follows the summed cost and
the live circuit-pattern count follows the summed lifetime, so both
stay nearly independent of the seed while every seed still grades
different faults.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro.circuits.ram import build_ram
from repro.core.faults import (
    Fault,
    TransistorStuckFault,
    node_stuck_universe,
    ram_fault_universe,
    transistor_stuck_universe,
)
from repro.netlist import sim_format
from repro.patterns.sequences import sequence1, sequence2

STRATA_PATH = Path(__file__).with_name("strata.json")

#: (rows, cols) of each circuit, by name.
CIRCUITS = {"ram64": (8, 8), "ram16": (4, 4), "ram8": (2, 4)}

SEQUENCES = {"seq1": sequence1, "seq2": sequence2}

#: Transistors per run in the mixed pool (see ``Pool.faults``).
MIXED_RUN = 8


@dataclass(frozen=True)
class PoolSpec:
    """A fixed fault universe on one circuit under one sequence."""

    name: str
    circuit: str
    universe: str  # "node" (node stuck-at) or "mixed"
    sequence: str


POOLS = {
    spec.name: spec
    for spec in (
        PoolSpec("ram64-node-seq1", "ram64", "node", "seq1"),
        PoolSpec("ram64-mixed-seq2", "ram64", "mixed", "seq2"),
        PoolSpec("ram16-node-seq1", "ram16", "node", "seq1"),
        PoolSpec("ram16-node-seq2", "ram16", "node", "seq2"),
        PoolSpec("ram8-node-seq1", "ram8", "node", "seq1"),
        PoolSpec("ram8-node-seq2", "ram8", "node", "seq2"),
    )
}


def fault_kind(fault: Fault) -> str:
    """Stratification class: the fault kind, stuck-open and
    stuck-closed transistors apart."""
    if isinstance(fault, TransistorStuckFault):
        return "stuck-closed" if fault.closed else "stuck-open"
    return fault.kind


class Pool:
    """A pool's circuit, patterns and fault universe, built on demand."""

    def __init__(self, spec: PoolSpec):
        self.spec = spec
        self.ram = build_ram(*CIRCUITS[spec.circuit])
        self.netlist = sim_format.dumps(self.ram.net)
        self.observed = (self.ram.dout,)
        self.patterns = tuple(SEQUENCES[spec.sequence](self.ram).patterns)

    @cached_property
    def faults(self) -> tuple[Fault, ...]:
        if self.spec.universe == "node":
            faults = tuple(node_stuck_universe(self.ram.net))
        else:
            # A third of the combined universe bounds the one-off serial
            # reference cost: every third node stuck-at fault and
            # bit-line short, and both stuck faults of the transistors
            # in every third run of MIXED_RUN (netlist order).  Whole
            # runs keep the parallel and series neighbours that fault
            # collapsing merges, which a plain stride would split.
            # Transistor names come from the parsed netlist, which is
            # what the simulator under test sees.
            parsed = sim_format.loads(self.netlist)
            transistors = [
                name
                for index, name in enumerate(parsed.t_names)
                if index // MIXED_RUN % 3 == 0
            ]
            faults = tuple(
                ram_fault_universe(self.ram)[::3]
                + transistor_stuck_universe(parsed, transistors)
            )
        descriptions = [fault.describe() for fault in faults]
        if len(set(descriptions)) != len(descriptions):
            raise ValueError(f"pool {self.spec.name}: duplicate faults")
        return faults

    @cached_property
    def digest(self) -> str:
        """Content hash of everything the reference depends on."""
        payload = json.dumps(
            {
                "netlist": self.netlist,
                "observed": self.observed,
                "faults": [fault.describe() for fault in self.faults],
                "patterns": [repr(pattern) for pattern in self.patterns],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @cached_property
    def strata(self) -> dict:
        """``order``: pool indices by ascending per-fault cost;
        ``oscillates``: indices of faults whose circuits oscillate;
        ``lifetime``: each fault's lifetime, by pool index."""
        table = json.loads(STRATA_PATH.read_text())
        entry = table.get(self.spec.name)
        if entry is None or entry["digest"] != self.digest:
            raise ValueError(
                f"strata.json is stale for pool {self.spec.name}; "
                "regenerate it with perfbench/make_strata.py"
            )
        return entry

    def sample(self, count: int, rng: random.Random) -> list[int]:
        """Stratified sample of ``count`` pool indices, in pool order.

        Each fault kind, with oscillating faults a kind of their own,
        gets its proportional share (largest remainder).  Within a
        kind, the cost-ordered members are cut into that many runs of
        consecutive ranks, and each run draws one member at a lifetime
        quantile of its own; the quantiles are a seeded permutation of
        equal slots (a Latin hypercube over cost and lifetime).
        """
        lifetime = self.strata["lifetime"]
        oscillates = set(self.strata["oscillates"])
        by_kind: dict[str, list[int]] = {}
        for index in self.strata["order"]:
            kind = fault_kind(self.faults[index])
            if index in oscillates:
                kind += "/oscillating"
            by_kind.setdefault(kind, []).append(index)
        kinds = sorted(by_kind)
        total = len(self.faults)
        quotas = {k: count * len(by_kind[k]) / total for k in kinds}
        shares = {k: int(quotas[k]) for k in kinds}
        by_remainder = sorted(
            kinds, key=lambda k: (shares[k] - quotas[k], k)
        )
        for kind in by_remainder[: count - sum(shares.values())]:
            shares[kind] += 1
        picked: list[int] = []
        for kind in kinds:
            members = by_kind[kind]
            share = shares[kind]
            slots = list(range(share))
            rng.shuffle(slots)
            for stratum, slot in enumerate(slots):
                low = stratum * len(members) // share
                high = (stratum + 1) * len(members) // share
                run = sorted(members[low:high],
                             key=lambda i: (lifetime[i], i))
                position = int((slot + rng.random()) / share * len(run))
                picked.append(run[position])
        return sorted(picked)


#: Workload name -> why it was chosen (``BENCHMARK.json`` carries the
#: same line).  README.md records the layers each one should load and
#: bypass.
WORKLOADS = {
    "fig1_ram64_concurrent": (
        "The paper's algorithm on its circuit: RAM64, Sequence 1, 64 node "
        "stuck-at faults, concurrent; the no-change control for pruning "
        "and collapsing, which remove nothing here."
    ),
    "fig2_ram64_concurrent_mixed": (
        "RAM64, Sequence 2, 96 faults with shorts and stuck transistors: "
        "the one workload where static pruning and collapsing remove "
        "work, shorts rewrite the network and oscillation fires."
    ),
    "fig1_ram64_sharded2": (
        "The fig1_ram64_concurrent input through sharded jobs=2 over "
        "concurrent, so shard and good-trace overhead or speedup reads "
        "directly against that workload."
    ),
    "service_small_jobs": (
        "Closed loop: 2 clients, a server with 2 workers, 16-fault jobs "
        "over RAM16/RAM8 and both sequences; the only workload through "
        "the service and the compiled solve cache."
    ),
}

#: Faults per grading request.
FIG1_FAULTS = 64
FIG2_FAULTS = 96
SERVICE_JOB_FAULTS = 16

#: Service job kinds, in the order a job index cycles through them.
SERVICE_KINDS = (
    "ram16-node-seq1",
    "ram8-node-seq1",
    "ram16-node-seq2",
    "ram8-node-seq2",
)


def grading_input(workload: str, seed: int) -> tuple[Pool, list[int]]:
    """The pool and sampled pool indices a grading workload runs."""
    if workload == "fig2_ram64_concurrent_mixed":
        pool, count = Pool(POOLS["ram64-mixed-seq2"]), FIG2_FAULTS
    else:
        pool, count = Pool(POOLS["ram64-node-seq1"]), FIG1_FAULTS
    return pool, pool.sample(count, random.Random(seed))


class JobMix:
    """The service workload's deterministic job sequence.

    Job ``i`` runs on kind ``SERVICE_KINDS[i % 4]`` with its own
    stratified fault sample, seeded from the benchmark seed and ``i``.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.pools = {name: Pool(POOLS[name]) for name in SERVICE_KINDS}

    def job(self, index: int) -> tuple[Pool, list[int]]:
        pool = self.pools[SERVICE_KINDS[index % len(SERVICE_KINDS)]]
        rng = random.Random(f"{self.seed}:{index}")
        return pool, pool.sample(SERVICE_JOB_FAULTS, rng)
