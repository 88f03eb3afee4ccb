"""The switch-level network model (MOSSIM II / FMOSSIM network model).

A switch-level network is a set of *nodes* connected by *transistors*:

* Each node is either an **input node** (an unbeatable signal source such
  as Vdd, Gnd, a clock or a data input) or a **storage node** whose state
  is determined by the network and which retains charge when isolated.
  Storage nodes carry a discrete *size* modeling relative capacitance.
* Each transistor is a symmetric, bidirectional switch with terminals
  ``gate``, ``source`` and ``drain`` and a discrete *strength* modeling
  relative conductance.  Transistors are n-type, p-type or d-type
  (depletion load); the transistor's state (open / closed / unknown) is a
  function of its gate node's state, per Table 1 of the paper:

  ====== ====== ====== ======
  gate   n-type p-type d-type
  ====== ====== ====== ======
  0      0      1      1
  1      1      0      1
  X      X      X      1
  ====== ====== ====== ======

No restriction is placed on the interconnection topology (unlike earlier
MOS fault simulators, which required tree-structured channel graphs).

:class:`Network` stores nodes and transistors in flat parallel lists
indexed by small integers, with name maps for the human-facing API.  The
topology must be :meth:`finalized <Network.finalize>` before simulation;
finalization builds the adjacency indexes used by the event-driven kernel
and freezes further structural mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import (
    NetworkError,
    NetworkFrozenError,
    NetworkNotFinalizedError,
    UnknownNodeError,
    UnknownTransistorError,
)
from .logic import ONE, STATES, X, ZERO
from .strength import DEFAULT_STRENGTHS, StrengthSystem

# Transistor kinds.
NTYPE: int = 0
PTYPE: int = 1
DTYPE: int = 2

KIND_NAMES: tuple[str, str, str] = ("n", "p", "d")
KIND_FROM_NAME: dict[str, int] = {"n": NTYPE, "p": PTYPE, "d": DTYPE}

#: ``TRANS_TABLE[kind][gate_state]`` -> transistor state (Table 1).
TRANS_TABLE: tuple[tuple[int, int, int], ...] = (
    (ZERO, ONE, X),  # n-type: follows gate
    (ONE, ZERO, X),  # p-type: complements gate
    (ONE, ONE, ONE),  # d-type: always conducting
)

#: Conventional names for the power rails.
VDD_NAME = "vdd"
GND_NAME = "gnd"


def transistor_state(kind: int, gate_state: int) -> int:
    """State of a ``kind`` transistor whose gate node has ``gate_state``.

    >>> transistor_state(NTYPE, 1)
    1
    >>> transistor_state(PTYPE, 1)
    0
    >>> transistor_state(DTYPE, 2)
    1
    """
    return TRANS_TABLE[kind][gate_state]


@dataclass(frozen=True)
class NodeInfo:
    """Read-only view of one node, for inspection and reporting."""

    index: int
    name: str
    is_input: bool
    size: int


@dataclass(frozen=True)
class TransistorInfo:
    """Read-only view of one transistor, for inspection and reporting."""

    index: int
    name: str
    kind: int
    strength: int
    gate: int
    source: int
    drain: int

    @property
    def kind_name(self) -> str:
        return KIND_NAMES[self.kind]


class Network:
    """A switch-level network of nodes and transistors.

    Build networks through :class:`repro.netlist.builder.NetworkBuilder`
    (which provides named nodes, cells and validation) rather than calling
    :meth:`add_node` / :meth:`add_transistor` directly; the raw methods
    exist for the builder and for targeted tests.
    """

    def __init__(self, strengths: StrengthSystem | None = None):
        self.strengths = (
            strengths if strengths is not None else DEFAULT_STRENGTHS
        )
        # node arrays
        self.node_names: list[str] = []
        self.node_index: dict[str, int] = {}
        self.node_is_input: list[bool] = []
        self.node_size: list[int] = []
        # transistor arrays
        self.t_names: list[str] = []
        self.t_index: dict[str, int] = {}
        self.t_kind: list[int] = []
        self.t_strength: list[int] = []
        self.t_gate: list[int] = []
        self.t_source: list[int] = []
        self.t_drain: list[int] = []
        # adjacency (built by finalize)
        self.node_gates: list[list[int]] = []
        self.node_channels: list[list[tuple[int, int]]] = []
        self._finalized = False

    # --- construction ------------------------------------------------------
    def add_node(
        self, name: str, *, is_input: bool = False, size: int = 1
    ) -> int:
        """Add a node and return its index.

        ``size`` is the node's charge-storage size rank (1-based); it is
        ignored for input nodes, whose drive is always ``omega``.
        """
        if self._finalized:
            raise NetworkFrozenError("cannot add nodes to a finalized network")
        if name in self.node_index:
            raise NetworkError(f"duplicate node name: {name!r}")
        if not is_input and not self.strengths.is_size(size):
            raise NetworkError(
                f"node {name!r}: size {size} not valid in this strength system"
            )
        index = len(self.node_names)
        self.node_names.append(name)
        self.node_index[name] = index
        self.node_is_input.append(is_input)
        self.node_size.append(self.strengths.omega if is_input else size)
        return index

    def add_transistor(
        self,
        name: str,
        kind: int,
        gate: int,
        source: int,
        drain: int,
        *,
        strength: int | None = None,
    ) -> int:
        """Add a transistor and return its index.

        ``strength`` defaults to the strongest *regular* level (the level
        below the fault-injection "short" level when three are defined,
        otherwise the maximum).
        """
        if self._finalized:
            raise NetworkFrozenError(
                "cannot add transistors to a finalized network"
            )
        if name in self.t_index:
            raise NetworkError(f"duplicate transistor name: {name!r}")
        if kind not in (NTYPE, PTYPE, DTYPE):
            raise NetworkError(f"transistor {name!r}: invalid kind {kind!r}")
        for terminal in (gate, source, drain):
            if not 0 <= terminal < len(self.node_names):
                raise UnknownNodeError(
                    f"transistor {name!r}: node index {terminal} "
                    "does not exist"
                )
        if source == drain:
            raise NetworkError(
                f"transistor {name!r}: source and drain are the same node"
            )
        if strength is None:
            strength = self.strengths.max_gamma
        if not self.strengths.is_gamma(strength):
            raise NetworkError(
                f"transistor {name!r}: strength {strength} is not a "
                "transistor-strength level"
            )
        index = len(self.t_names)
        self.t_names.append(name)
        self.t_index[name] = index
        self.t_kind.append(kind)
        self.t_strength.append(strength)
        self.t_gate.append(gate)
        self.t_source.append(source)
        self.t_drain.append(drain)
        return index

    def finalize(self) -> "Network":
        """Freeze the topology and build adjacency indexes.

        Returns ``self`` so construction can be chained.  Idempotent.
        """
        if self._finalized:
            return self
        n_nodes = len(self.node_names)
        self.node_gates = [[] for _ in range(n_nodes)]
        self.node_channels = [[] for _ in range(n_nodes)]
        for t in range(len(self.t_names)):
            self.node_gates[self.t_gate[t]].append(t)
            src, drn = self.t_source[t], self.t_drain[t]
            self.node_channels[src].append((t, drn))
            self.node_channels[drn].append((t, src))
        self._finalized = True
        return self

    @property
    def finalized(self) -> bool:
        return self._finalized

    def unfrozen_copy(self) -> "Network":
        """A structural copy that accepts further nodes/transistors.

        Existing node and transistor indexes are preserved (construction
        is append-only), so index-based references into the original
        remain valid against the copy.  Used by fault instrumentation to
        insert short/open fault transistors into an already-built
        network.
        """
        copy = Network(self.strengths)
        copy.node_names = list(self.node_names)
        copy.node_index = dict(self.node_index)
        copy.node_is_input = list(self.node_is_input)
        copy.node_size = list(self.node_size)
        copy.t_names = list(self.t_names)
        copy.t_index = dict(self.t_index)
        copy.t_kind = list(self.t_kind)
        copy.t_strength = list(self.t_strength)
        copy.t_gate = list(self.t_gate)
        copy.t_source = list(self.t_source)
        copy.t_drain = list(self.t_drain)
        return copy

    def rewire_channel(
        self, transistor: int, old_node: int, new_node: int
    ) -> None:
        """Move one channel terminal of ``transistor`` to ``new_node``.

        Only valid before finalization; used to split nodes when
        injecting open faults.
        """
        if self._finalized:
            raise NetworkFrozenError("cannot rewire a finalized network")
        if not 0 <= new_node < len(self.node_names):
            raise UnknownNodeError(f"node index {new_node} does not exist")
        if self.t_source[transistor] == old_node:
            self.t_source[transistor] = new_node
        elif self.t_drain[transistor] == old_node:
            self.t_drain[transistor] = new_node
        else:
            raise NetworkError(
                f"transistor {self.t_names[transistor]!r} has no channel "
                f"terminal on node {self.node_names[old_node]!r}"
            )

    def require_finalized(self) -> None:
        if not self._finalized:
            raise NetworkNotFinalizedError(
                "network must be finalized before simulation"
            )

    # --- lookups -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_transistors(self) -> int:
        return len(self.t_names)

    def node(self, name: str) -> int:
        """Index of the node called ``name``."""
        try:
            return self.node_index[name]
        except KeyError:
            raise UnknownNodeError(f"no node named {name!r}") from None

    def transistor(self, name: str) -> int:
        """Index of the transistor called ``name``."""
        try:
            return self.t_index[name]
        except KeyError:
            raise UnknownTransistorError(
                f"no transistor named {name!r}"
            ) from None

    def node_info(self, index: int) -> NodeInfo:
        """Read-only record describing node ``index``."""
        return NodeInfo(
            index=index,
            name=self.node_names[index],
            is_input=self.node_is_input[index],
            size=self.node_size[index],
        )

    def transistor_info(self, index: int) -> TransistorInfo:
        """Read-only record describing transistor ``index``."""
        return TransistorInfo(
            index=index,
            name=self.t_names[index],
            kind=self.t_kind[index],
            strength=self.t_strength[index],
            gate=self.t_gate[index],
            source=self.t_source[index],
            drain=self.t_drain[index],
        )

    def input_nodes(self) -> list[int]:
        """Indexes of all input nodes."""
        return [i for i, flag in enumerate(self.node_is_input) if flag]

    def storage_nodes(self) -> list[int]:
        """Indexes of all storage (non-input) nodes."""
        return [i for i, flag in enumerate(self.node_is_input) if not flag]

    def rail_settings(self) -> list[tuple[int, int]]:
        """Power-up drive: ``(node, state)`` for vdd then gnd, each
        present only when declared as an input."""
        return [
            (self.node_index[name], state)
            for name, state in ((VDD_NAME, 1), (GND_NAME, 0))
            if name in self.node_index
            and self.node_is_input[self.node_index[name]]
        ]

    def iter_transistors(self) -> Iterator[TransistorInfo]:
        for t in range(len(self.t_names)):
            yield self.transistor_info(t)

    # --- state helpers -------------------------------------------------------
    def initial_node_states(self) -> list[int]:
        """All-X initial state vector (inputs included, to be driven)."""
        return [X] * len(self.node_names)

    def compute_transistor_states(self, node_states: list[int]) -> list[int]:
        """Transistor state vector derived from ``node_states`` (Table 1)."""
        t_kind = self.t_kind
        t_gate = self.t_gate
        return [
            TRANS_TABLE[t_kind[t]][node_states[t_gate[t]]]
            for t in range(len(t_kind))
        ]

    # --- reporting -----------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Size summary used by experiment reports.

        >>> net = Network(); _ = net.add_node("a", is_input=True)
        >>> net.finalize().stats()["nodes"]
        1
        """
        kind_counts = [0, 0, 0]
        for kind in self.t_kind:
            kind_counts[kind] += 1
        return {
            "nodes": self.n_nodes,
            "input_nodes": sum(self.node_is_input),
            "storage_nodes": self.n_nodes - sum(self.node_is_input),
            "transistors": self.n_transistors,
            "n_type": kind_counts[NTYPE],
            "p_type": kind_counts[PTYPE],
            "d_type": kind_counts[DTYPE],
        }

    def validate_states(self, states: Iterable[int]) -> None:
        """Raise if ``states`` is not a full vector of valid states."""
        states = list(states)
        if len(states) != self.n_nodes:
            raise NetworkError(
                f"state vector has {len(states)} entries, "
                f"expected {self.n_nodes}"
            )
        for i, state in enumerate(states):
            if state not in STATES:
                raise NetworkError(
                    f"node {self.node_names[i]!r} has invalid state {state!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network nodes={self.n_nodes} transistors={self.n_transistors}"
            f"{' finalized' if self._finalized else ''}>"
        )
