"""Fault detection: observation policy, detection log, coverage.

"Any time the simulation of a faulty circuit produces a result on the
output data pin different than the good circuit simulation, the fault is
considered detected, and the simulation of that circuit is dropped."

Two comparison policies are provided:

* ``hard`` (default): both values definite (0/1) and different -- the
  conventional definite-detection rule; X differences are inconclusive
  because the indeterminate value might resolve to agree on silicon.
* ``any``: any state difference counts, including X vs 0/1 (the most
  aggressive reading of the paper's sentence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..switchlevel.logic import STATE_CHARS, X

POLICY_HARD = "hard"
POLICY_ANY = "any"
POLICIES = (POLICY_HARD, POLICY_ANY)


def check_policy(policy: str) -> str:
    """Return ``policy``, or raise if it names no detection policy."""
    if policy not in POLICIES:
        raise SimulationError(f"unknown detection policy {policy!r}")
    return policy


def differs(good_state: int, faulty_state: int, policy: str) -> bool:
    """True if a faulty output value constitutes a detection."""
    if good_state == faulty_state:
        return False
    if policy == POLICY_HARD:
        return good_state != X and faulty_state != X
    if policy == POLICY_ANY:
        return True
    raise SimulationError(f"unknown detection policy {policy!r}")


@dataclass(frozen=True)
class Detection:
    """One fault detection event."""

    circuit_id: int
    description: str
    pattern_index: int
    phase_index: int
    node: str
    good_state: int
    faulty_state: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"pattern {self.pattern_index} phase {self.phase_index}: "
            f"circuit {self.circuit_id} ({self.description}) "
            f"observed {STATE_CHARS[self.faulty_state]} on {self.node}, "
            f"good {STATE_CHARS[self.good_state]}"
        )


@dataclass
class DetectionLog:
    """Accumulates detections over a fault-simulation run."""

    detections: list[Detection] = field(default_factory=list)
    _by_circuit: dict[int, Detection] = field(default_factory=dict)

    def record(self, detection: Detection) -> None:
        self.detections.append(detection)
        self._by_circuit.setdefault(detection.circuit_id, detection)

    def detected_circuits(self) -> set[int]:
        """Circuit ids with at least one detection."""
        return set(self._by_circuit)

    def first_detection(self, circuit_id: int) -> Detection | None:
        """The earliest detection of a circuit, or None."""
        return self._by_circuit.get(circuit_id)

    def detection_pattern(self, circuit_id: int) -> int | None:
        """Pattern index of the first detection, or None if undetected."""
        detection = self._by_circuit.get(circuit_id)
        return None if detection is None else detection.pattern_index

    def coverage(self, total_faults: int) -> float:
        """Fraction of faults detected (0.0 when no faults were given)."""
        if total_faults == 0:
            return 0.0
        return len(self._by_circuit) / total_faults

    def cumulative_by_pattern(self, n_patterns: int) -> list[int]:
        """Cumulative first-detection counts per pattern (Fig. 1's rising
        curve): entry p = number of faults detected by the end of
        pattern p."""
        counts = [0] * n_patterns
        for detection in self._by_circuit.values():
            if detection.pattern_index < n_patterns:
                counts[detection.pattern_index] += 1
        running = 0
        cumulative = []
        for count in counts:
            running += count
            cumulative.append(running)
        return cumulative

    def __len__(self) -> int:
        return len(self.detections)
