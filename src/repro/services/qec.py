"""Orthogonal QEC service: surface-code resource and logical-error modelling.

The middle layer treats error correction as an execution context (Section
4.3.2, Listing 5): operator descriptors stay purely logical, and an
orthogonal QEC service binds logical registers to code patches, counts
syndrome-extraction rounds and estimates logical error rates.  Since no
fault-tolerant hardware is available, the service is a *resource model*: it
answers the questions the middle layer and its scheduler actually ask —
how many physical qubits, how long, and with what logical failure
probability — using the standard surface-code scaling laws.

Model
-----
* physical qubits per logical patch (rotated surface code): ``2 d^2 - 1``,
* logical error rate per patch per round:
  ``p_L = A * (p / p_th)^((d + 1) / 2)`` with ``A = 0.1`` and threshold
  ``p_th = 1e-2``,
* syndrome rounds per logical operation layer: ``d``.

Executable cycles
-----------------
Since PR 7 the service is no longer *only* a closed-form model: the
stabilizer tableau engine (``trajectory_engine="stabilizer"``) executes real
repetition-code and rotated-surface-code syndrome-extraction cycles at
50-1000+ qubits.  :func:`repetition_code_circuit`,
:func:`code_capacity_repetition_circuit` and
:func:`surface_code_cycle_circuit` build the Clifford cycle circuits;
:meth:`QECService.run_repetition_memory` samples them under depolarizing
noise, majority-vote decodes the final data readout (exact minimum-weight
decoding for the repetition code) and reports the measured logical error
rate next to the closed-form prediction of :class:`RepetitionCodeModel` —
the anchor the QEC regression tests and ``benchmarks/bench_stabilizer.py``
hold the engine against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from ..backends.lowering import _append_repetition_rounds
from ..core.bundle import JobBundle
from ..core.context import QECPolicy
from ..core.cost import CostHint
from ..core.errors import ServiceError
from ..core.qdt import QuantumDataType
from ..core.qod import QuantumOperatorDescriptor
from ..simulators.gate.circuit import Circuit
from ..simulators.gate.noise import NoiseModel
from ..simulators.gate.statevector import StatevectorSimulator

__all__ = [
    "SurfaceCodeModel",
    "RepetitionCodeModel",
    "QECPlan",
    "QECCycleResult",
    "QECService",
    "repetition_code_circuit",
    "code_capacity_repetition_circuit",
    "surface_code_cycle_circuit",
    "surface_code_stabilizers",
]

_DEFAULT_THRESHOLD = 1e-2
_DEFAULT_PREFACTOR = 0.1


@dataclass
class SurfaceCodeModel:
    """Scaling laws of a (rotated) surface code."""

    threshold: float = _DEFAULT_THRESHOLD
    prefactor: float = _DEFAULT_PREFACTOR

    def physical_qubits_per_logical(self, distance: int) -> int:
        """Data + syndrome qubits of one distance-d patch."""
        self._check_distance(distance)
        return 2 * distance * distance - 1

    def logical_error_rate(self, distance: int, physical_error_rate: float) -> float:
        """Logical error probability per patch per syndrome round."""
        self._check_distance(distance)
        if not 0 < physical_error_rate <= 1:
            raise ServiceError("physical_error_rate must lie in (0, 1]")
        ratio = physical_error_rate / self.threshold
        return float(self.prefactor * ratio ** ((distance + 1) / 2))

    def distance_for_target(
        self, physical_error_rate: float, target_logical_rate: float, *, max_distance: int = 101
    ) -> int:
        """Smallest odd distance achieving *target_logical_rate* per round."""
        if physical_error_rate >= self.threshold:
            raise ServiceError(
                "physical error rate is at or above threshold; no distance suffices"
            )
        for distance in range(3, max_distance + 1, 2):
            if self.logical_error_rate(distance, physical_error_rate) <= target_logical_rate:
                return distance
        raise ServiceError(
            f"no distance <= {max_distance} reaches logical rate {target_logical_rate}"
        )

    @staticmethod
    def _check_distance(distance: int) -> None:
        if distance < 3 or distance % 2 == 0:
            raise ServiceError("surface-code distance must be an odd integer >= 3")


@dataclass
class RepetitionCodeModel:
    """Closed-form logical error rate of the bit-flip repetition code.

    Under code-capacity depolarizing noise (one independent depolarizing
    opportunity of strength ``p`` per data qubit, perfect measurement), a
    data qubit suffers a *bit flip* with probability ``q = 2 p / 3`` (the X
    and Y branches of the channel; Z acts trivially on the Z-basis readout).
    Majority-vote decoding — exact minimum-weight decoding for this code —
    fails exactly when more than ``(d - 1) / 2`` of the ``d`` data qubits
    flipped, so the logical error rate is the binomial tail
    ``sum_{k > (d-1)/2} C(d, k) q^k (1 - q)^(d - k)``.  This is the exact
    distribution the stabilizer engine samples in code-capacity mode, which
    makes it a tight statistical anchor for the QEC regression tests.
    """

    def bitflip_probability(self, physical_error_rate: float) -> float:
        """The per-qubit Z-readout flip probability ``q = 2 p / 3``."""
        if not 0 <= physical_error_rate <= 1:
            raise ServiceError("physical_error_rate must lie in [0, 1]")
        return 2.0 * physical_error_rate / 3.0

    def logical_error_rate(self, distance: int, physical_error_rate: float) -> float:
        """Exact majority-vote failure probability at code capacity."""
        if distance < 3 or distance % 2 == 0:
            raise ServiceError("repetition-code distance must be an odd integer >= 3")
        q = self.bitflip_probability(physical_error_rate)
        return float(
            sum(
                math.comb(distance, k) * q**k * (1.0 - q) ** (distance - k)
                for k in range((distance + 1) // 2, distance + 1)
            )
        )


@dataclass
class QECPlan:
    """Resource plan produced by :meth:`QECService.plan`."""

    policy: QECPolicy
    logical_qubits: int
    physical_qubits_per_logical: int
    total_physical_qubits: int
    logical_depth: int
    syndrome_rounds: int
    execution_time_us: float
    logical_error_rate_per_round: float
    failure_probability: float
    patch_assignment: Dict[str, List[int]] = field(default_factory=dict)
    unsupported_logical_gates: List[str] = field(default_factory=list)

    @property
    def overhead_factor(self) -> float:
        """Physical qubits per logical qubit actually used."""
        return self.total_physical_qubits / max(1, self.logical_qubits)


@dataclass
class QECCycleResult:
    """One executed memory experiment on the stabilizer engine.

    ``logical_error_rate`` is the fraction of (shot, patch) instances whose
    majority-vote-decoded data readout differs from the encoded logical 0;
    ``predicted_logical_error_rate`` is the closed-form anchor (exact for
    code-capacity runs, ``None`` for circuit-level runs where no closed form
    applies).
    """

    distance: int
    rounds: int
    patches: int
    num_qubits: int
    shots: int
    physical_error_rate: float
    logical_failures: int
    logical_error_rate: float
    predicted_logical_error_rate: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)


def repetition_code_circuit(distance: int, rounds: int = 1, patches: int = 1) -> Circuit:
    """Bit-flip repetition-code memory circuit (circuit-level cycles).

    Each of the *patches* independent patches uses ``d`` data qubits plus
    ``d - 1`` syndrome ancillas (``2 d - 1`` physical qubits per patch — four
    distance-7 patches cross the 50-qubit line).  Every round extracts each
    neighbouring-pair ZZ parity with two CX gates into a fresh ancilla,
    measures and resets it; after the last round every data qubit is read
    out.  Clbit layout per patch: ``rounds * (d - 1)`` syndrome bits (round
    major, ancilla minor) followed by the ``d`` data bits.  All gates are
    Clifford, so the circuit runs on the stabilizer engine at any width.
    """
    if distance < 3 or distance % 2 == 0:
        raise ServiceError("repetition-code distance must be an odd integer >= 3")
    if rounds < 1 or patches < 1:
        raise ServiceError("rounds and patches must be >= 1")
    qubits_per_patch = 2 * distance - 1
    clbits_per_patch = rounds * (distance - 1) + distance
    circuit = Circuit(
        patches * qubits_per_patch,
        patches * clbits_per_patch,
        name=f"repetition_d{distance}_r{rounds}x{patches}",
    )
    for patch in range(patches):
        q0 = patch * qubits_per_patch
        _append_repetition_rounds(
            circuit,
            [q0 + j for j in range(distance)],
            [q0 + distance + j for j in range(distance - 1)],
            rounds,
            patch * clbits_per_patch,
        )
    return circuit


def code_capacity_repetition_circuit(distance: int, patches: int = 1) -> Circuit:
    """Code-capacity repetition-code probe: one noisy ``id`` per data qubit.

    No ancillas and no mid-circuit measurement — each patch is ``d`` data
    qubits that suffer exactly one depolarizing opportunity (the simulator
    attaches its per-gate channel to the ``id``) and are then read out.
    The decoded logical error rate of this circuit follows the
    :class:`RepetitionCodeModel` binomial tail *exactly*, which is what the
    tight statistical regression tests assert.  Clbit layout per patch: the
    ``d`` data bits.
    """
    if distance < 3 or distance % 2 == 0:
        raise ServiceError("repetition-code distance must be an odd integer >= 3")
    if patches < 1:
        raise ServiceError("patches must be >= 1")
    circuit = Circuit(
        patches * distance,
        patches * distance,
        name=f"repetition_cc_d{distance}x{patches}",
    )
    for patch in range(patches):
        for j in range(distance):
            qubit = patch * distance + j
            circuit.append("id", [qubit])
            circuit.measure(qubit, qubit)
    return circuit


def surface_code_stabilizers(distance: int) -> List[tuple]:
    """The ``d^2 - 1`` stabilizers of a rotated distance-d surface code.

    Returns ``(kind, data_qubits)`` tuples with ``kind`` in ``("x", "z")``
    and data qubit ``(row, col)`` mapped to index ``row * d + col``.  Bulk
    plaquettes anchored at ``(r, c)`` (``r, c`` in ``0..d-2``) act on their
    four corners and are X-type when ``r + c`` is even; the checkerboard
    extends to weight-2 boundary stabilizers (X-type on the top/bottom rows,
    Z-type on the left/right columns), giving ``(d^2 - 1) / 2`` of each type.
    """
    if distance < 3 or distance % 2 == 0:
        raise ServiceError("surface-code distance must be an odd integer >= 3")
    d = distance
    stabilizers: List[tuple] = []
    for r in range(d - 1):
        for c in range(d - 1):
            corners = [r * d + c, r * d + c + 1, (r + 1) * d + c, (r + 1) * d + c + 1]
            stabilizers.append(("x" if (r + c) % 2 == 0 else "z", corners))
    for c in range(d - 1):
        if c % 2 == 1:  # virtual row -1: X-type where (-1 + c) is even
            stabilizers.append(("x", [c, c + 1]))
        if (d - 1 + c) % 2 == 0:  # virtual row d-1 below the lattice
            stabilizers.append(("x", [(d - 1) * d + c, (d - 1) * d + c + 1]))
    for r in range(d - 1):
        if r % 2 == 0:  # virtual column -1: Z-type where (r - 1) is odd
            stabilizers.append(("z", [r * d, (r + 1) * d]))
        if (r + d - 1) % 2 == 1:  # virtual column d-1 right of the lattice
            stabilizers.append(("z", [r * d + d - 1, (r + 1) * d + d - 1]))
    if len(stabilizers) != d * d - 1:  # pragma: no cover - layout invariant
        raise ServiceError(
            f"surface-code layout produced {len(stabilizers)} stabilizers, "
            f"expected {d * d - 1}"
        )
    return stabilizers


def surface_code_cycle_circuit(distance: int, rounds: int = 1) -> Circuit:
    """Rotated surface-code syndrome-extraction cycles (``2 d^2 - 1`` qubits).

    Data qubits ``0 .. d^2 - 1`` (row-major), one ancilla per stabilizer at
    ``d^2 + s``.  Each round measures every Z-type stabilizer with CX gates
    into its ancilla and every X-type stabilizer through the standard
    H-conjugated circuit, then measures and resets the ancilla; after the
    last round the data qubits are read out in the Z basis.  Clbit layout:
    ``rounds * (d^2 - 1)`` syndrome bits (round major, stabilizer minor)
    followed by the ``d^2`` data bits.  Distance 13 reaches 337 physical
    qubits; the stabilizer engine executes it in well under a second.
    """
    if rounds < 1:
        raise ServiceError("rounds must be >= 1")
    stabilizers = surface_code_stabilizers(distance)
    d = distance
    num_stab = len(stabilizers)
    circuit = Circuit(
        d * d + num_stab,
        rounds * num_stab + d * d,
        name=f"surface_d{distance}_r{rounds}",
    )
    for rnd in range(rounds):
        for s, (kind, data) in enumerate(stabilizers):
            ancilla = d * d + s
            if kind == "x":
                circuit.h(ancilla)
                for qubit in data:
                    circuit.cx(ancilla, qubit)
                circuit.h(ancilla)
            else:
                for qubit in data:
                    circuit.cx(qubit, ancilla)
            circuit.measure(ancilla, rnd * num_stab + s)
            circuit.reset(ancilla)
    for j in range(d * d):
        circuit.measure(j, rounds * num_stab + j)
    return circuit


# Logical gates each rep_kind needs from the fault-tolerant gate set.
_REQUIRED_LOGICAL_GATES: Dict[str, List[str]] = {
    "PREP_UNIFORM": ["H"],
    "PREP_BASIS_STATE": ["X"],
    "PREP_ANGLE": ["RY"],
    "QFT_TEMPLATE": ["H", "S", "T", "CNOT"],
    "ISING_COST_PHASE": ["CNOT", "RZ"],
    "MIXER_RX": ["RX"],
    "ISING_EVOLUTION": ["CNOT", "RZ"],
    "ADDER_TEMPLATE": ["H", "S", "T", "CNOT"],
    "CONTROLLED_PHASE": ["CNOT", "T"],
    "SWAP_TEST": ["H", "CNOT"],
    "CSWAP_TEMPLATE": ["CNOT", "T", "H"],
    "MEASUREMENT": ["MEASURE_Z"],
}

# Gates that a Clifford+T logical set can synthesise (rotations via T-count).
_SYNTHESISABLE_WITH_T = {"RZ", "RX", "RY"}


class QECService:
    """Bind a QEC policy to a bundle and report the fault-tolerant resources."""

    def __init__(self, model: Optional[SurfaceCodeModel] = None):
        self.model = model or SurfaceCodeModel()

    def plan(self, bundle: JobBundle, policy: Optional[QECPolicy] = None) -> QECPlan:
        """Resource plan for executing *bundle* under *policy* (or the bundle's own)."""
        if policy is None:
            if bundle.context is None or bundle.context.qec is None:
                raise ServiceError("no QEC policy supplied and the bundle context has none")
            policy = bundle.context.qec
        if policy.code_family != "surface":
            raise ServiceError(
                f"the reference QEC service models the surface code, not {policy.code_family!r}"
            )

        logical_qubits = bundle.total_width
        per_logical = self.model.physical_qubits_per_logical(policy.distance)
        total_physical = logical_qubits * per_logical

        total_cost = bundle.operators.total_cost()
        logical_depth = max(1, int(math.ceil(total_cost.get("depth", 1.0))))
        syndrome_rounds = logical_depth * policy.distance

        per_round = self.model.logical_error_rate(policy.distance, policy.physical_error_rate)
        # Union bound over patches and rounds.
        exponent = logical_qubits * syndrome_rounds
        failure = 1.0 - (1.0 - per_round) ** exponent

        execution_time_us = syndrome_rounds * policy.cycle_time_ns / 1000.0

        patch_assignment: Dict[str, List[int]] = {}
        next_patch = 0
        for register_id, qdt in bundle.qdts.items():
            patch_assignment[register_id] = list(range(next_patch, next_patch + qdt.width))
            next_patch += qdt.width

        unsupported = self._unsupported_gates(bundle.operators, policy)

        return QECPlan(
            policy=policy,
            logical_qubits=logical_qubits,
            physical_qubits_per_logical=per_logical,
            total_physical_qubits=total_physical,
            logical_depth=logical_depth,
            syndrome_rounds=syndrome_rounds,
            execution_time_us=execution_time_us,
            logical_error_rate_per_round=per_round,
            failure_probability=failure,
            patch_assignment=patch_assignment,
            unsupported_logical_gates=unsupported,
        )

    def _unsupported_gates(
        self, operators: Iterable[QuantumOperatorDescriptor], policy: QECPolicy
    ) -> List[str]:
        available = {g.upper() for g in policy.logical_gate_set}
        can_synthesise_rotations = "T" in available and "H" in available
        unsupported: List[str] = []
        for op in operators:
            for gate in _REQUIRED_LOGICAL_GATES.get(op.rep_kind, []):
                gate = gate.upper()
                if gate in available:
                    continue
                if gate in _SYNTHESISABLE_WITH_T and can_synthesise_rotations:
                    continue
                if gate == "CNOT" and "CX" in available:
                    continue
                if gate not in unsupported:
                    unsupported.append(gate)
        return sorted(unsupported)

    def run_repetition_memory(
        self,
        distance: int,
        *,
        physical_error_rate: float,
        rounds: int = 1,
        patches: int = 1,
        shots: int = 1024,
        seed: Optional[int] = None,
        code_capacity: bool = False,
        trajectory_workers: int = 1,
    ) -> QECCycleResult:
        """Execute a repetition-code memory experiment on the stabilizer engine.

        Builds the cycle circuit (:func:`repetition_code_circuit`, or the
        single-error-opportunity :func:`code_capacity_repetition_circuit`
        when *code_capacity* is true), runs it with a depolarizing
        :class:`~repro.simulators.gate.noise.NoiseModel` of strength
        *physical_error_rate* on ``trajectory_engine="stabilizer"``, and
        majority-vote decodes each patch's final data readout against the
        encoded logical 0.  Majority vote is exact minimum-weight decoding
        for the repetition code, so in code-capacity mode the measured rate
        converges on :class:`RepetitionCodeModel`'s closed form (stamped in
        ``predicted_logical_error_rate``); circuit-level rounds have no
        closed form and are validated by their monotone decrease with
        distance.  Seeded runs are deterministic, and *trajectory_workers*
        never changes the sampled counts.
        """
        if shots < 1:
            raise ServiceError("shots must be >= 1")
        if code_capacity:
            if rounds != 1:
                raise ServiceError("code-capacity mode has no syndrome rounds")
            circuit = code_capacity_repetition_circuit(distance, patches)
            predicted: Optional[float] = RepetitionCodeModel().logical_error_rate(
                distance, physical_error_rate
            )
            data_offsets = [patch * distance for patch in range(patches)]
        else:
            circuit = repetition_code_circuit(distance, rounds, patches)
            predicted = None
            clbits_per_patch = rounds * (distance - 1) + distance
            data_offsets = [
                patch * clbits_per_patch + rounds * (distance - 1)
                for patch in range(patches)
            ]
        noise = NoiseModel(
            oneq_error=physical_error_rate, twoq_error=physical_error_rate
        )
        simulator = StatevectorSimulator(
            noise_model=noise,
            trajectory_engine="stabilizer",
            trajectory_workers=trajectory_workers,
        )
        result = simulator.run(circuit, shots=shots, seed=seed)
        failures = 0
        for key, multiplicity in result.counts.items():
            for offset in data_offsets:
                ones = key[offset : offset + distance].count("1")
                if ones > distance // 2:
                    failures += multiplicity
        return QECCycleResult(
            distance=distance,
            rounds=rounds,
            patches=patches,
            num_qubits=circuit.num_qubits,
            shots=shots,
            physical_error_rate=physical_error_rate,
            logical_failures=failures,
            logical_error_rate=failures / (shots * patches),
            predicted_logical_error_rate=predicted,
            metadata=dict(result.metadata),
        )

    def compare_distances(
        self, bundle: JobBundle, distances: Iterable[int], *, physical_error_rate: float = 1e-3
    ) -> List[QECPlan]:
        """Plans for several distances — the Listing-5 style sweep used in benchmarks."""
        plans = []
        for distance in distances:
            policy = QECPolicy(
                code_family="surface",
                distance=distance,
                physical_error_rate=physical_error_rate,
            )
            plans.append(self.plan(bundle, policy))
        return plans
