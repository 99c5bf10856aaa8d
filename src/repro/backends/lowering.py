"""Realization hooks: lowering operator descriptors to gate circuits.

This module is the gate backend's half of the paper's "realization hooks ...
rules that lower a quantum operator descriptor to a target-specific form"
(Section 4.4).  Each rule maps one ``rep_kind`` to gates appended onto a
:class:`~repro.simulators.gate.circuit.Circuit`, given the register-to-qubit
allocation chosen by the backend.

Rules are registered in :data:`GATE_LOWERING_RULES`; a backend advertises
exactly the kinds it has rules for, so capability mismatches surface at
validation time instead of producing wrong circuits.

A program states its intent once and changes only its context from run to
run, so the backend lowers each distinct intent once: the lowering memo
keys a bundle's lowered ``(circuit, allocation)`` pair on the content of its
registers and operators (:func:`lowering_cache_info`,
:func:`clear_lowering_cache`).  The rules registry and the gate library
invalidate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.bundle import JobBundle
from ..core.errors import LoweringError
from ..core.qdt import BitOrder, QuantumDataType
from ..core.qod import QuantumOperatorDescriptor
from ..core.result_schema import ClbitRef
from ..core.serialization import digest
from ..simulators.gate.circuit import Circuit
from ..simulators.gate.gates import register_cache_invalidation_hook
from ..simulators.gate.lru import DEFAULT_CACHE_SIZE, BoundedLRU

__all__ = [
    "QubitAllocation", "GATE_LOWERING_RULES", "register_gate_lowering", "lower_operator",
    "lowering_cache_info", "clear_lowering_cache",
]


@dataclass
class QubitAllocation:
    """Assignment of register carriers to circuit qubits and clbits.

    ``qubit_of(register, carrier)`` is the only lookup the rules need; the
    backend builds the allocation once per bundle (contiguous blocks in
    declaration order).
    """

    qubit_map: Dict[str, List[int]]
    clbit_offsets: Dict[str, int]
    num_qubits: int
    num_clbits: int

    def qubit_of(self, register_id: str, carrier: int) -> int:
        """Physical qubit index of one carrier of a register."""
        try:
            carriers = self.qubit_map[register_id]
        except KeyError:
            raise LoweringError(f"register {register_id!r} has no qubit allocation") from None
        if not 0 <= carrier < len(carriers):
            raise LoweringError(
                f"carrier index {carrier} out of range for register {register_id!r}"
            )
        return carriers[carrier]

    def qubits_of(self, register_id: str) -> List[int]:
        """All physical qubit indices of a register, in carrier order."""
        return list(self.qubit_map[register_id])


LoweringRule = Callable[
    [QuantumOperatorDescriptor, Mapping[str, QuantumDataType], QubitAllocation, Circuit, int],
    None,
]

GATE_LOWERING_RULES: Dict[str, LoweringRule] = {}

#: Lowered ``(circuit, allocation)`` pairs keyed on intent content.  Entries
#: are private copies: no caller shares anything mutable with the memo.
_LOWERING_CACHE = BoundedLRU(DEFAULT_CACHE_SIZE)


def register_gate_lowering(rep_kind: str, rule: LoweringRule, *, replace: bool = False) -> None:
    """Register a lowering rule for *rep_kind* on the gate path.

    Empties the lowering memo: its entries were lowered by the old rules.
    """
    if rep_kind in GATE_LOWERING_RULES and not replace:
        raise LoweringError(f"gate lowering for {rep_kind!r} already registered")
    GATE_LOWERING_RULES[rep_kind] = rule
    clear_lowering_cache()


def _intent_key(bundle: JobBundle) -> str:
    """Digest of everything lowering reads from *bundle*.

    The registers in declaration order (the allocation is contiguous in that
    order, and rules look registers up by map key), the operators in order,
    and each operator's registry ``measures`` flag, which allocation reads
    and ``job.json`` does not hold.  Context, name, provenance and metadata
    are left out: lowering reads none of them.
    """
    return digest(
        [
            [[register_id, qdt.to_dict()] for register_id, qdt in bundle.qdts.items()],
            bundle.operators.to_list(),
            [op.info.measures for op in bundle.operators],
        ]
    )


def _private_copy(
    circuit: Circuit, allocation: QubitAllocation, name: str
) -> Tuple[Circuit, QubitAllocation]:
    """A copy of a lowered pair that shares nothing mutable, named *name*."""
    out = circuit.copy()
    out.name = name
    return out, QubitAllocation(
        qubit_map={register: list(qubits) for register, qubits in allocation.qubit_map.items()},
        clbit_offsets=dict(allocation.clbit_offsets),
        num_qubits=allocation.num_qubits,
        num_clbits=allocation.num_clbits,
    )


def _lower_cached(
    bundle: JobBundle, lower: Callable[[JobBundle], Tuple[Circuit, QubitAllocation]]
) -> Tuple[Circuit, QubitAllocation]:
    """``lower(bundle)``, once per distinct intent.

    A hit returns a private copy of the stored pair, named after *bundle*.
    A miss lowers, stores a private copy and returns the original; a
    lowering that raises stores nothing.
    """
    key = _intent_key(bundle)
    entry = _LOWERING_CACHE.lookup(key)
    if entry is not None:
        return _private_copy(*entry, bundle.name)
    circuit, allocation = lower(bundle)
    _LOWERING_CACHE.store(key, _private_copy(circuit, allocation, circuit.name))
    return circuit, allocation


def lowering_cache_info() -> Dict[str, int]:
    """Counters of the lowering memo: ``hits``, ``misses``, ``entries``, ``maxsize``.

    The memo holds at most :data:`~repro.simulators.gate.lru.DEFAULT_CACHE_SIZE`
    lowered intents; the bound is fixed.
    """
    return _LOWERING_CACHE.info()


def clear_lowering_cache() -> None:
    """Empty the lowering memo and reset its counters.

    Runs automatically when :func:`register_gate_lowering` registers a rule
    and when :func:`~repro.simulators.gate.gates.register_gate` (re)defines
    a gate, because ``Circuit.append`` checks arity against the gate library.
    """
    _LOWERING_CACHE.clear()


register_cache_invalidation_hook(clear_lowering_cache)


def lower_operator(
    op: QuantumOperatorDescriptor,
    qdts: Mapping[str, QuantumDataType],
    allocation: QubitAllocation,
    circuit: Circuit,
    clbit_offset: int = 0,
) -> None:
    """Append the realization of *op* to *circuit*."""
    rule = GATE_LOWERING_RULES.get(op.rep_kind)
    if rule is None:
        raise LoweringError(
            f"the gate path has no realization rule for rep_kind {op.rep_kind!r}"
        )
    rule(op, qdts, allocation, circuit, clbit_offset)


# -- helpers -----------------------------------------------------------------------

def _register_qubits_msb_first(qdt: QuantumDataType, allocation: QubitAllocation) -> List[int]:
    """Circuit qubits of *qdt* ordered from most- to least-significant carrier."""
    carriers = list(range(qdt.width))
    if qdt.bit_order is BitOrder.LSB_0:
        carriers = carriers[::-1]
    return [allocation.qubit_of(qdt.id, c) for c in carriers]


def _primary(op, qdts) -> QuantumDataType:
    return qdts[op.primary_register]


# -- state preparation ------------------------------------------------------------------

def _lower_prep_uniform(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    for carrier in range(qdt.width):
        circuit.h(allocation.qubit_of(qdt.id, carrier))


def _lower_prep_basis_state(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    bits = op.params.get("bits")
    if bits is None:
        bits = qdt.encode_value(op.params["value"])
    for carrier, bit in enumerate(bits):
        if bit == "1":
            circuit.x(allocation.qubit_of(qdt.id, carrier))


def _lower_prep_angle(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    angles = op.params["angles"]
    for carrier, angle in enumerate(angles):
        circuit.ry(float(angle), allocation.qubit_of(qdt.id, carrier))


def _lower_prep_amplitude(op, qdts, allocation, circuit, clbit_offset):
    """Amplitude encoding via pattern-controlled RY rotations.

    The reference gate path supports real, non-negative amplitude vectors on
    registers of width <= 3 (at most two controls, realisable with the gate
    library's ``cry``/``ccx``).  Wider or complex vectors raise a
    :class:`LoweringError`; the descriptor itself remains valid and other
    backends may support it.
    """
    qdt = _primary(op, qdts)
    raw = op.params["amplitudes"]
    vector = np.array([complex(re, im) for re, im in raw])
    if np.any(np.abs(vector.imag) > 1e-12) or np.any(vector.real < -1e-12):
        raise LoweringError(
            "the reference gate path only lowers real, non-negative amplitude vectors"
        )
    if qdt.width > 3:
        raise LoweringError(
            "the reference gate path lowers PREP_AMPLITUDE only for width <= 3 registers"
        )
    values = np.clip(vector.real, 0.0, None)
    # Tensor indexed by carrier bits (carrier 0 first).
    tensor = np.zeros((2,) * qdt.width)
    for index, amplitude in enumerate(values):
        bits = qdt.index_to_bits(index)
        tensor[tuple(int(c) for c in bits)] = amplitude

    def branch_norms(prefix: Tuple[int, ...], carrier: int) -> Tuple[float, float]:
        sub = tensor[prefix]
        zero = float(np.sqrt(np.sum(np.square(sub[0]))))
        one = float(np.sqrt(np.sum(np.square(sub[1]))))
        return zero, one

    def controlled_ry(theta: float, controls: List[Tuple[int, int]], target: int) -> None:
        if abs(theta) < 1e-12:
            return
        flip = [q for q, v in controls if v == 0]
        for q in flip:
            circuit.x(q)
        control_qubits = [q for q, _ in controls]
        if not control_qubits:
            circuit.ry(theta, target)
        elif len(control_qubits) == 1:
            circuit.cry(theta, control_qubits[0], target)
        else:  # two controls: standard doubly-controlled rotation decomposition
            a, b = control_qubits
            circuit.cry(theta / 2, b, target)
            circuit.cx(a, b)
            circuit.cry(-theta / 2, b, target)
            circuit.cx(a, b)
            circuit.cry(theta / 2, a, target)
        for q in flip:
            circuit.x(q)

    for carrier in range(qdt.width):
        qubit = allocation.qubit_of(qdt.id, carrier)
        control_carriers = list(range(carrier))
        for pattern in range(1 << carrier):
            prefix = tuple((pattern >> c) & 1 for c in control_carriers)
            zero, one = branch_norms(prefix, carrier)
            if zero == 0.0 and one == 0.0:
                continue
            theta = 2.0 * math.atan2(one, zero)
            controls = [
                (allocation.qubit_of(qdt.id, c), prefix[idx])
                for idx, c in enumerate(control_carriers)
            ]
            controlled_ry(theta, controls, qubit)


# -- transforms -----------------------------------------------------------------------------

def _qft_gates(circuit: Circuit, qubits_msb_first: List[int], approx_degree: int, do_swaps: bool):
    """Textbook QFT on qubits given most-significant first."""
    n = len(qubits_msb_first)
    for i in range(n):
        target = qubits_msb_first[i]
        circuit.h(target)
        for j in range(i + 1, n):
            distance = j - i
            if approx_degree and distance > n - 1 - approx_degree:
                continue
            angle = math.pi / (2 ** distance)
            circuit.cp(angle, qubits_msb_first[j], target)
    if do_swaps:
        for i in range(n // 2):
            circuit.swap(qubits_msb_first[i], qubits_msb_first[n - 1 - i])


def _lower_qft(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    qubits = _register_qubits_msb_first(qdt, allocation)
    approx = int(op.params.get("approx_degree", 0))
    do_swaps = bool(op.params.get("do_swaps", True))
    inverse = bool(op.params.get("inverse", False))
    if not inverse:
        _qft_gates(circuit, qubits, approx, do_swaps)
        return
    # Build the forward transform on a scratch circuit and append its inverse.
    scratch = Circuit(circuit.num_qubits)
    _qft_gates(scratch, qubits, approx, do_swaps)
    circuit.compose(scratch.inverse())


def _lower_ising_cost_phase(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    gamma = op.params.get("gamma")
    if gamma is None:
        raise LoweringError(
            f"operator {op.name!r}: QAOA angle gamma is unbound; bind parameters before execution"
        )
    sign = -1.0 if op.params.get("inverse", False) else 1.0
    gamma = float(gamma) * sign
    edges = op.params.get("edges") or []
    weights = op.params.get("weights") or [1.0] * len(edges)
    h = op.params.get("h") or [0.0] * qdt.width
    for (i, j), w in zip(edges, weights):
        circuit.rzz(
            2.0 * gamma * float(w),
            allocation.qubit_of(qdt.id, int(i)),
            allocation.qubit_of(qdt.id, int(j)),
        )
    for carrier, bias in enumerate(h):
        if abs(float(bias)) > 0:
            circuit.rz(2.0 * gamma * float(bias), allocation.qubit_of(qdt.id, carrier))


def _lower_mixer_rx(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    beta = op.params.get("beta")
    if beta is None:
        raise LoweringError(
            f"operator {op.name!r}: QAOA angle beta is unbound; bind parameters before execution"
        )
    sign = -1.0 if op.params.get("inverse", False) else 1.0
    for carrier in range(qdt.width):
        circuit.rx(2.0 * float(beta) * sign, allocation.qubit_of(qdt.id, carrier))


def _lower_ising_evolution(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    time = float(op.params["time"])
    steps = max(1, int(op.params.get("trotter_steps", 1)))
    step_op = op.with_params(gamma=time / steps)
    for _ in range(steps):
        _lower_ising_cost_phase(step_op, qdts, allocation, circuit, clbit_offset)


def _lower_controlled_phase(op, qdts, allocation, circuit, clbit_offset):
    control = ClbitRef.parse(op.params["control"])
    target = ClbitRef.parse(op.params["target"])
    circuit.cp(
        float(op.params["angle"]),
        allocation.qubit_of(control.register, control.index),
        allocation.qubit_of(target.register, target.index),
    )


# -- arithmetic --------------------------------------------------------------------------------

def _lower_adder(op, qdts, allocation, circuit, clbit_offset):
    """Draper (QFT-based) adder for a classical constant or a second register."""
    kind = op.params.get("kind", "classical_constant")
    if kind == "classical_constant":
        qdt = _primary(op, qdts)
        qubits_msb = _register_qubits_msb_first(qdt, allocation)
        n = qdt.width
        addend = int(op.params["addend"]) % (1 << n)
        _qft_gates(circuit, qubits_msb, 0, do_swaps=False)
        # After the swap-less QFT, the qubit at MSB-first position p carries the
        # phase e^{2*pi*i*x/2^(n-p)}; adding the constant a multiplies it by
        # e^{2*pi*i*a/2^(n-p)} = e^{2*pi*i*a*2^p/2^n}.
        for position, qubit in enumerate(qubits_msb):
            weight = 1 << position
            angle = 2.0 * math.pi * addend * weight / (1 << n)
            circuit.p(angle, qubit)
        scratch = Circuit(circuit.num_qubits)
        _qft_gates(scratch, qubits_msb, 0, do_swaps=False)
        circuit.compose(scratch.inverse())
        return
    if kind == "register":
        source = qdts[op.params["source"]]
        target = qdts[op.params["target"]]
        if source.width != target.width:
            raise LoweringError("register adder requires equal-width registers")
        n = target.width
        target_msb = _register_qubits_msb_first(target, allocation)
        _qft_gates(circuit, target_msb, 0, do_swaps=False)
        for t_pos, t_qubit in enumerate(target_msb):
            t_weight = 1 << t_pos
            for s_carrier in range(source.width):
                s_weight = (
                    1 << s_carrier
                    if source.bit_order is BitOrder.LSB_0
                    else 1 << (source.width - 1 - s_carrier)
                )
                angle = 2.0 * math.pi * t_weight * s_weight / (1 << n)
                # Angles that are multiples of 2*pi are identities.
                if abs((angle / (2 * math.pi)) % 1.0) < 1e-12:
                    continue
                circuit.cp(angle, allocation.qubit_of(source.id, s_carrier), t_qubit)
        scratch = Circuit(circuit.num_qubits)
        _qft_gates(scratch, target_msb, 0, do_swaps=False)
        circuit.compose(scratch.inverse())
        return
    raise LoweringError(f"unknown adder kind {kind!r}")


# -- boolean / gadgets ----------------------------------------------------------------------------

def _lower_cswap(op, qdts, allocation, circuit, clbit_offset):
    control = qdts[op.params["control"]]
    reg_a = qdts[op.params["a"]]
    reg_b = qdts[op.params["b"]]
    control_qubit = allocation.qubit_of(control.id, 0)
    for carrier in range(reg_a.width):
        circuit.cswap(
            control_qubit,
            allocation.qubit_of(reg_a.id, carrier),
            allocation.qubit_of(reg_b.id, carrier),
        )


def _lower_swap_test(op, qdts, allocation, circuit, clbit_offset):
    ancilla = qdts[op.params["ancilla"]]
    reg_a = qdts[op.params["a"]]
    reg_b = qdts[op.params["b"]]
    ancilla_qubit = allocation.qubit_of(ancilla.id, 0)
    circuit.h(ancilla_qubit)
    for carrier in range(reg_a.width):
        circuit.cswap(
            ancilla_qubit,
            allocation.qubit_of(reg_a.id, carrier),
            allocation.qubit_of(reg_b.id, carrier),
        )
    circuit.h(ancilla_qubit)
    _measure_schema(op, qdts, allocation, circuit, clbit_offset)


def _lower_qpe(op, qdts, allocation, circuit, clbit_offset):
    """Phase estimation when the nested unitary is a single-carrier phase gate."""
    nested = op.params.get("unitary", {})
    if nested.get("rep_kind") != "CONTROLLED_PHASE":
        raise LoweringError(
            "the reference gate path lowers QPE_TEMPLATE only for CONTROLLED_PHASE targets"
        )
    phase_qdt = qdts[op.params["phase_register"]]
    target_qdt = qdts[op.params["target_register"]]
    angle = float(nested["params"]["angle"])
    target_ref = ClbitRef.parse(nested["params"]["target"])
    target_qubit = allocation.qubit_of(target_qdt.id, target_ref.index)

    # Eigenstate |1> of the phase gate on the target carrier.
    circuit.x(target_qubit)
    for carrier in range(phase_qdt.width):
        circuit.h(allocation.qubit_of(phase_qdt.id, carrier))
    # The swap-less inverse QFT applied below expects carrier k (LSB_0 weight
    # 2^k) to hold the phase e^{2*pi*i*y/2^(k+1)}; controlled-U^(2^(n-1-k))
    # produces exactly that pattern for eigenphase y/2^n.
    for carrier in range(phase_qdt.width):
        if phase_qdt.bit_order is BitOrder.LSB_0:
            weight = 1 << (phase_qdt.width - 1 - carrier)
        else:
            weight = 1 << carrier
        circuit.cp(angle * weight, allocation.qubit_of(phase_qdt.id, carrier), target_qubit)
    # Inverse QFT (no swaps) on the phase register.
    qubits_msb = _register_qubits_msb_first(phase_qdt, allocation)
    scratch = Circuit(circuit.num_qubits)
    _qft_gates(scratch, qubits_msb, 0, do_swaps=False)
    circuit.compose(scratch.inverse())


# -- measurement / structural ---------------------------------------------------------------------

def _measure_schema(op, qdts, allocation, circuit, clbit_offset):
    schema = op.result_schema
    if schema is None:
        raise LoweringError(f"measuring operator {op.name!r} has no result schema")
    for clbit, ref in enumerate(schema.references()):
        qubit = allocation.qubit_of(ref.register, ref.index)
        if schema.basis == "X":
            circuit.h(qubit)
        elif schema.basis == "Y":
            circuit.sdg(qubit)
            circuit.h(qubit)
        circuit.measure(qubit, clbit_offset + clbit)


def _lower_measurement(op, qdts, allocation, circuit, clbit_offset):
    _measure_schema(op, qdts, allocation, circuit, clbit_offset)


def _append_repetition_rounds(circuit, data, ancilla, rounds, clbit_offset):
    """Append repetition-code memory cycles on one patch, then its data readout.

    Each round extracts every neighbouring-pair ZZ parity with two CX into a
    fresh ancilla (measure + reset); then the data qubits are read out.
    Clbits from *clbit_offset*: round-major syndrome bits, then data bits.
    The one loop behind :func:`_lower_repetition_memory` and
    :func:`repro.services.qec.repetition_code_circuit`; callers validate.
    """
    distance = len(data)
    for rnd in range(rounds):
        for j in range(distance - 1):
            circuit.cx(data[j], ancilla[j])
            circuit.cx(data[j + 1], ancilla[j])
            circuit.measure(ancilla[j], clbit_offset + rnd * (distance - 1) + j)
            circuit.reset(ancilla[j])
    for j in range(distance):
        circuit.measure(data[j], clbit_offset + rounds * (distance - 1) + j)


def _lower_repetition_memory(op, qdts, allocation, circuit, clbit_offset):
    """Repetition-code memory cycles on one patch register.

    Carriers ``0..d-1`` of the operator's register are data, ``d..2d-2``
    syndrome ancillas; :func:`_append_repetition_rounds` appends the rounds
    and the data readout.  Clbits follow the operator's result schema:
    round-major syndrome bits, then data bits.  All gates are Clifford.
    """
    qdt = _primary(op, qdts)
    distance = int(op.params["distance"])
    rounds = int(op.params.get("rounds", 1))
    if distance < 3 or distance % 2 == 0:
        raise LoweringError("repetition-code distance must be an odd integer >= 3")
    if rounds < 1:
        raise LoweringError("repetition memory needs rounds >= 1")
    if qdt.width != 2 * distance - 1:
        raise LoweringError(
            f"register {qdt.id!r} has width {qdt.width}; a distance-{distance} "
            f"patch needs {2 * distance - 1} carriers"
        )
    data = [allocation.qubit_of(qdt.id, j) for j in range(distance)]
    ancilla = [allocation.qubit_of(qdt.id, distance + j) for j in range(distance - 1)]
    _append_repetition_rounds(circuit, data, ancilla, rounds, clbit_offset)


def _lower_barrier(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    circuit.barrier(*allocation.qubits_of(qdt.id))


def _lower_identity(op, qdts, allocation, circuit, clbit_offset):
    return None


def _lower_reset(op, qdts, allocation, circuit, clbit_offset):
    qdt = _primary(op, qdts)
    for carrier in range(qdt.width):
        circuit.reset(allocation.qubit_of(qdt.id, carrier))


register_gate_lowering("PREP_UNIFORM", _lower_prep_uniform)
register_gate_lowering("PREP_BASIS_STATE", _lower_prep_basis_state)
register_gate_lowering("PREP_ANGLE", _lower_prep_angle)
register_gate_lowering("PREP_AMPLITUDE", _lower_prep_amplitude)
register_gate_lowering("QFT_TEMPLATE", _lower_qft)
register_gate_lowering("ISING_COST_PHASE", _lower_ising_cost_phase)
register_gate_lowering("MIXER_RX", _lower_mixer_rx)
register_gate_lowering("ISING_EVOLUTION", _lower_ising_evolution)
register_gate_lowering("CONTROLLED_PHASE", _lower_controlled_phase)
register_gate_lowering("ADDER_TEMPLATE", _lower_adder)
register_gate_lowering("CSWAP_TEMPLATE", _lower_cswap)
register_gate_lowering("SWAP_TEST", _lower_swap_test)
register_gate_lowering("QPE_TEMPLATE", _lower_qpe)
register_gate_lowering("MEASUREMENT", _lower_measurement)
register_gate_lowering("REPETITION_MEMORY", _lower_repetition_memory)
register_gate_lowering("BARRIER", _lower_barrier)
register_gate_lowering("IDENTITY", _lower_identity)
register_gate_lowering("RESET", _lower_reset)
