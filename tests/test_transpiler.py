"""Tests for the transpiler: decomposition, layout, routing, optimisation, passes."""

import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from repro.core import TranspilerError
from repro.simulators.gate import Circuit, circuit_unitary, equal_up_to_global_phase, transpile
from repro.simulators.gate.transpiler import (
    Layout,
    cancel_inverse_pairs,
    decompose_to_basis,
    greedy_layout,
    merge_rotations,
    optimize_circuit,
    remove_identities,
    route_circuit,
    transpile_cached,
    trivial_layout,
    zyz_angles,
)
from repro.simulators.gate.transpiler.decompose import decompose_1q_matrix
from repro.simulators.gate.gates import gate_matrix


def qft_circuit(n, measured=False):
    circuit = Circuit(n, n if measured else 0)
    for i in range(n):
        circuit.h(i)
        for j in range(i + 1, n):
            circuit.cp(math.pi / 2 ** (j - i), j, i)
    if measured:
        circuit.measure_all()
    return circuit


def test_zyz_angles_reconstruct():
    rng = np.random.default_rng(0)
    for _ in range(20):
        target = unitary_group.rvs(2, random_state=rng)
        theta, phi, lam, phase = zyz_angles(target)
        rebuilt = (
            np.exp(1j * phase)
            * gate_matrix("rz", [phi]) @ gate_matrix("ry", [theta]) @ gate_matrix("rz", [lam])
        )
        assert np.allclose(rebuilt, target, atol=1e-9)


@pytest.mark.parametrize("basis", [["rz", "sx", "cx"], ["rz", "ry", "cx"], ["u", "cx"]])
def test_1q_decomposition_bases(basis):
    rng = np.random.default_rng(1)
    for _ in range(5):
        target = unitary_group.rvs(2, random_state=rng)
        circuit = Circuit(1)
        for inst in decompose_1q_matrix(target, 0, basis):
            circuit.append(inst.name, inst.qubits, inst.params)
        assert equal_up_to_global_phase(circuit_unitary(circuit), target)


@pytest.mark.parametrize(
    "name,qubits,params",
    [
        ("cz", 2, ()), ("cy", 2, ()), ("ch", 2, ()), ("cp", 2, (0.7,)), ("crx", 2, (1.1,)),
        ("cry", 2, (0.3,)), ("crz", 2, (0.9,)), ("swap", 2, ()), ("iswap", 2, ()),
        ("rzz", 2, (0.5,)), ("rxx", 2, (0.8,)), ("ryy", 2, (1.3,)),
        ("ccx", 3, ()), ("ccz", 3, ()), ("cswap", 3, ()),
    ],
)
def test_multi_qubit_expansion_preserves_unitary(name, qubits, params):
    circuit = Circuit(qubits)
    circuit.append(name, list(range(qubits)), params)
    decomposed = decompose_to_basis(circuit, ["cx", "rz", "sx"])
    assert equal_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(decomposed))
    assert all(inst.name in ("cx", "rz", "sx") for inst in decomposed if inst.is_gate)


def test_decompose_to_cz_only_basis():
    circuit = Circuit(2)
    circuit.cx(0, 1)
    decomposed = decompose_to_basis(circuit, ["cz", "rz", "sx"])
    assert equal_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(decomposed))
    assert "cx" not in decomposed.count_ops()


def test_decompose_requires_entangler():
    circuit = Circuit(2)
    circuit.cx(0, 1)
    with pytest.raises(TranspilerError):
        decompose_to_basis(circuit, ["rz", "sx"])


def test_layouts():
    layout = trivial_layout(3)
    assert layout.physical(2) == 2 and layout.logical(1) == 1
    coupling = [(0, 1), (1, 2), (2, 3), (3, 4)]
    greedy = greedy_layout(3, coupling)
    physical = set(greedy.physical_qubits())
    assert len(physical) == 3
    with pytest.raises(TranspilerError):
        greedy_layout(9, coupling)
    with pytest.raises(TranspilerError):
        Layout({0: 1, 1: 1})


def test_layout_swap_tracking():
    layout = trivial_layout(2)
    layout.swap_physical(0, 1)
    assert layout.physical(0) == 1 and layout.physical(1) == 0


def test_routing_inserts_swaps_on_a_line():
    circuit = Circuit(3)
    circuit.cx(0, 2)  # not adjacent on a line 0-1-2
    result = route_circuit(circuit, [(0, 1), (1, 2)])
    assert result.num_swaps_inserted == 1
    ops = result.circuit.count_ops()
    assert ops.get("swap", 0) == 1 and ops.get("cx", 0) == 1


def test_routing_all_to_all_is_identity():
    circuit = Circuit(3)
    circuit.cx(0, 2)
    result = route_circuit(circuit, None)
    assert result.num_swaps_inserted == 0
    assert result.circuit.count_ops() == {"cx": 1}


def test_routing_disconnected_rejected():
    circuit = Circuit(4)
    circuit.cx(0, 3)
    with pytest.raises(TranspilerError):
        route_circuit(circuit, [(0, 1), (2, 3)])


def test_routing_preserves_semantics_of_measured_ghz():
    from repro.simulators.gate import StatevectorSimulator

    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 2).cx(0, 1).measure_all()
    result = transpile(circuit, coupling_map=[(0, 1), (1, 2)], basis_gates=["sx", "rz", "cx"])
    counts = StatevectorSimulator().run(result.circuit, shots=2000, seed=0).counts
    assert set(counts) == {"000", "111"}


def test_remove_identities_and_merge_rotations():
    circuit = Circuit(1)
    circuit.id(0).rz(0.3, 0).rz(0.4, 0).rz(-0.7, 0)
    optimized = merge_rotations(remove_identities(circuit))
    assert len(optimized.instructions) == 0  # angles cancel to a multiple of 2pi


def test_cancel_inverse_pairs():
    circuit = Circuit(2)
    circuit.h(0).h(0).cx(0, 1).cx(0, 1).x(1)
    cancelled = cancel_inverse_pairs(circuit)
    assert cancelled.count_ops() == {"x": 1}


def test_cancel_does_not_cross_blocking_ops():
    circuit = Circuit(2)
    circuit.cx(0, 1).h(1).cx(0, 1)
    cancelled = cancel_inverse_pairs(circuit)
    assert cancelled.count_ops().get("cx", 0) == 2


def test_optimize_preserves_unitary():
    circuit = qft_circuit(3)
    circuit.h(0).h(0)
    optimized = optimize_circuit(circuit)
    assert equal_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(optimized))
    assert len(optimized.instructions) < len(circuit.instructions)


def test_transpile_constrained_vs_unconstrained_costs():
    circuit = qft_circuit(4, measured=True)
    unconstrained = transpile(circuit, basis_gates=["sx", "rz", "cx"], optimization_level=2)
    constrained = transpile(
        circuit,
        basis_gates=["sx", "rz", "cx"],
        coupling_map=[(0, 1), (1, 2), (2, 3)],
        optimization_level=2,
    )
    # Restricting connectivity must cost extra two-qubit gates (Listing 4 effect).
    assert constrained.metrics["twoq"] > unconstrained.metrics["twoq"]
    assert constrained.num_swaps_inserted > 0
    for inst in constrained.circuit:
        if inst.is_gate and inst.name != "barrier":
            assert inst.name in ("sx", "rz", "cx")


def test_transpile_preserves_unitary_without_coupling():
    circuit = qft_circuit(3)
    result = transpile(circuit, basis_gates=["sx", "rz", "cx"], optimization_level=2)
    assert equal_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(result.circuit))


def qaoa_bundle(optimization_level):
    from repro.problems import MaxCutProblem
    from repro.workflows import build_qaoa_bundle

    bundle = build_qaoa_bundle(MaxCutProblem.cycle(4))
    bundle.context.exec.options["optimization_level"] = optimization_level
    return bundle


def test_transpile_rejects_bad_level():
    from repro.backends import submit

    with pytest.raises(TranspilerError):
        transpile(Circuit(1), optimization_level=9)
    # One check behind both entry points, and the backend passes the option
    # through unconverted, so every bad value is the same typed error.
    message = "optimization_level must be an int from 0 to 3"
    for level in (2.7, True, "2", "high", None, 7):
        with pytest.raises(TranspilerError, match=message):
            transpile(Circuit(1), optimization_level=level)
        with pytest.raises(TranspilerError, match=message):
            transpile_cached(Circuit(1), optimization_level=level)
        with pytest.raises(TranspilerError, match=message):
            submit(qaoa_bundle(level))


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_optimization_levels_reach_the_transpiler(level):
    from repro.backends import GateBackend, submit
    from repro.simulators.gate import StatevectorSimulator

    bundle = qaoa_bundle(level)
    result = submit(bundle)
    circuit, _ = GateBackend().build_circuit(bundle)
    target = bundle.context.exec.target
    expected = transpile(
        circuit,
        basis_gates=list(target.basis_gates),
        coupling_map=list(target.coupling_map),
        optimization_level=level,
    )
    assert expected.circuit.metadata["optimization_level"] == level
    assert result.metadata["transpile_metrics"] == expected.metrics
    exec_policy = bundle.context.exec
    direct = StatevectorSimulator().run(
        expected.circuit, shots=exec_policy.samples, seed=exec_policy.seed
    )
    assert dict(result.counts) == dict(direct.counts)


def test_transpile_cached_takes_no_initial_layout():
    # A caller with an explicit layout calls transpile(); the cache has one path.
    circuit = qft_circuit(3)
    layout = trivial_layout(circuit.num_qubits)
    with pytest.raises(TypeError):
        transpile_cached(circuit, initial_layout=layout)
    assert transpile(circuit, initial_layout=layout).initial_layout.to_dict() == layout.to_dict()
