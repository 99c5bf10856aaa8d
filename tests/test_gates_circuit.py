"""Tests for the gate library and the circuit IR."""

import math

import numpy as np
import pytest

from repro.core import SimulationError
from repro.simulators.gate import Circuit, gate_matrix, get_gate, has_gate, list_gates
from repro.simulators.gate.gates import inverse_gate


def test_gate_library_contents():
    for name in ("h", "x", "cx", "sx", "rz", "cp", "swap", "ccx", "cswap", "rzz"):
        assert has_gate(name)
    assert not has_gate("warp_drive")
    assert len(list_gates()) >= 30


def test_gate_matrices_are_unitary():
    rng = np.random.default_rng(3)
    for name in list_gates():
        definition = get_gate(name)
        params = rng.uniform(0.1, 2.0, size=definition.num_params)
        matrix = definition.matrix(*params)
        dim = 2 ** definition.num_qubits
        assert matrix.shape == (dim, dim)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-12)


def test_cx_matrix_convention():
    # First argument (control) is the most significant bit of the matrix index.
    cx = gate_matrix("cx")
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.allclose(cx, expected)


def test_parametric_gate_identities():
    assert np.allclose(gate_matrix("rx", [0.0]), np.eye(2))
    assert np.allclose(gate_matrix("rz", [2 * math.pi]), -np.eye(2))
    assert np.allclose(gate_matrix("p", [math.pi]), np.diag([1, -1]))
    # sx squared equals X (up to global phase it IS equal)
    assert np.allclose(gate_matrix("sx") @ gate_matrix("sx"), gate_matrix("x"))


def test_wrong_param_count_rejected():
    with pytest.raises(SimulationError):
        gate_matrix("rx", [])
    with pytest.raises(SimulationError):
        gate_matrix("h", [0.1])


def test_inverse_gate_lookup():
    assert inverse_gate("h", ()) == ("h", ())
    assert inverse_gate("s", ()) == ("sdg", ())
    assert inverse_gate("rx", (0.5,)) == ("rx", (-0.5,))
    assert inverse_gate("u", (1.0, 2.0, 3.0)) == ("u", (-1.0, -3.0, -2.0))
    name, params = inverse_gate("cp", (0.7,))
    assert name == "cp" and params == (-0.7,)


def test_circuit_builder_and_counts():
    circuit = Circuit(3, 3, name="demo")
    circuit.h(0).cx(0, 1).rz(0.3, 2).measure_all()
    assert len(circuit) == 6
    ops = circuit.count_ops()
    assert ops == {"h": 1, "cx": 1, "rz": 1, "measure": 3}
    assert circuit.num_gates() == 3
    assert circuit.num_twoq_gates() == 1
    assert circuit.has_measurements()
    assert circuit.measurements_are_terminal()
    assert circuit.measurement_map() == {0: 0, 1: 1, 2: 2}


def test_circuit_depth():
    circuit = Circuit(2)
    circuit.h(0).h(1)  # parallel -> depth 1
    assert circuit.depth() == 1
    circuit.cx(0, 1)
    assert circuit.depth() == 2
    circuit.h(0)
    assert circuit.depth() == 3


def tuple_keyed_depth(circuit, include_measure=True):
    """The original ``Circuit.depth``: one dict keyed on ``("q", i)``/``("c", j)``."""
    levels = {}
    depth = 0
    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        if not include_measure and inst.name == "measure":
            continue
        wires = [("q", q) for q in inst.qubits] + [("c", c) for c in inst.clbits]
        level = 1 + max((levels.get(w, 0) for w in wires), default=0)
        for w in wires:
            levels[w] = level
        depth = max(depth, level)
    return depth


def random_depth_circuit(rng, num_qubits, num_clbits, length):
    """Gates, barriers, mid-circuit measurements (any clbit) and resets."""
    circuit = Circuit(num_qubits, num_clbits)
    for _ in range(length):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        if roll < 0.15:
            circuit.measure(qubit, int(rng.integers(num_clbits)))
        elif roll < 0.25:
            circuit.reset(qubit)
        elif roll < 0.35:
            circuit.barrier(*rng.choice(num_qubits, int(rng.integers(1, num_qubits + 1)), replace=False))
        elif roll < 0.7 and num_qubits > 1:
            a, b = rng.choice(num_qubits, 2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            circuit.h(qubit)
    return circuit


def test_depth_matches_tuple_keyed_oracle():
    rng = np.random.default_rng(314)
    circuits = [Circuit(3, 2)]
    circuits += [
        random_depth_circuit(rng, 1 + k % 6, 1 + k % 4, int(rng.integers(0, 60)))
        for k in range(200)
    ]
    for circuit in circuits:
        for include_measure in (True, False):
            assert circuit.depth(include_measure=include_measure) == tuple_keyed_depth(
                circuit, include_measure
            )
    assert circuits[0].depth() == 0


def test_circuit_validation_errors():
    circuit = Circuit(2, 1)
    with pytest.raises(SimulationError):
        circuit.h(5)
    with pytest.raises(SimulationError):
        circuit.cx(0, 0)
    with pytest.raises(SimulationError):
        circuit.append("rx", [0], [])  # missing parameter
    with pytest.raises(SimulationError):
        circuit.measure(0, 3)
    with pytest.raises(SimulationError):
        Circuit(0)


def _append_outcome(append, call):
    circuit = Circuit(3, 2)
    try:
        append(circuit, *call)
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    return circuit.instructions


def test_append_raises_like_the_old_body_in_the_same_order():
    from engine_testlib import old_circuit_append

    calls = [
        ("h", [0]),
        ("cx", (np.int64(2), 1.0)),
        ("rz", [1], [np.float32(0.25)], (), "lbl"),
        ("u", [2], (0.1, 0.2, 0.3)),
        ("measure", [1], (), [np.int64(1)]),
        ("barrier", [0, 1, 2]),
        ("barrier", []),
        ("reset", [0]),
        # duplicate qubits, alone and before range, clbit and arity faults
        ("cx", [1, 1]),
        ("cx", [5, 5]),
        ("barrier", [0, 0], (), [9]),
        # out-of-range qubits and clbits, qubits checked first
        ("h", [3]),
        ("h", [-1]),
        ("measure", [7], (), [7]),
        ("measure", [0], (), [2]),
        ("measure", [0], (), [-1]),
        ("cx", [0], (), [4]),
        # arity before parameter count, both after the wire checks
        ("cx", [0]),
        ("cx", [0, 1, 2], [0.5]),
        ("rx", [0], []),
        ("rx", [0], [0.1, 0.2]),
        ("u", [0], (0.1,)),
        ("h", [0], [0.1]),
        ("warp_drive", [0]),
        ("rx", [0], ["not a number"]),
        ("h", ["x"]),
    ]
    for call in calls:
        expected = _append_outcome(old_circuit_append, call)
        assert _append_outcome(Circuit.append, call) == expected, call


def test_non_terminal_measurement_detected():
    circuit = Circuit(1, 1)
    circuit.measure(0, 0)
    circuit.x(0)
    assert not circuit.measurements_are_terminal()


def test_compose_with_mapping():
    inner = Circuit(2)
    inner.h(0).cx(0, 1)
    outer = Circuit(3)
    outer.compose(inner, qubit_map=[2, 0])
    names = [(inst.name, inst.qubits) for inst in outer]
    assert names == [("h", (2,)), ("cx", (2, 0))]


def test_inverse_circuit():
    circuit = Circuit(2)
    circuit.h(0).s(1).cx(0, 1).rz(0.4, 1)
    inv = circuit.inverse()
    names = [(inst.name, inst.params) for inst in inv]
    assert names == [("rz", (-0.4,)), ("cx", ()), ("sdg", ()), ("h", ())]
    measured = Circuit(1, 1)
    measured.measure(0, 0)
    with pytest.raises(SimulationError):
        measured.inverse()


def test_remapped():
    circuit = Circuit(2, 1)
    circuit.cx(0, 1).measure(1, 0)
    remapped = circuit.remapped([3, 1], num_qubits=4)
    assert remapped.instructions[0].qubits == (3, 1)
    assert remapped.instructions[1].qubits == (1,)


def test_circuit_dict_round_trip():
    circuit = Circuit(2, 2)
    circuit.h(0).cp(0.3, 0, 1).measure_all()
    rebuilt = Circuit.from_dict(circuit.to_dict())
    assert rebuilt.to_dict() == circuit.to_dict()
