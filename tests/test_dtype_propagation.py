"""Regression tests pinning dtype propagation through the trajectory stack.

The ``trajectory_dtype=complex128`` audit (PR 3) verified that the batched
engine never silently downcasts: the state tensor, the scratch buffer and
every intermediate keep the constructor dtype through gates, kernels, fused
programs, noise events, measurement, reset and terminal sampling.  These tests
pin that behaviour (both directions — no downcast at ``complex128``, no
accidental upcast at ``complex64``) so a future kernel change cannot
reintroduce a cast without tripping the suite.
"""

import numpy as np
import pytest

from repro.simulators.gate import (
    BatchedStatevector,
    Circuit,
    NoiseModel,
    StatevectorSimulator,
)
from repro.simulators.gate.fusion import GateStep, compile_trajectory_program
from repro.simulators.gate.gates import ALL_GATE_NAMES, gate_matrix, get_gate

from engine_testlib import reference_trajectories


def noisy_workload(num_qubits=3):
    circuit = Circuit(num_qubits, num_qubits)
    circuit.h(0)
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    circuit.rx(0.4, 1)
    circuit.measure(1, 1)  # mid-circuit: forces MeasureStep
    circuit.reset(1)
    circuit.h(1)
    circuit.measure_all()
    return circuit


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_batched_tensor_dtype_survives_every_operation(dtype):
    rng = np.random.default_rng(0)
    state = BatchedStatevector(3, 16, dtype=dtype)
    expected = np.dtype(dtype)
    state.apply_gate("h", [0])  # dense 1q GEMM path
    assert state._tensor.dtype == expected and state._scratch.dtype == expected
    state.apply_gate("cx", [0, 1])  # sparse slice-kernel path
    assert state._tensor.dtype == expected
    state.apply_gate("rzz", [1, 2], [0.3])  # diagonal path
    assert state._tensor.dtype == expected
    state.apply_gate("u", [1], [0.1, 0.2, 0.3])
    state.apply_matrix(gate_matrix("crx", (0.5,)), [2, 1])  # adjacent dense 2q GEMM
    assert state._tensor.dtype == expected and state._scratch.dtype == expected
    state.measure(0, rng)
    assert state._tensor.dtype == expected
    state.reset(1, rng)
    assert state._tensor.dtype == expected
    state.sample_all(rng)
    assert state._tensor.dtype == expected


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_compiled_program_execution_keeps_engine_dtype(dtype):
    rng = np.random.default_rng(1)
    noise = NoiseModel(oneq_error=0.3, twoq_error=0.3)
    circuit = Circuit(3, 3)
    circuit.h(0).rz(0.2, 0).cx(0, 1).sx(2).cx(1, 2)
    program = compile_trajectory_program(circuit, noise)
    state = BatchedStatevector(3, 32, dtype=dtype)
    for step in program.steps:
        state.apply_matrix(step.matrix, step.qubits, plan=step.plan)
        if step.noise:
            state.apply_noise_events(step.noise, rng)
        assert state._tensor.dtype == np.dtype(dtype)


def test_compiled_matrices_accumulate_in_complex128():
    # Fused products and pushed noise operators must stay complex128 no matter
    # the engine dtype — precision is decided at application time, not
    # compilation time.
    noise = NoiseModel(oneq_error=0.1, twoq_error=0.1)
    circuit = Circuit(2, 2)
    circuit.h(0).rz(0.3, 0).sx(0).cx(0, 1).rz(0.1, 1)
    program = compile_trajectory_program(circuit, noise)
    for step in program.steps:
        assert isinstance(step, GateStep)
        assert step.matrix.dtype == np.complex128
        for event in step.noise:
            for matrix, _ in event.operators:
                assert matrix.dtype == np.complex128


def test_gate_library_serves_complex128_matrices():
    for name in ALL_GATE_NAMES:
        definition = get_gate(name)
        params = tuple(0.3 for _ in range(definition.num_params))
        assert gate_matrix(name, params).dtype == np.complex128, name


@pytest.mark.parametrize("dtype_name", ["complex64", "complex128"])
def test_end_to_end_dtype_metadata_and_statevector(dtype_name):
    simulator = StatevectorSimulator(
        noise_model=NoiseModel(oneq_error=0.02, readout_error=0.01),
        trajectory_dtype=dtype_name,
    )
    result = simulator.run(noisy_workload(), shots=64, seed=3, return_statevector=True)
    assert result.metadata["trajectory_dtype"] == dtype_name
    # The extracted statevector is always complex128 (the result contract),
    # regardless of the engine's internal precision.
    assert result.statevector._tensor.dtype == np.complex128


def test_complex128_batched_matches_reference_collapse_precision():
    # With complex128 the batched engine should track the per-shot reference
    # to float64 rounding (not float32): run a noiseless circuit whose
    # measurements are both mid-circuit (x(0) and ry on q1 touch the measured
    # qubits again), so the batched run takes the trajectory path and
    # collapses, and compare the surviving superposition amplitude by
    # amplitude.  complex64 misses this bound by about four orders.
    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.x(0)
    circuit.h(1)
    circuit.measure(1, 1)
    circuit.ry(0.7, 1)
    batched = StatevectorSimulator(trajectory_dtype="complex128")
    compared = 0
    for seed in range(1, 17):
        b = batched.run(circuit, shots=1, seed=seed, return_statevector=True)
        r = reference_trajectories(circuit, shots=1, seed=seed, keep_state=True)
        assert b.metadata["method"] == "trajectories"
        if dict(b.counts) == dict(r.counts):
            assert np.max(np.abs(b.statevector.data - r.statevector.data)) < 1e-12
            compared += 1
    assert compared >= 1
