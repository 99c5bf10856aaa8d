"""Property-based tests for the fusion compiler, judged by the density oracle.

Three families of properties over seeded random circuits:

* **fused == unfused unitaries** — ``circuit_unitary`` equals the
  instruction-by-instruction oracle (``engine_testlib.circuit_unitary_unfused``)
  for arbitrary unitary circuits;
* **noise pushing is exact** — evolving the density matrix through the
  compiled program (fused blocks + conjugated-through noise events) produces
  the *same mixed state* as applying each gate and its in-place depolarizing
  channel one instruction at a time;
* **trace preservation** — every compiled noise event is a CPTP map (trace
  preserved on random mixed states), and full noisy evolutions keep
  ``tr(rho) = 1``.
"""

import numpy as np
import pytest

from repro.simulators.gate import (
    Circuit,
    DensityMatrix,
    NoiseModel,
    circuit_unitary,
)
from repro.simulators.gate.density import _apply_noise_event, _apply_unitary
from repro.simulators.gate.fusion import GateStep, compile_trajectory_program

from engine_testlib import circuit_unitary_unfused, random_unitary_circuit


def unfused_noisy_density(circuit, noise):
    """The executable specification: per-instruction gates + in-place channels.

    Mirrors the reference trajectory engine's channel placement exactly —
    after every gate, each touched qubit independently passes through a
    depolarizing channel at that arity's rate — but in closed form.
    """
    rho = DensityMatrix(circuit.num_qubits)
    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        rho.apply_gate(inst.name, inst.qubits, inst.params)
        rate = noise.oneq_error if inst.num_qubits == 1 else noise.twoq_error
        if rate > 0:
            for qubit in inst.qubits:
                rho.depolarize(qubit, rate)
    return rho


def fused_noisy_density(circuit, noise):
    """Evolution through the compiled program: fused blocks + pushed events."""
    program = compile_trajectory_program(circuit, noise)
    rho = DensityMatrix(circuit.num_qubits)
    n = circuit.num_qubits
    for step in program.steps:
        assert isinstance(step, GateStep)  # unitary circuits compile to GateStep only
        _apply_unitary(rho._tensor, step.plan, step.qubits, n)
        for event in step.noise:
            rho._tensor = _apply_noise_event(rho._tensor, event, n)
    return rho


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("circuit_seed", [0, 1, 2, 3])
def test_fused_and_unfused_unitaries_agree(num_qubits, circuit_seed):
    rng = np.random.default_rng(100 * num_qubits + circuit_seed)
    circuit = random_unitary_circuit(rng, num_qubits, 8 * num_qubits)
    fused = circuit_unitary(circuit)
    unfused = circuit_unitary_unfused(circuit)
    assert np.allclose(fused, unfused, atol=1e-12)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
def test_noise_pushing_is_exact_under_density_oracle(num_qubits, circuit_seed):
    # The fusion compiler conjugates error opportunities through fused blocks
    # (P -> R P R†).  That rewrite must not change the channel: the fused and
    # unfused evolutions must produce the same density matrix, entry by entry.
    rng = np.random.default_rng(7000 + 100 * num_qubits + circuit_seed)
    circuit = random_unitary_circuit(rng, num_qubits, 6 * num_qubits)
    noise = NoiseModel(oneq_error=0.08, twoq_error=0.12)
    fused = fused_noisy_density(circuit, noise)
    unfused = unfused_noisy_density(circuit, noise)
    assert np.allclose(fused.matrix, unfused.matrix, atol=1e-12)


def random_density_tensor(rng, num_qubits):
    """A random full-rank mixed state as a raw ``(2,)*2n`` tensor."""
    dim = 1 << num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    positive = raw @ raw.conj().T + 1e-3 * np.eye(dim)
    positive /= np.trace(positive).real
    return positive.reshape((2,) * (2 * num_qubits))


@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
def test_compiled_noise_events_preserve_trace(circuit_seed):
    rng = np.random.default_rng(400 + circuit_seed)
    circuit = random_unitary_circuit(rng, 3, 20)
    noise = NoiseModel(oneq_error=0.1, twoq_error=0.15)
    program = compile_trajectory_program(circuit, noise)
    events = [event for step in program.steps for event in step.noise]
    assert events, "noisy compilation should produce error events"
    for event in events:
        tensor = random_density_tensor(rng, 3)
        before = np.trace(tensor.reshape(8, 8)).real
        after_tensor = _apply_noise_event(tensor, event, 3)
        after = np.trace(after_tensor.reshape(8, 8)).real
        assert after == pytest.approx(before, abs=1e-12)


@pytest.mark.parametrize("num_qubits", [2, 3])
def test_full_noisy_evolution_preserves_trace_and_positivity(num_qubits):
    rng = np.random.default_rng(50 + num_qubits)
    circuit = random_unitary_circuit(rng, num_qubits, 10 * num_qubits)
    noise = NoiseModel(oneq_error=0.07, twoq_error=0.1)
    rho = DensityMatrix(num_qubits).evolve(circuit, noise_model=noise)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    eigenvalues = np.linalg.eigvalsh(rho.matrix)
    assert eigenvalues.min() > -1e-12  # CPTP maps keep rho positive semidefinite
    assert rho.purity() <= 1.0 + 1e-12


def test_fusion_preserves_terminal_distribution_on_transpiled_circuits():
    # The shape the backend actually executes: transpiled rz/sx/cx chains,
    # where 1q-run fusion and 2q absorption fire constantly.
    from repro.simulators.gate import transpile
    from repro.simulators.gate.density import DensityMatrixSimulator

    rng = np.random.default_rng(123)
    logical = random_unitary_circuit(rng, 3, 15)
    logical.measure_all()
    transpiled = transpile(
        logical, basis_gates=["rz", "sx", "cx"], optimization_level=1
    ).circuit
    noise = NoiseModel(oneq_error=0.04, twoq_error=0.08)
    exact = DensityMatrixSimulator(noise_model=noise).probabilities(transpiled)
    # Compare against the unfused specification on the same transpiled circuit:
    # evolve the gates one by one, then read each outcome's probability off
    # the diagonal through the (possibly layout-permuted) clbit -> qubit map.
    unitary_only = Circuit(transpiled.num_qubits, transpiled.num_clbits)
    for inst in transpiled.instructions:
        if inst.name not in ("measure", "barrier"):
            unitary_only.append(inst.name, inst.qubits, inst.params)
    rho = unfused_noisy_density(unitary_only, noise)
    diagonal = rho.probabilities().reshape((2,) * transpiled.num_qubits)
    clbit_to_qubit = transpiled.measurement_map()
    assert set(clbit_to_qubit.values()) == set(range(transpiled.num_qubits))
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    for key, probability in exact.items():
        index = [0] * transpiled.num_qubits
        for clbit, qubit in clbit_to_qubit.items():
            index[qubit] = int(key[clbit])
        assert diagonal[tuple(index)] == pytest.approx(probability, abs=1e-10)


# -- same-pair 2q fusion (PR 4) -----------------------------------------------------

def same_pair_heavy_circuit(num_qubits, rng, length=24):
    """A circuit dominated by consecutive 2q gates on repeated qubit pairs."""
    circuit = Circuit(num_qubits)
    twoq = ["cx", "cz", "rzz", "swap", "iswap", "rxx"]
    pairs = [(q, q + 1) for q in range(num_qubits - 1)] + [
        (q + 1, q) for q in range(num_qubits - 1)
    ]
    pair = pairs[int(rng.integers(len(pairs)))]
    for _ in range(length):
        if rng.random() < 0.7:  # mostly stay on the same (possibly flipped) pair
            pair = pair if rng.random() < 0.5 else (pair[1], pair[0])
        else:
            pair = pairs[int(rng.integers(len(pairs)))]
        name = twoq[int(rng.integers(len(twoq)))]
        params = [float(rng.uniform(0, 2 * np.pi))] if name in ("rzz", "rxx") else []
        circuit.append(name, list(pair), params)
        if rng.random() < 0.3:
            circuit.rz(float(rng.uniform(0, np.pi)), int(rng.integers(num_qubits)))
    return circuit


@pytest.mark.parametrize("circuit_seed", [0, 1, 2, 3])
def test_same_pair_fusion_preserves_unitary(circuit_seed):
    rng = np.random.default_rng(9000 + circuit_seed)
    circuit = same_pair_heavy_circuit(3, rng)
    program = compile_trajectory_program(circuit)
    # Fusion must actually fire: far fewer steps than 2q instructions.
    twoq_count = sum(1 for inst in circuit.instructions if inst.num_qubits == 2)
    assert len(program.steps) < twoq_count
    fused = circuit_unitary(circuit)
    unfused = circuit_unitary_unfused(circuit)
    assert np.allclose(fused, unfused, atol=1e-12)


def test_same_pair_run_collapses_to_one_step():
    circuit = Circuit(2)
    circuit.rzz(0.3, 0, 1)
    circuit.cx(0, 1)
    circuit.cx(1, 0)  # reversed orientation still fuses (SWAP conjugation)
    circuit.rzz(0.8, 1, 0)
    program = compile_trajectory_program(circuit)
    assert len(program.steps) == 1
    assert isinstance(program.steps[0], GateStep)


@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
def test_same_pair_fusion_noise_pushing_is_exact(circuit_seed):
    # The earlier gate's (already conjugated) error events are pushed through
    # the later same-pair gate; the channel must be unchanged entry by entry.
    rng = np.random.default_rng(9100 + circuit_seed)
    circuit = same_pair_heavy_circuit(3, rng, length=14)
    noise = NoiseModel(oneq_error=0.06, twoq_error=0.11)
    fused = fused_noisy_density(circuit, noise)
    unfused = unfused_noisy_density(circuit, noise)
    assert np.allclose(fused.matrix, unfused.matrix, atol=1e-12)


def test_same_pair_fusion_does_not_cross_measurements():
    circuit = Circuit(2, 2)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.cx(0, 1)
    circuit.measure(0, 1)
    program = compile_trajectory_program(circuit)
    kinds = [type(step).__name__ for step in program.steps]
    # The mid-circuit measurement keeps the two CNOTs apart.
    assert kinds.count("GateStep") == 2
