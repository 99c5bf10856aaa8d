"""Property tests for the batched trajectory engine.

The batched engine must be *observably equivalent* to the per-shot reference
(``engine_testlib.reference_trajectories``):
identical states on unitary circuits (exact linear algebra), and
distribution-equivalent samples on measuring/noisy circuits (the RNG streams
differ, so equivalence is statistical — checked with a two-sample chi-square
test at fixed seeds).
"""

import math

import numpy as np
import pytest

from repro.core import SimulationError
from repro.simulators.gate import (
    BatchedStatevector,
    Circuit,
    NoiseModel,
    Statevector,
    StatevectorSimulator,
    cached_gate_matrix,
)
from repro.simulators.gate.fusion import (
    GateStep,
    TerminalSample,
    compile_trajectory_program,
)
from repro.simulators.gate.gates import cached_gate_plan, gate_matrix

from engine_testlib import reference_trajectories


def chi_square_equivalent(counts_a, counts_b, significance_z=3.3):
    """Two-sample chi-square test that both histograms share a distribution.

    Returns True when the statistic is below the (Wilson–Hilferty
    approximated) critical value at roughly the 5e-4 level — loose enough to
    be stable under fixed seeds, tight enough to catch a wrong channel.
    """
    total_a, total_b = counts_a.shots, counts_b.shots
    scale_a = math.sqrt(total_b / total_a)
    scale_b = math.sqrt(total_a / total_b)
    statistic, cells = 0.0, 0
    for key in set(counts_a) | set(counts_b):
        observed_a = counts_a.get(key, 0)
        observed_b = counts_b.get(key, 0)
        statistic += (scale_a * observed_a - scale_b * observed_b) ** 2 / (
            observed_a + observed_b
        )
        cells += 1
    dof = max(cells - 1, 1)
    critical = dof * (
        1 - 2 / (9 * dof) + significance_z * math.sqrt(2 / (9 * dof))
    ) ** 3
    return statistic <= critical


def random_unitary_circuit(num_qubits, seed, layers=3):
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    oneq = ("h", "x", "s", "t", "sx")
    for _ in range(layers):
        for q in range(num_qubits):
            name = oneq[rng.integers(len(oneq))]
            circuit.append(name, [q])
            circuit.rz(float(rng.uniform(-np.pi, np.pi)), q)
        order = rng.permutation(num_qubits)
        for i in range(0, num_qubits - 1, 2):
            circuit.cx(int(order[i]), int(order[i + 1]))
        circuit.rzz(float(rng.uniform(-1, 1)), 0, num_qubits - 1)
        circuit.ccx(0, 1, 2)
    return circuit


# -- unitary equivalence ----------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_matches_single_shot_on_unitary_circuits(seed):
    circuit = random_unitary_circuit(5, seed)
    single = Statevector(5).evolve(circuit)
    batched = BatchedStatevector(5, 4)
    for inst in circuit.instructions:
        batched.apply_gate(inst.name, inst.qubits, inst.params)
    for shot in range(4):
        assert np.allclose(batched.data[shot], single.data, atol=1e-10)


def test_batched_complex64_matches_within_single_precision():
    circuit = random_unitary_circuit(6, seed=7)
    single = Statevector(6).evolve(circuit)
    batched = BatchedStatevector(6, 3, dtype=np.complex64)
    for inst in circuit.instructions:
        batched.apply_gate(inst.name, inst.qubits, inst.params)
    assert np.allclose(batched.data[1], single.data, atol=1e-4)


def test_batched_dense_2q_reversed_qubit_order():
    # The adjacent dense-2q GEMM conjugates by SWAP when the gate's first
    # qubit is the later axis; check against the single-shot path.
    circuit = Circuit(3)
    circuit.h(0).h(1).h(2)
    circuit.append("cry", [2, 1], [0.8])
    circuit.append("rxx", [1, 0], [0.5])
    single = Statevector(3).evolve(circuit)
    batched = BatchedStatevector(3, 2)
    for inst in circuit.instructions:
        batched.apply_gate(inst.name, inst.qubits, inst.params)
    assert np.allclose(batched.data[0], single.data, atol=1e-10)


def test_batched_apply_matrix_validates():
    state = BatchedStatevector(2, 3)
    with pytest.raises(SimulationError):
        state.apply_matrix(np.eye(2, dtype=complex), [0, 1])
    with pytest.raises(SimulationError):
        state.apply_matrix(np.eye(2, dtype=complex), [5])
    with pytest.raises(SimulationError):
        state.apply_matrix(np.eye(4, dtype=complex), [1, 1])


def test_duplicate_qubits_rejected_on_fast_paths():
    with pytest.raises(SimulationError):
        Statevector(2).apply_gate("cx", [1, 1])
    with pytest.raises(SimulationError):
        BatchedStatevector(2, 2).apply_gate("cx", [0, 0])


def test_batched_measure_and_reset_deterministic_cases():
    rng = np.random.default_rng(0)
    state = BatchedStatevector(2, 5)
    state.apply_gate("x", [1])
    outcomes = state.measure(1, rng)
    assert outcomes.tolist() == [1] * 5
    assert np.allclose(state.norms(), 1.0)
    state.reset(1, rng)
    zeros = state.measure(1, rng)
    assert zeros.tolist() == [0] * 5


# -- distribution equivalence -----------------------------------------------------

def run_both_engines(circuit, noise_model, shots, seed):
    batched = StatevectorSimulator(noise_model=noise_model).run(
        circuit, shots=shots, seed=seed
    )
    reference = reference_trajectories(circuit, noise_model, shots=shots, seed=seed)
    assert batched.metadata["method"] == "trajectories"
    assert batched.metadata["trajectory_engine"] == "batched"
    assert reference.metadata["trajectory_engine"] == "reference"
    assert batched.counts.shots == reference.counts.shots == shots
    return batched.counts, reference.counts


def test_mid_circuit_measurement_distribution_equivalence():
    circuit = Circuit(2, 3)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.h(0).cx(0, 1)
    circuit.measure(0, 1)
    circuit.measure(1, 2)
    counts_b, counts_r = run_both_engines(circuit, None, shots=4000, seed=17)
    assert chi_square_equivalent(counts_b, counts_r)
    for key in counts_b:  # entangled pair: last two bits always agree
        assert key[1] == key[2]


def test_reset_distribution_equivalence():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1)
    circuit.reset(0)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    counts_b, counts_r = run_both_engines(circuit, None, shots=4000, seed=23)
    assert chi_square_equivalent(counts_b, counts_r)


def test_noisy_distribution_equivalence():
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1).cx(1, 2).measure_all()
    noise = NoiseModel(oneq_error=0.02, twoq_error=0.05, readout_error=0.02)
    counts_b, counts_r = run_both_engines(circuit, noise, shots=8000, seed=31)
    assert chi_square_equivalent(counts_b, counts_r)


def test_fused_run_noise_distribution_equivalence():
    # Deep 1q runs exercise the noise-pushing conjugation inside fused blocks.
    circuit = Circuit(2, 2)
    for _ in range(5):
        circuit.h(0).t(0)
        circuit.rx(0.4, 1).rz(0.2, 1)
    circuit.cx(0, 1)
    circuit.measure_all()
    noise = NoiseModel(oneq_error=0.08, twoq_error=0.1)
    counts_b, counts_r = run_both_engines(circuit, noise, shots=8000, seed=41)
    assert chi_square_equivalent(counts_b, counts_r)


def test_batched_counts_deterministic_for_fixed_seed():
    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.cx(0, 1)
    circuit.measure(1, 1)
    simulator = StatevectorSimulator(
        noise_model=NoiseModel(oneq_error=0.01, readout_error=0.05)
    )
    first = simulator.run(circuit, shots=600, seed=99).counts
    second = simulator.run(circuit, shots=600, seed=99).counts
    assert dict(first) == dict(second)


# -- memory chunking --------------------------------------------------------------

def test_max_batch_memory_chunks_shots():
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1).reset(2)
    circuit.measure_all()
    # 3 qubits, complex64: 2 buffers x 8 bytes x 8 amplitudes = 128 B/shot.
    simulator = StatevectorSimulator(max_batch_memory=128 * 16)
    result = simulator.run(circuit, shots=100, seed=5)
    assert result.metadata["batch_size"] == 16
    assert result.metadata["num_batches"] == math.ceil(100 / 16)
    assert result.counts.shots == 100
    repeat = simulator.run(circuit, shots=100, seed=5)
    assert dict(repeat.counts) == dict(result.counts)
    unchunked = StatevectorSimulator(max_batch_memory=None).run(
        circuit, shots=4000, seed=5
    )
    assert unchunked.metadata["num_batches"] == 1
    chunked = StatevectorSimulator(max_batch_memory=128 * 16).run(
        circuit, shots=4000, seed=5
    )
    assert chi_square_equivalent(unchunked.counts, chunked.counts)


def test_invalid_engine_options_rejected():
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_engine="warp")
    # Not an engine: the per-shot loop is the tests' oracle
    # (engine_testlib.reference_trajectories).
    with pytest.raises(SimulationError, match="'batched', 'density', 'stabilizer' or 'auto'"):
        StatevectorSimulator(trajectory_engine="reference")
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_dtype="float16")
    with pytest.raises(SimulationError):
        StatevectorSimulator(max_batch_memory=0)


# -- compiled program structure ---------------------------------------------------

def test_fusion_collapses_1q_runs():
    circuit = Circuit(2, 2)
    circuit.h(0).t(0).rz(0.3, 0)
    circuit.h(1)
    circuit.rzz(0.5, 0, 1)  # diagonal 2q: not absorbed, flushes both runs
    circuit.measure_all()
    program = compile_trajectory_program(circuit)
    gate_steps = [s for s in program.steps if isinstance(s, GateStep)]
    assert len(gate_steps) == 3  # fused run on q0, fused run on q1, rzz
    assert isinstance(program.terminal, TerminalSample)
    assert program.terminal.pairs == ((0, 0), (1, 1))
    expected = (
        gate_matrix("rz", [0.3]) @ gate_matrix("t") @ gate_matrix("h")
    )
    fused = [s for s in gate_steps if s.qubits == (0,)][0]
    assert np.allclose(fused.matrix, expected)


def test_fusion_absorbs_1q_runs_into_adjacent_2q():
    circuit = Circuit(2, 2)
    circuit.h(0).h(1).cx(0, 1)
    circuit.measure_all()
    program = compile_trajectory_program(circuit)
    gate_steps = [s for s in program.steps if isinstance(s, GateStep)]
    assert len(gate_steps) == 1
    expected = gate_matrix("cx") @ np.kron(gate_matrix("h"), gate_matrix("h"))
    assert np.allclose(gate_steps[0].matrix, expected)


def test_terminal_peel_respects_clbit_last_write_wins():
    # Regression: measure(0,0) is followed by measure(1,0) writing the SAME
    # clbit; peeling the earlier measure into the terminal sample would let
    # its value overwrite the later one.  The final value of c0 must come
    # from measure(1, 0) — always 0 here.
    circuit = Circuit(2, 1)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.measure(1, 0)  # qubit 1 is |0>; overwrites c0
    circuit.h(1)           # touches q1 afterwards: that measure is mid-circuit
    program = compile_trajectory_program(circuit)
    assert program.terminal is None  # neither measure is peelable
    batched = StatevectorSimulator().run(circuit, shots=1000, seed=3).counts
    reference = reference_trajectories(circuit, shots=1000, seed=3).counts
    assert dict(batched) == {"0": 1000}
    assert dict(reference) == {"0": 1000}


def test_implicit_statevector_is_pre_measurement():
    circuit = Circuit(1)
    circuit.h(0)
    noisy = StatevectorSimulator(noise_model=NoiseModel(oneq_error=1e-6))
    result = noisy.run(circuit, shots=10, seed=0, return_statevector=True)
    assert result.metadata["method"] == "trajectories"
    assert result.metadata["statevector_kind"] == "pre_measurement"
    probs = result.statevector.probability_dict()
    assert abs(probs.get("0", 0.0) - 0.5) < 1e-3  # superposition, not collapsed


@pytest.mark.parametrize("budget", [4096.5, True, "16MiB"])
def test_max_batch_memory_must_be_a_positive_int(budget):
    with pytest.raises(SimulationError, match="max_batch_memory"):
        StatevectorSimulator(max_batch_memory=budget)


def test_backend_passes_max_batch_memory_through_unconverted():
    from repro.backends import GateBackend
    from repro.core.errors import BackendError
    from repro.problems import MaxCutProblem
    from repro.workflows import build_qaoa_bundle

    bundle = build_qaoa_bundle(MaxCutProblem.cycle(4))
    bundle.context.exec.options["max_batch_memory"] = True
    with pytest.raises(BackendError, match="max_batch_memory"):
        GateBackend().run(bundle)


def test_backend_options_reach_the_simulator():
    from repro.backends import GateBackend
    from repro.problems import MaxCutProblem
    from repro.workflows import build_qaoa_bundle

    bundle = build_qaoa_bundle(MaxCutProblem.cycle(4))
    options = bundle.context.exec.options
    options["noise"] = {"oneq_error": 1e-3}
    options["trajectory_dtype"] = "complex128"
    options["max_batch_memory"] = 1 << 22
    result = GateBackend().run(bundle)
    assert result.metadata["simulation_method"] == "trajectories"
    assert result.metadata["trajectory_engine"] == "batched"
    assert result.metadata["num_batches"] >= 1


def test_terminal_sampling_preserves_nonterminal_measures():
    circuit = Circuit(1, 2)
    circuit.h(0)
    circuit.measure(0, 0)  # non-terminal: the x below touches q0 again
    circuit.x(0)
    circuit.measure(0, 1)  # terminal
    program = compile_trajectory_program(circuit)
    assert program.terminal is not None
    assert program.terminal.pairs == ((0, 1),)
    result = StatevectorSimulator().run(circuit, shots=400, seed=13)
    for key in result.counts:  # second measurement complements the first
        assert key[0] != key[1]


def test_cached_gate_matrix_is_shared_and_frozen():
    first = cached_gate_matrix("rz", (0.25,))
    second = cached_gate_matrix("rz", (0.25,))
    assert first is second
    assert not first.flags.writeable
    assert np.allclose(first, gate_matrix("rz", (0.25,)))
    plan = cached_gate_plan("rz", (0.25,))
    assert plan.is_diagonal
    assert cached_gate_plan("cx").rows == ((2, ((3, 1 + 0j),)), (3, ((2, 1 + 0j),)))
