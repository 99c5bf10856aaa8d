"""Tests for the state-vector simulator."""

import math

import numpy as np
import pytest

from repro.core import SimulationError
from repro.simulators.gate import (
    Circuit,
    NoiseModel,
    Statevector,
    StatevectorSimulator,
    index_to_bits,
)

from engine_testlib import (
    per_outcome_sample_counts,
    per_outcome_sample_exact,
    random_unitary_circuit,
)


def test_initial_state_and_amplitudes():
    state = Statevector(2)
    assert state.amplitude("00") == 1.0
    assert state.probability_dict() == {"00": 1.0}


def test_from_bitstring():
    state = Statevector.from_bitstring("011")
    assert state.amplitude("011") == 1.0
    assert state.expectation_z(0) == 1.0  # qubit 0 is |0>
    assert state.expectation_z(1) == -1.0


def test_index_to_bits_convention():
    # char i of the bitstring is qubit i; qubit 0 is the most significant flat bit
    assert index_to_bits(0b100, 3) == "100"
    assert index_to_bits(1, 3) == "001"


def test_hadamard_and_bell_state():
    state = Statevector(2)
    state.apply_gate("h", [0]).apply_gate("cx", [0, 1])
    probs = state.probability_dict()
    assert set(probs) == {"00", "11"}
    assert abs(probs["00"] - 0.5) < 1e-12
    assert abs(state.expectation_zz(0, 1) - 1.0) < 1e-12
    assert abs(state.expectation_z(0)) < 1e-12


def test_evolve_circuit_matches_manual():
    circuit = Circuit(2)
    circuit.h(0).cx(0, 1)
    evolved = Statevector(2).evolve(circuit)
    manual = Statevector(2).apply_gate("h", [0]).apply_gate("cx", [0, 1])
    assert evolved.fidelity(manual) == pytest.approx(1.0)


def test_evolve_rejects_measurement():
    circuit = Circuit(1, 1)
    circuit.measure(0, 0)
    with pytest.raises(SimulationError):
        Statevector(1).evolve(circuit)


def test_ghz_counts_exact_path():
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1).cx(1, 2).measure_all()
    result = StatevectorSimulator().run(circuit, shots=4000, seed=11)
    counts = result.counts
    assert set(counts) == {"000", "111"}
    assert abs(counts.probability("000") - 0.5) < 0.05
    assert result.metadata["method"] == "exact"


def test_measure_subset_of_qubits():
    circuit = Circuit(2, 1)
    circuit.x(1).measure(1, 0)
    counts = StatevectorSimulator().run(circuit, shots=100, seed=0).counts
    assert dict(counts) == {"1": 100}


def test_mid_circuit_measurement_uses_trajectories():
    circuit = Circuit(1, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.x(0)
    circuit.measure(0, 1)
    result = StatevectorSimulator().run(circuit, shots=200, seed=5)
    assert result.metadata["method"] == "trajectories"
    # Second measurement is always the complement of the first.
    for key in result.counts:
        assert key[0] != key[1]


def test_reset_collapses_to_zero():
    circuit = Circuit(1, 1)
    circuit.h(0)
    circuit.reset(0)
    circuit.measure(0, 0)
    counts = StatevectorSimulator().run(circuit, shots=100, seed=3).counts
    assert dict(counts) == {"0": 100}


def test_seed_reproducibility():
    circuit = Circuit(2, 2)
    circuit.h(0).h(1).measure_all()
    sim = StatevectorSimulator()
    a = sim.run(circuit, shots=500, seed=42).counts
    b = sim.run(circuit, shots=500, seed=42).counts
    assert dict(a) == dict(b)


def test_readout_noise_flips_outcomes():
    circuit = Circuit(1, 1)
    circuit.measure(0, 0)  # ideal outcome always 0
    noisy = StatevectorSimulator(noise_model=NoiseModel(readout_error=0.5))
    counts = noisy.run(circuit, shots=400, seed=1).counts
    assert counts.get("1", 0) > 100


def test_gate_noise_perturbs_ghz():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).measure_all()
    noisy = StatevectorSimulator(noise_model=NoiseModel(twoq_error=0.5))
    counts = noisy.run(circuit, shots=300, seed=2).counts
    assert set(counts) - {"00", "11"}  # some non-GHZ outcomes appear


def test_noise_model_from_dict_accepts_only_real_rates():
    model = NoiseModel.from_dict({"oneq_error": np.float64(0.01), "twoq_error": 0})
    assert (model.oneq_error, model.twoq_error, model.readout_error) == (0.01, 0.0, 0.0)
    assert NoiseModel.from_dict({}) is None and NoiseModel.from_dict(None) is None
    for bad in (
        {"twoq_eror": 0.5},
        {"readout_error": True},
        {"oneq_error": "0.1"},
        {"oneq_error": None},
        {"twoq_error": 1.5},
    ):
        with pytest.raises(SimulationError):
            NoiseModel.from_dict(bad)


def test_sample_counts_and_statevector_return():
    circuit = Circuit(2, 2)
    circuit.h(0).measure_all()
    result = StatevectorSimulator().run(circuit, shots=100, seed=9, return_statevector=True)
    assert result.statevector is not None
    assert result.get_counts().shots == 100


def test_measurement_free_circuit_measured_implicitly():
    # Documented contract: no measure instructions + shots > 0 => implicit
    # terminal measurement over all qubits, keyed in qubit order.
    circuit = Circuit(2)
    circuit.h(0)
    result = StatevectorSimulator().run(circuit, shots=1000, seed=4)
    assert result.metadata["implicit_measurement"] is True
    assert set(result.counts) <= {"00", "10"}
    assert result.counts.shots == 1000
    assert abs(result.counts.probability("00") - 0.5) < 0.06


def test_measurement_free_trajectory_circuit_measured_implicitly():
    # Noise forces the trajectory path; the implicit contract must hold there too.
    circuit = Circuit(2)
    circuit.h(0)
    noisy = StatevectorSimulator(noise_model=NoiseModel(oneq_error=0.01))
    result = noisy.run(circuit, shots=500, seed=6)
    assert result.metadata["method"] == "trajectories"
    assert result.metadata["implicit_measurement"] is True
    assert result.counts.shots == 500
    assert result.counts.num_clbits == 2


def test_zero_shots_returns_empty_counts():
    circuit = Circuit(2)
    circuit.h(0)
    result = StatevectorSimulator().run(circuit, shots=0)
    assert dict(result.counts) == {}
    assert result.metadata["implicit_measurement"] is False


def test_return_statevector_exact_path_is_pre_measurement():
    circuit = Circuit(2, 2)
    circuit.h(0).measure_all()
    result = StatevectorSimulator().run(circuit, shots=50, seed=1, return_statevector=True)
    assert result.metadata["statevector_kind"] == "pre_measurement"
    # Sampling must not collapse: both outcomes keep amplitude 1/sqrt(2).
    probs = result.statevector.probability_dict()
    assert set(probs) == {"00", "10"}
    assert abs(probs["00"] - 0.5) < 1e-9


def test_return_statevector_trajectory_path_is_collapsed_final_shot():
    circuit = Circuit(1, 1)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.h(0)
    circuit.measure(0, 0)  # mid-circuit + terminal: trajectory path
    result = StatevectorSimulator().run(circuit, shots=30, seed=8, return_statevector=True)
    assert result.metadata["statevector_kind"] == "final_trajectory"
    probs = result.statevector.probability_dict()
    assert len(probs) == 1  # collapsed to the last shot's outcome
    assert abs(sum(probs.values()) - 1.0) < 1e-6


def test_qubit_limit_enforced():
    with pytest.raises(SimulationError):
        Statevector(40)


def test_apply_matrix_shape_check():
    with pytest.raises(SimulationError):
        Statevector(2).apply_matrix(np.eye(2), [0, 1])


# -- the exact path's array counts builder against the per-outcome oracle -----------

SAMPLE_SHOTS = (0, 1, 4096)


def _random_state(num_qubits, seed):
    circuit = random_unitary_circuit(np.random.default_rng(seed), num_qubits, 6 * num_qubits)
    return Statevector(num_qubits).evolve(circuit)


def _assert_same_draws(counts, expected, rng, oracle_rng):
    assert dict(counts) == dict(expected)
    assert list(counts) == sorted(counts)  # exact-path keys come out sorted
    assert all(type(value) is int for value in counts.values())
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("shots", SAMPLE_SHOTS)
@pytest.mark.parametrize("num_qubits", [1, 3, 7])
def test_sample_counts_matches_per_outcome_oracle(num_qubits, shots):
    state = _random_state(num_qubits, seed=num_qubits)
    order = np.random.default_rng(shots).permutation(num_qubits).tolist()
    for qubits in (None, [], order, order[: (num_qubits + 1) // 2], [order[0]] * 2):
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        counts = state.sample_counts(shots, rng, qubits)
        expected = per_outcome_sample_counts(state, shots, oracle_rng, qubits)
        _assert_same_draws(counts, expected, rng, oracle_rng)
        assert counts.shots == shots


def test_sample_counts_rejects_out_of_range_qubits():
    state = _random_state(3, seed=0)
    for qubits in ([3], [0, -1]):
        with pytest.raises(SimulationError):
            state.sample_counts(8, np.random.default_rng(0), qubits)


def _measure_maps(num_qubits, num_clbits, rng):
    """Clbit -> qubit maps: full, permuted, partial, clbits left unmeasured, none."""
    order = rng.permutation(num_qubits).tolist()
    return [
        {q: q for q in range(num_qubits)},
        dict(enumerate(order)),
        dict(enumerate(order[: (num_qubits + 1) // 2])),
        {num_clbits - 1 - c: q for c, q in enumerate(order)},
        {},
    ]


@pytest.mark.parametrize("shots", SAMPLE_SHOTS)
@pytest.mark.parametrize("num_qubits", [1, 3, 7])
def test_sample_exact_matches_per_outcome_oracle(num_qubits, shots):
    state = _random_state(num_qubits, seed=10 + num_qubits)
    circuit = Circuit(num_qubits, num_qubits + 2)
    for measure_map in _measure_maps(num_qubits, circuit.num_clbits, np.random.default_rng(shots)):
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        counts, implicit = StatevectorSimulator._sample_exact(
            state, measure_map, circuit, shots, rng
        )
        expected, expected_implicit = per_outcome_sample_exact(
            state, measure_map, circuit, shots, oracle_rng
        )
        _assert_same_draws(counts, expected, rng, oracle_rng)
        assert implicit == expected_implicit


@pytest.mark.parametrize("seed", range(4))
def test_exact_run_with_a_clbit_measured_twice_matches_oracle(seed):
    # Two terminal measurements write clbit 1; the later one wins, as in
    # the measure map the per-outcome loop read.
    gates = random_unitary_circuit(np.random.default_rng(seed), 4, 24)
    circuit = Circuit(4, 3)
    circuit.instructions.extend(gates.instructions)
    circuit.measure(0, 1).measure(2, 1).measure(3, 0)
    result = StatevectorSimulator().run(circuit, shots=4096, seed=seed)
    assert result.metadata["method"] == "exact"
    expected, _ = per_outcome_sample_exact(
        Statevector(4).evolve(gates), {1: 2, 0: 3}, circuit, 4096, np.random.default_rng(seed)
    )
    assert dict(result.counts) == dict(expected)
    assert list(result.counts) == sorted(result.counts)
