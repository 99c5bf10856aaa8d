"""Unit tests for the exact density-matrix engine.

Covers the DensityMatrix primitive (channels, observables, fidelity), the
DensityMatrixSimulator result contract, hand-computed expectation values on
Bell/GHZ and depolarizing cases (the ISSUE's 1e-10 acceptance bar), and the
``trajectory_engine="density"`` routing through the simulator and backend
layers.
"""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.simulators.gate import (
    Circuit,
    DensityMatrix,
    DensityMatrixSimulator,
    MAX_DENSITY_QUBITS,
    NoiseModel,
    Statevector,
    StatevectorSimulator,
    pauli_terms,
)

from engine_testlib import apportioned_density_counts


def bell_circuit(measured=True):
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1)
    if measured:
        circuit.measure_all()
    return circuit


def ghz_circuit(num_qubits=3, measured=False):
    circuit = Circuit(num_qubits, num_qubits)
    circuit.h(0)
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    if measured:
        circuit.measure_all()
    return circuit


# -- DensityMatrix primitive ----------------------------------------------------


def test_initial_state_is_ground_state():
    rho = DensityMatrix(2)
    assert rho.trace() == pytest.approx(1.0)
    assert rho.purity() == pytest.approx(1.0)
    assert rho.probability_dict() == {"00": pytest.approx(1.0)}


def test_from_statevector_round_trip():
    state = Statevector(2).apply_gate("h", [0]).apply_gate("cx", [0, 1])
    rho = DensityMatrix.from_statevector(state)
    assert rho.purity() == pytest.approx(1.0)
    assert rho.fidelity(state) == pytest.approx(1.0)
    assert np.allclose(rho.probabilities(), state.probabilities())


def test_unitary_conjugation_matches_statevector():
    rng = np.random.default_rng(11)
    state = Statevector(3)
    rho = DensityMatrix(3)
    for name, qubits, params in [
        ("h", [0], ()),
        ("u", [1], (0.3, 1.1, 2.0)),
        ("cx", [0, 2], ()),
        ("rzz", [1, 2], (0.7,)),
        ("ccx", [0, 1, 2], ()),
    ]:
        state.apply_gate(name, qubits, params)
        rho.apply_gate(name, qubits, params)
    expected = np.outer(state.data, state.data.conj())
    assert np.allclose(rho.matrix, expected, atol=1e-12)
    del rng


def test_depolarize_trace_and_purity():
    rho = DensityMatrix(1).apply_gate("h", [0])
    rho.depolarize(0, 0.3)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert rho.purity() < 1.0


def test_full_depolarize_limit():
    # rate 3/4 with uniform X/Y/Z draws is the fully depolarizing channel.
    rho = DensityMatrix(1).apply_gate("h", [0])
    rho.depolarize(0, 0.75)
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_reset_channel():
    rho = DensityMatrix(1).apply_gate("h", [0])
    rho.reset(0)
    assert rho.probability_dict() == {"0": pytest.approx(1.0)}


def test_project_traces_are_outcome_probabilities():
    rho = DensityMatrix(1).apply_gate("ry", [0], (1.0,))
    zero, one = rho.project(0)
    expected_one = float(np.sin(0.5) ** 2)
    assert zero.trace() == pytest.approx(1 - expected_one, abs=1e-12)
    assert one.trace() == pytest.approx(expected_one, abs=1e-12)


def test_density_rejects_too_many_qubits():
    with pytest.raises(SimulationError):
        DensityMatrix(MAX_DENSITY_QUBITS + 1)
    wide = Circuit(MAX_DENSITY_QUBITS + 1, 1)
    wide.h(0)
    with pytest.raises(SimulationError):
        DensityMatrixSimulator().run(wide, shots=1)


def test_density_matrix_validates_input():
    with pytest.raises(SimulationError):
        DensityMatrix(1, data=np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(SimulationError):
        DensityMatrix(1, data=np.zeros((2, 2)))  # zero trace


# -- observables ------------------------------------------------------------------


def test_pauli_terms_parsing():
    assert pauli_terms("zzi", 3) == ((1.0, "ZZI"),)
    assert pauli_terms({"XX": 0.5, "ZZ": -1.0}, 2) == ((0.5, "XX"), (-1.0, "ZZ"))
    assert pauli_terms([("XI", 2.0)], 2) == ((2.0, "XI"),)
    with pytest.raises(SimulationError):
        pauli_terms("XY", 3)  # wrong width
    with pytest.raises(SimulationError):
        pauli_terms("XQ", 2)  # bad character
    with pytest.raises(SimulationError):
        pauli_terms({}, 2)  # no terms


def test_bell_expectations_exact():
    simulator = DensityMatrixSimulator()
    circuit = bell_circuit(measured=False)
    assert simulator.expectation(circuit, "ZZ") == pytest.approx(1.0, abs=1e-10)
    assert simulator.expectation(circuit, "XX") == pytest.approx(1.0, abs=1e-10)
    assert simulator.expectation(circuit, "YY") == pytest.approx(-1.0, abs=1e-10)
    assert simulator.expectation(circuit, "ZI") == pytest.approx(0.0, abs=1e-10)
    assert simulator.expectation(circuit, {"ZZ": 0.5, "XX": 0.25}) == pytest.approx(
        0.75, abs=1e-10
    )


def test_ghz_expectations_exact():
    simulator = DensityMatrixSimulator()
    circuit = ghz_circuit(3)
    assert simulator.expectation(circuit, "XXX") == pytest.approx(1.0, abs=1e-10)
    assert simulator.expectation(circuit, "ZZI") == pytest.approx(1.0, abs=1e-10)
    assert simulator.expectation(circuit, "IZZ") == pytest.approx(1.0, abs=1e-10)
    assert simulator.expectation(circuit, "ZII") == pytest.approx(0.0, abs=1e-10)


def test_single_qubit_depolarizing_expectation_hand_computed():
    # Depolarizing at rate p maps <P> -> (1 - 4p/3) <P> for any Pauli P.
    for p in (0.01, 0.12, 0.5):
        simulator = DensityMatrixSimulator(noise_model=NoiseModel(oneq_error=p))
        plus = Circuit(1, 1)
        plus.h(0)
        assert simulator.expectation(plus, "X") == pytest.approx(1 - 4 * p / 3, abs=1e-10)
        flipped = Circuit(1, 1)
        flipped.x(0)
        assert simulator.expectation(flipped, "Z") == pytest.approx(
            -(1 - 4 * p / 3), abs=1e-10
        )


def test_expectation_matches_statevector_on_noiseless_runs():
    circuit = ghz_circuit(3)
    state = Statevector(3).evolve(circuit.copy())
    density = DensityMatrixSimulator()
    for observable in ("XXX", "ZZI", {"XYZ": 0.3, "ZZZ": -0.7}):
        assert density.expectation(circuit, observable) == pytest.approx(
            state.expectation(observable), abs=1e-10
        )


def test_expectation_accepts_matrix_observable():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    hermitian = raw + raw.conj().T
    circuit = bell_circuit(measured=False)
    state = Statevector(2).evolve(circuit.copy())
    expected = float(np.real(np.vdot(state.data, hermitian @ state.data)))
    assert DensityMatrixSimulator().expectation(circuit, hermitian) == pytest.approx(
        expected, abs=1e-10
    )
    rho = DensityMatrix.from_statevector(state)
    assert rho.expectation(hermitian) == pytest.approx(expected, abs=1e-10)


# -- simulator result contract ------------------------------------------------------


def test_run_metadata_and_counts_contract():
    result = DensityMatrixSimulator().run(bell_circuit(), shots=1000, seed=9)
    assert result.metadata["method"] == "density"
    assert result.metadata["statevector_kind"] == "none"
    assert result.metadata["trajectory_engine"] == "density"
    assert result.metadata["implicit_measurement"] is False
    assert result.statevector is None
    assert result.counts.shots == 1000
    assert set(result.counts) <= {"00", "11"}


def test_implicit_measurement_contract():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1)  # no measure instructions
    result = DensityMatrixSimulator().run(circuit, shots=512, seed=2)
    assert result.metadata["implicit_measurement"] is True
    assert set(result.counts) <= {"00", "11"}
    assert result.counts.num_clbits == 2  # qubit-order keys over all qubits


def test_zero_shots_returns_empty_counts():
    result = DensityMatrixSimulator().run(bell_circuit(), shots=0, seed=1)
    assert dict(result.counts) == {}


def test_multinomial_sampling_is_seed_reproducible():
    simulator = DensityMatrixSimulator(noise_model=NoiseModel(oneq_error=0.05))
    first = simulator.run(bell_circuit(), shots=2048, seed=13)
    second = simulator.run(bell_circuit(), shots=2048, seed=13)
    assert dict(first.counts) == dict(second.counts)


def test_deterministic_sampling_is_exact_apportionment():
    # The RNG-free apportionment is a test-side oracle over probabilities().
    counts = apportioned_density_counts(bell_circuit(), 1000)
    assert dict(counts) == {"00": 500, "11": 500}
    # Largest remainder conserves the shot total even when p*shots is fractional.
    ghz = ghz_circuit(3, measured=True)
    skewed = apportioned_density_counts(ghz, 997, NoiseModel(oneq_error=0.07))
    assert skewed.shots == 997


def test_invalid_sampling_mode_rejected():
    # Counts are always one seeded multinomial draw: no sampling keyword.
    with pytest.raises(TypeError):
        DensityMatrixSimulator(sampling="bogus")
    with pytest.raises(TypeError):
        StatevectorSimulator(density_sampling="bogus")


def test_readout_error_exact_bell_distribution():
    r = 0.05
    simulator = DensityMatrixSimulator(noise_model=NoiseModel(readout_error=r))
    probs = simulator.probabilities(bell_circuit())
    assert probs["01"] == pytest.approx(r * (1 - r), abs=1e-12)
    assert probs["10"] == pytest.approx(r * (1 - r), abs=1e-12)
    assert probs["00"] == pytest.approx(0.5 * (1 - r) ** 2 + 0.5 * r**2, abs=1e-12)


def test_mid_circuit_measurement_exact_uniform():
    circuit = Circuit(1, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.h(0)
    circuit.measure(0, 1)
    probs = DensityMatrixSimulator().probabilities(circuit)
    assert set(probs) == {"00", "01", "10", "11"}
    for value in probs.values():
        assert value == pytest.approx(0.25, abs=1e-12)


def test_reset_after_superposition_is_deterministic():
    circuit = Circuit(1, 1)
    circuit.h(0)
    circuit.reset(0)
    circuit.measure(0, 0)
    assert DensityMatrixSimulator().probabilities(circuit) == {
        "0": pytest.approx(1.0)
    }


# -- engine routing -----------------------------------------------------------------


def test_statevector_simulator_routes_density_engine():
    simulator = StatevectorSimulator(
        noise_model=NoiseModel(oneq_error=0.02), trajectory_engine="density"
    )
    result = simulator.run(bell_circuit(), shots=1024, seed=4, return_statevector=True)
    assert result.metadata["method"] == "density"
    assert "density_sampling" not in result.metadata
    assert result.statevector is None  # mixed state: documented "none" kind
    assert result.counts.shots == 1024


def test_density_engine_through_gate_backend():
    from repro.backends import submit
    from repro.core import ContextDescriptor, ExecPolicy, ising_register, package
    from repro.oplib import measurement, prep_uniform

    register = ising_register("vars", 2, name="s")
    context = ContextDescriptor(
        exec=ExecPolicy(
            engine="gate.aer_simulator",
            samples=512,
            seed=3,
            options={
                "trajectory_engine": "density",
                "noise": {"oneq_error": 0.01, "twoq_error": 0.02},
            },
        )
    )
    bundle = package(
        register, [prep_uniform(register), measurement(register)], context, name="density-smoke"
    )
    result = submit(bundle)
    assert result.metadata["simulation_method"] == "density"
    assert result.metadata["trajectory_engine"] == "density"
    assert result.counts.shots == 512
    # A context written for the retired sampling or verification knob runs
    # unchanged: each key is ignored like any unknown option.
    bundle.context.exec.options["density_sampling"] = "deterministic"
    bundle.context.exec.options["verify_compiled"] = True
    legacy = submit(bundle)
    assert dict(legacy.counts) == dict(result.counts)
    assert {k: v for k, v in legacy.metadata.items() if k != "wall_time_s"} == {
        k: v for k, v in result.metadata.items() if k != "wall_time_s"
    }
