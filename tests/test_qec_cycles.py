"""Executable QEC cycles on the stabilizer engine (ISSUE 7 satellite).

Repetition-code memory experiments are decoded against
:class:`~repro.services.qec.RepetitionCodeModel`'s closed-form logical error
rate (code capacity) and against the monotone distance-suppression expectation
(circuit level); the rotated surface code is validated structurally (noiseless
syndromes are trivial and repeat round to round).  The fast lane runs small
shot counts; the ``slow`` lane repeats the closed-form comparison at full
statistics.
"""

import numpy as np
import pytest

from repro.core.errors import ServiceError
from repro.services.qec import (
    QECService,
    RepetitionCodeModel,
    code_capacity_repetition_circuit,
    repetition_code_circuit,
    surface_code_cycle_circuit,
    surface_code_stabilizers,
)
from repro.simulators.gate import StatevectorSimulator

DISTANCES = (3, 5, 7)
PHYSICAL_P = 0.2  # far below the 50% repetition-code threshold, fast statistics


def _sigma(probability, samples):
    return float(np.sqrt(max(probability * (1.0 - probability), 1e-12) / samples))


# -- closed-form model --------------------------------------------------------------


def test_repetition_model_closed_form_values():
    model = RepetitionCodeModel()
    assert model.bitflip_probability(0.3) == pytest.approx(0.2)
    # d=3: P(>=2 of 3 flips) with q = 2p/3.
    q = model.bitflip_probability(PHYSICAL_P)
    expected = 3 * q**2 * (1 - q) + q**3
    assert model.logical_error_rate(3, PHYSICAL_P) == pytest.approx(expected)
    rates = [model.logical_error_rate(d, PHYSICAL_P) for d in DISTANCES]
    assert rates[0] > rates[1] > rates[2]
    with pytest.raises(ServiceError):
        model.logical_error_rate(4, PHYSICAL_P)
    with pytest.raises(ServiceError):
        model.bitflip_probability(1.5)


# -- code-capacity cycles vs closed form --------------------------------------------


def test_code_capacity_rates_match_closed_form_fast():
    service = QECService()
    measured = []
    for distance in DISTANCES:
        result = service.run_repetition_memory(
            distance,
            physical_error_rate=PHYSICAL_P,
            patches=4,
            shots=2048,
            seed=11,
            code_capacity=True,
        )
        assert result.metadata["trajectory_engine"] == "stabilizer"
        predicted = result.predicted_logical_error_rate
        assert predicted == pytest.approx(
            RepetitionCodeModel().logical_error_rate(distance, PHYSICAL_P)
        )
        samples = result.shots * result.patches
        tolerance = 5.0 * _sigma(predicted, samples)
        assert abs(result.logical_error_rate - predicted) < tolerance, distance
        measured.append(result.logical_error_rate)
    assert measured[0] > measured[1] > measured[2]  # distance suppresses errors


@pytest.mark.slow
@pytest.mark.parametrize("distance", DISTANCES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_code_capacity_rates_match_closed_form_full(distance, seed):
    result = QECService().run_repetition_memory(
        distance,
        physical_error_rate=PHYSICAL_P,
        patches=8,
        shots=8192,
        seed=seed,
        code_capacity=True,
    )
    predicted = result.predicted_logical_error_rate
    samples = result.shots * result.patches
    assert abs(result.logical_error_rate - predicted) < 5.0 * _sigma(predicted, samples)


# -- circuit-level cycles -----------------------------------------------------------


def test_circuit_level_rates_decrease_with_distance():
    service = QECService()
    measured = []
    for distance in DISTANCES:
        result = service.run_repetition_memory(
            distance,
            physical_error_rate=0.03,
            rounds=2,
            patches=4,
            shots=2048,
            seed=11,
        )
        assert result.predicted_logical_error_rate is None  # no closed form
        assert result.num_qubits == 4 * (2 * distance - 1)
        measured.append(result.logical_error_rate)
    assert measured[0] > measured[1] > measured[2]


def test_distance7_cycle_at_52_qubits_is_worker_invariant():
    # The ISSUE's headline configuration: 4 patches x d=7 = 52 qubits of
    # circuit-level cycles; seeded failures must be identical at every
    # trajectory_workers setting.
    service = QECService()
    reference = None
    for workers in (1, 2, 4):
        result = service.run_repetition_memory(
            7,
            physical_error_rate=0.02,
            rounds=7,
            patches=4,
            shots=1024,
            seed=5,
            trajectory_workers=workers,
        )
        assert result.num_qubits == 52
        if reference is None:
            reference = result.logical_failures
        assert result.logical_failures == reference, workers


def test_code_capacity_rejects_multiple_rounds():
    with pytest.raises(ServiceError):
        QECService().run_repetition_memory(
            3, physical_error_rate=0.1, rounds=2, code_capacity=True
        )


# -- circuit builders ---------------------------------------------------------------


def test_repetition_circuit_shapes():
    circuit = repetition_code_circuit(5, rounds=3, patches=2)
    assert circuit.num_qubits == 2 * (2 * 5 - 1)
    assert circuit.num_clbits == 2 * (3 * 4 + 5)
    flat = code_capacity_repetition_circuit(7, patches=3)
    assert flat.num_qubits == 21
    assert flat.num_clbits == 21


@pytest.mark.parametrize("distance, rounds", [(501, 1), (7, 7), (5, 3)])
def test_lowered_repetition_memory_equals_the_circuit_builder(distance, rounds):
    # The benchmark runs the lowering and these tests validate the builder;
    # both append one shared loop, so the two circuits must agree exactly.
    from repro.backends import GateBackend
    from repro.core import ContextDescriptor, ExecPolicy, package
    from repro.oplib import repetition_memory_operator, repetition_register

    register = repetition_register("patch", distance)
    bundle = package(
        register,
        [repetition_memory_operator(register, distance, rounds=rounds)],
        ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator")),
        name="repetition-lowering",
    )
    lowered, _ = GateBackend().build_circuit(bundle)
    built = repetition_code_circuit(distance, rounds)
    assert (lowered.num_qubits, lowered.num_clbits) == (built.num_qubits, built.num_clbits)
    assert lowered.instructions == built.instructions


def test_surface_code_stabilizer_count_and_balance():
    for distance in (3, 5, 7):
        stabilizers = surface_code_stabilizers(distance)
        assert len(stabilizers) == distance**2 - 1
        x_type = sum(1 for kind, _ in stabilizers if kind == "x")
        assert x_type == (distance**2 - 1) // 2
        for _, data in stabilizers:
            assert len(data) in (2, 4)
            assert all(0 <= q < distance**2 for q in data)


def test_surface_code_noiseless_syndromes_are_trivial_and_repeat():
    # On the noiseless |0...0> memory, every Z-type syndrome bit is exactly 0
    # in every round, and X-type syndromes (random on the first round, since
    # |0...0> is not an X-stabilizer eigenstate) repeat identically in later
    # rounds — the projective collapse of round 1 fixes them.
    distance, rounds = 3, 2
    stabilizers = surface_code_stabilizers(distance)
    num_stab = len(stabilizers)
    circuit = surface_code_cycle_circuit(distance, rounds=rounds)
    result = StatevectorSimulator(trajectory_engine="stabilizer").run(
        circuit, shots=128, seed=9
    )
    saw_nonzero_x = False
    for key in result.counts:
        for s, (kind, _) in enumerate(stabilizers):
            bits = [key[rnd * num_stab + s] for rnd in range(rounds)]
            if kind == "z":
                assert bits == ["0"] * rounds, (s, key)
            else:
                assert len(set(bits)) == 1, (s, key)  # repeats round to round
                saw_nonzero_x = saw_nonzero_x or bits[0] == "1"
        # Data readout stays in the Z-stabilizer group: all-zero logical 0
        # would require decoding; here just check the bits exist.
        assert len(key) == rounds * num_stab + distance**2
    assert saw_nonzero_x  # X syndromes really are random, not stuck at 0


@pytest.mark.slow
def test_surface_code_wide_cycle_runs_on_stabilizer_engine():
    circuit = surface_code_cycle_circuit(9, rounds=2)
    assert circuit.num_qubits == 2 * 81 - 1
    result = StatevectorSimulator(trajectory_engine="stabilizer").run(
        circuit, shots=64, seed=3
    )
    assert sum(result.counts.values()) == 64
