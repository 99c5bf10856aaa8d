"""Differential validation of the trajectory engines against the density oracle.

Random circuits x noise levels x seeds: the empirical histograms of the
batched trajectory engine and of the per-shot reference oracle
(``engine_testlib.reference_trajectories``, engine name ``"reference"`` below)
must match the density-matrix engine's exact outcome distribution within
total-variation tolerance, and each engine must be bit-exactly reproducible
under a fixed seed.  The quick lane runs a curated subset on every pytest
invocation; the full sweep is marked ``slow`` (deselect with
``-m "not slow"``).

Tolerance note: for a distribution over k outcomes sampled N times the
expected TVD scales like ``sqrt(k / (2 pi N))``; every bound below sits at
several times that, and all seeds are fixed, so the checks are deterministic.
"""

import numpy as np
import pytest

from repro.simulators.gate import (
    Circuit,
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    clear_compile_caches,
    compile_cache_info,
)

from engine_testlib import (
    chi_square_statistic,
    random_clifford_circuit,
    random_mixed_circuit,
    random_unitary_circuit,
    reference_trajectories,
    total_variation_distance,
)

SHOTS = 2048  # the ISSUE's acceptance floor for the differential suite


def exact_distribution(circuit, noise=None):
    return DensityMatrixSimulator(noise_model=noise).probabilities(circuit)


def engine_counts(circuit, noise, engine, shots=SHOTS, seed=7, **kwargs):
    if engine == "reference":
        return reference_trajectories(circuit, noise, shots=shots, seed=seed).counts
    simulator = StatevectorSimulator(noise_model=noise, trajectory_engine=engine, **kwargs)
    return simulator.run(circuit, shots=shots, seed=seed).counts


def tvd_bound(distribution, shots, factor=5.0):
    """A deterministic-seed-friendly TVD bound: factor x the sqrt(k/2piN) scale."""
    k = max(len(distribution), 2)
    return factor * np.sqrt(k / (2 * np.pi * shots))


# -- quick lane ---------------------------------------------------------------------


def test_batched_matches_oracle_noisy_bell():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).measure_all()
    noise = NoiseModel(oneq_error=0.05, twoq_error=0.1, readout_error=0.02)
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(circuit, noise, "batched")
    assert total_variation_distance(counts, exact) < tvd_bound(exact, SHOTS)


def test_reference_matches_oracle_noisy_bell():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).measure_all()
    noise = NoiseModel(oneq_error=0.05, twoq_error=0.1, readout_error=0.02)
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(circuit, noise, "reference", shots=512)
    assert total_variation_distance(counts, exact) < tvd_bound(exact, 512)


def test_batched_matches_oracle_mid_circuit_and_reset():
    rng = np.random.default_rng(21)
    circuit = random_mixed_circuit(rng, 3, 12)
    noise = NoiseModel(oneq_error=0.02, twoq_error=0.05)
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(circuit, noise, "batched")
    assert total_variation_distance(counts, exact) < tvd_bound(exact, SHOTS)


def test_exact_path_matches_oracle_closed_form():
    # The noiseless terminal-measurement path and the density oracle must agree
    # to float precision, not just statistically.
    rng = np.random.default_rng(3)
    circuit = random_unitary_circuit(rng, 3, 15)
    circuit.measure_all()
    from repro.simulators.gate import Statevector

    unitary_part = Circuit(3, 3)
    for inst in circuit.instructions:
        if inst.name != "measure":
            unitary_part.append(inst.name, inst.qubits, inst.params)
    state = Statevector(3).evolve(unitary_part)
    exact = exact_distribution(circuit)
    for key, probability in state.probability_dict().items():
        assert exact.get(key, 0.0) == pytest.approx(probability, abs=1e-12)


def test_engines_are_seed_deterministic():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).measure_all()
    noise = NoiseModel(oneq_error=0.05, readout_error=0.02)
    for engine in ("batched", "reference", "density", "stabilizer"):
        first = engine_counts(circuit, noise, engine, shots=256, seed=11)
        second = engine_counts(circuit, noise, engine, shots=256, seed=11)
        assert dict(first) == dict(second), engine


def test_batched_seed_determinism_is_worker_invariant():
    rng = np.random.default_rng(9)
    circuit = random_mixed_circuit(rng, 3, 10)
    noise = NoiseModel(oneq_error=0.03, twoq_error=0.06)
    serial = engine_counts(
        circuit, noise, "batched", shots=1024, seed=5, max_batch_memory=4096
    )
    threaded = engine_counts(
        circuit,
        noise,
        "batched",
        shots=1024,
        seed=5,
        max_batch_memory=4096,
        trajectory_workers=4,
    )
    assert dict(serial) == dict(threaded)


# -- stabilizer tableau engine (quick lane) -----------------------------------------


def test_stabilizer_matches_oracle_noisy_bell():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).measure_all()
    noise = NoiseModel(oneq_error=0.05, twoq_error=0.1, readout_error=0.02)
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(circuit, noise, "stabilizer")
    assert total_variation_distance(counts, exact) < tvd_bound(exact, SHOTS)


def test_stabilizer_matches_oracle_noisy_ghz():
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1).cx(1, 2).measure_all()
    noise = NoiseModel(oneq_error=0.04, twoq_error=0.08, readout_error=0.01)
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(circuit, noise, "stabilizer")
    assert total_variation_distance(counts, exact) < tvd_bound(exact, SHOTS)
    assert chi_square_statistic(counts, exact) < 5 * max(len(exact), 4) + 30


def test_stabilizer_matches_batched_on_clifford_circuit():
    # Both trajectory engines sample the same physical distribution; compare
    # their histograms against each other (statistically) on a random
    # Clifford circuit the exact engines can also reach.
    rng = np.random.default_rng(31)
    circuit = random_clifford_circuit(rng, 3, 15)
    noise = NoiseModel(oneq_error=0.03, twoq_error=0.06)
    exact = exact_distribution(circuit, noise)
    stab = engine_counts(circuit, noise, "stabilizer")
    batched = engine_counts(circuit, noise, "batched")
    bound = tvd_bound(exact, SHOTS)
    assert total_variation_distance(stab, exact) < bound
    # Empirical-vs-empirical TVD fluctuates at twice the one-sided scale.
    shots = sum(stab.values())
    empirical = {key: value / shots for key, value in stab.items()}
    assert total_variation_distance(batched, empirical) < 2 * bound


def test_stabilizer_seed_determinism_is_worker_invariant():
    rng = np.random.default_rng(13)
    circuit = random_clifford_circuit(rng, 4, 16)
    noise = NoiseModel(oneq_error=0.03, twoq_error=0.06, readout_error=0.01)
    reference = None
    for workers in (1, 2, 4):
        counts = engine_counts(
            circuit,
            noise,
            "stabilizer",
            shots=1024,
            seed=5,
            max_batch_memory=1024,
            trajectory_workers=workers,
        )
        if reference is None:
            reference = dict(counts)
        assert dict(counts) == reference, workers


def test_stabilizer_counts_identical_cold_vs_warm_compile():
    rng = np.random.default_rng(47)
    circuit = random_clifford_circuit(rng, 3, 12)
    noise = NoiseModel(oneq_error=0.05, twoq_error=0.08, readout_error=0.02)
    clear_compile_caches()
    cold = engine_counts(circuit, noise, "stabilizer", shots=512, seed=19)
    info = compile_cache_info()
    assert info["stabilizer"]["misses"] >= 1
    warm = engine_counts(circuit, noise, "stabilizer", shots=512, seed=19)
    assert compile_cache_info()["stabilizer"]["hits"] >= 1
    assert dict(cold) == dict(warm)


# -- noisy compile cache and high-noise identities ----------------------------------


def test_noisy_counts_identical_cold_vs_warm_compile_across_engines():
    # Every engine now compiles noisy circuits through the two-level cache;
    # a warm rerun (program-cache hit) must reproduce the cold run's seeded
    # counts bit for bit on each engine.
    rng = np.random.default_rng(77)
    circuit = random_mixed_circuit(rng, 3, 12)
    noise = NoiseModel(oneq_error=0.06, twoq_error=0.1, readout_error=0.02)
    for engine, shots in (("batched", 1024), ("reference", 256), ("density", 1024)):
        clear_compile_caches()
        cold = engine_counts(circuit, noise, engine, shots=shots, seed=19)
        info = compile_cache_info()
        assert info["template"]["misses"] >= 1, engine
        warm = engine_counts(circuit, noise, engine, shots=shots, seed=19)
        assert compile_cache_info()["program"]["hits"] >= 1, engine
        assert dict(cold) == dict(warm), engine


def test_high_noise_counts_identical_across_worker_counts():
    # At high rates most shots are struck on most steps, so the masked
    # gather/scatter noise path touches most columns; seeded counts must
    # still be identical at every worker count.
    rng = np.random.default_rng(88)
    circuit = random_mixed_circuit(rng, 4, 14)
    noise = NoiseModel(oneq_error=0.15, twoq_error=0.2, readout_error=0.03)
    reference = None
    for workers in (1, 4):
        counts = engine_counts(
            circuit,
            noise,
            "batched",
            shots=1024,
            seed=3,
            max_batch_memory=4096,
            trajectory_workers=workers,
        )
        if reference is None:
            reference = dict(counts)
        assert dict(counts) == reference, workers


def test_batched_matches_oracle_at_high_noise():
    # The batched engine's histogram must track the closed-form
    # distribution at rates far above the NISQ range as well.
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1).cx(1, 2).measure_all()
    noise = NoiseModel(oneq_error=0.1, twoq_error=0.2, readout_error=0.05)
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(circuit, noise, "batched")
    assert total_variation_distance(counts, exact) < tvd_bound(exact, SHOTS)


# -- full sweep (slow lane) ---------------------------------------------------------


SWEEP_NOISE = (
    None,
    NoiseModel(oneq_error=0.02, twoq_error=0.04),
    NoiseModel(oneq_error=0.08, twoq_error=0.12, readout_error=0.03),
)


@pytest.mark.slow
@pytest.mark.parametrize("num_qubits", [2, 3, 4])
@pytest.mark.parametrize("noise_index", range(len(SWEEP_NOISE)))
@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
def test_differential_sweep_unitary_circuits(num_qubits, noise_index, circuit_seed):
    noise = SWEEP_NOISE[noise_index]
    rng = np.random.default_rng(1000 * num_qubits + 10 * noise_index + circuit_seed)
    circuit = random_unitary_circuit(rng, num_qubits, 6 * num_qubits)
    circuit.measure_all()
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(circuit, noise, "batched", seed=circuit_seed)
    assert total_variation_distance(counts, exact) < tvd_bound(exact, SHOTS)
    # Chi-square as a second lens: dof ~ #outcomes; 5x dof is far beyond any
    # plausible statistical fluctuation yet catches gross distribution bugs.
    assert chi_square_statistic(counts, exact) < 5 * max(len(exact), 4) + 30


@pytest.mark.slow
@pytest.mark.parametrize("num_qubits", [2, 3])
@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
def test_differential_sweep_mixed_circuits(num_qubits, circuit_seed):
    noise = NoiseModel(oneq_error=0.03, twoq_error=0.06, readout_error=0.02)
    rng = np.random.default_rng(500 + 10 * num_qubits + circuit_seed)
    circuit = random_mixed_circuit(rng, num_qubits, 5 * num_qubits)
    exact = exact_distribution(circuit, noise)
    for engine, shots in (("batched", SHOTS), ("reference", 768)):
        counts = engine_counts(circuit, noise, engine, shots=shots, seed=circuit_seed)
        assert total_variation_distance(counts, exact) < tvd_bound(exact, shots), engine


@pytest.mark.slow
@pytest.mark.parametrize("num_qubits", [2, 3, 4])
@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
def test_sweep_noisy_cache_and_worker_identity(num_qubits, circuit_seed):
    # Sweep lane of the noisy identities over random mixed circuits at rates
    # above the NISQ range: cold-vs-warm compile per engine, and seeded
    # counts per worker count.
    rng = np.random.default_rng(4200 + 10 * num_qubits + circuit_seed)
    circuit = random_mixed_circuit(rng, num_qubits, 5 * num_qubits)
    noise = NoiseModel(oneq_error=0.08, twoq_error=0.14, readout_error=0.02)
    for engine, shots in (("batched", 1024), ("reference", 128), ("density", 512)):
        clear_compile_caches()
        cold = engine_counts(circuit, noise, engine, shots=shots, seed=circuit_seed)
        warm = engine_counts(circuit, noise, engine, shots=shots, seed=circuit_seed)
        assert dict(cold) == dict(warm), engine
    reference = None
    for workers in (1, 2, 4):
        counts = engine_counts(
            circuit,
            noise,
            "batched",
            shots=1024,
            seed=circuit_seed,
            max_batch_memory=2048,
            trajectory_workers=workers,
        )
        if reference is None:
            reference = dict(counts)
        assert dict(counts) == reference, workers


@pytest.mark.slow
@pytest.mark.parametrize("num_qubits", [2, 3, 4])
@pytest.mark.parametrize("noise_index", range(len(SWEEP_NOISE)))
@pytest.mark.parametrize("circuit_seed", [0, 1, 2])
def test_differential_sweep_clifford_circuits(num_qubits, noise_index, circuit_seed):
    # The stabilizer tentpole sweep: seeded random Clifford circuits checked
    # against the density oracle (TVD + chi-square) and against the batched
    # amplitude engine, across the same noise grid as the unitary sweep.
    noise = SWEEP_NOISE[noise_index]
    rng = np.random.default_rng(7000 + 1000 * num_qubits + 10 * noise_index + circuit_seed)
    circuit = random_clifford_circuit(rng, num_qubits, 6 * num_qubits)
    exact = exact_distribution(circuit, noise)
    bound = tvd_bound(exact, SHOTS)
    stab = engine_counts(circuit, noise, "stabilizer", seed=circuit_seed)
    batched = engine_counts(circuit, noise, "batched", seed=circuit_seed)
    assert total_variation_distance(stab, exact) < bound
    assert total_variation_distance(batched, exact) < bound
    assert chi_square_statistic(stab, exact) < 5 * max(len(exact), 4) + 30
    # Engine-vs-engine: two empirical histograms of the same distribution.
    empirical = {key: value / SHOTS for key, value in stab.items()}
    assert total_variation_distance(batched, empirical) < 2 * bound


@pytest.mark.slow
def test_deterministic_density_sampling_tracks_exact_distribution():
    rng = np.random.default_rng(77)
    circuit = random_unitary_circuit(rng, 3, 18)
    circuit.measure_all()
    noise = NoiseModel(oneq_error=0.05, twoq_error=0.08)
    exact = exact_distribution(circuit, noise)
    counts = engine_counts(
        circuit, noise, "density", shots=100_000, density_sampling="deterministic"
    )
    # Largest-remainder apportionment is within 1 count of p*shots per key.
    assert total_variation_distance(counts, exact) < len(exact) / 100_000
