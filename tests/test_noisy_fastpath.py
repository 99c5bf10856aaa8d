"""Tests for the noisy fast path (PR 5).

Covers three layers:

* **noisy parametric compilation** — a template bound with a noise model
  produces programs bit-identical to the uncached noisy compile, for the
  source circuit and for re-binds with fresh angles;
* **two-level compile cache** — program-level hits for exact re-runs,
  template-level hits for re-binds, noise folded into the program key (the
  trajectory dtype is not: both dtypes share one bound program), bounded
  LRUs with eviction, introspection via ``compile_cache_info``;
* **transpile cache** — structure-keyed routing replay returns circuits
  identical to the uncached transpiler, with counters and eviction.
"""

import numpy as np
import pytest

from repro.simulators.gate import (
    DEFAULT_COMPILE_CACHE_SIZE,
    Circuit,
    NoiseModel,
    StatevectorSimulator,
    clear_compile_caches,
    compile_cache_info,
    compile_trajectory_program,
    compile_trajectory_program_cached,
    set_compile_cache_size,
    transpile,
    transpile_cached,
)
from repro.simulators.gate.circuit import Instruction
from repro.simulators.gate.fusion import GateStep, compile_parametric_template
from repro.simulators.gate.transpiler import (
    clear_transpile_cache,
    set_transpile_cache_size,
    transpile_cache_info,
)

from engine_testlib import (
    random_mixed_circuit,
    random_unitary_circuit,
    reference_trajectories,
)

NOISE = NoiseModel(oneq_error=0.05, twoq_error=0.12, readout_error=0.02)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Every test starts and ends with empty compile caches at default size."""
    clear_compile_caches()
    set_compile_cache_size(DEFAULT_COMPILE_CACHE_SIZE)
    yield
    clear_compile_caches()
    set_compile_cache_size(DEFAULT_COMPILE_CACHE_SIZE)


def qaoa_like_circuit(num_qubits, gamma, beta, *, measure=True):
    """A QAOA-shaped circuit whose angles are the only varying structure."""
    circuit = Circuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
    for q in range(num_qubits - 1):
        circuit.rzz(2.0 * gamma, q, q + 1)
    for q in range(num_qubits):
        circuit.rx(2.0 * beta, q)
    if measure:
        for q in range(num_qubits):
            circuit.measure(q, q)
    return circuit


def assert_noisy_programs_identical(a, b):
    """Bit-exact equality of two compiled programs, noise events included."""
    assert a.num_qubits == b.num_qubits and a.num_clbits == b.num_clbits
    assert a.terminal == b.terminal
    assert len(a.steps) == len(b.steps)
    for step_a, step_b in zip(a.steps, b.steps):
        assert type(step_a) is type(step_b)
        if not isinstance(step_a, GateStep):
            assert step_a == step_b
            continue
        assert step_a.qubits == step_b.qubits
        assert np.array_equal(step_a.matrix, step_b.matrix)
        assert step_a.plan == step_b.plan
        assert len(step_a.noise) == len(step_b.noise)
        for event_a, event_b in zip(step_a.noise, step_b.noise):
            assert event_a.qubits == event_b.qubits
            assert event_a.rate == event_b.rate
            assert len(event_a.operators) == len(event_b.operators)
            for (mat_a, plan_a), (mat_b, plan_b) in zip(
                event_a.operators, event_b.operators
            ):
                assert np.array_equal(mat_a, mat_b)
                assert plan_a == plan_b


# -- noisy parametric compilation ---------------------------------------------------


def test_noisy_cached_compile_is_bit_identical_to_uncached():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        circuit = random_mixed_circuit(rng, 4, 18)
        cached = compile_trajectory_program_cached(circuit, NOISE)
        fresh = compile_trajectory_program(circuit, NOISE)
        assert_noisy_programs_identical(cached, fresh)


def test_noisy_template_rebinds_to_fresh_angles():
    cold = qaoa_like_circuit(5, 0.3, 0.7)
    warm = qaoa_like_circuit(5, 1.1, 0.2)
    compile_trajectory_program_cached(cold, NOISE)
    rebound = compile_trajectory_program_cached(warm, NOISE)
    info = compile_cache_info()
    assert info["template"]["misses"] == 1 and info["template"]["hits"] == 1
    assert_noisy_programs_identical(rebound, compile_trajectory_program(warm, NOISE))


def test_noisy_bind_via_template_matches_one_shot_compiler():
    # Same-pair-fusion-heavy circuits exercise the segment replay hardest.
    from test_fusion_properties import same_pair_heavy_circuit

    for seed in range(3):
        rng = np.random.default_rng(7700 + seed)
        circuit = same_pair_heavy_circuit(3, rng, length=18)
        template = compile_parametric_template(circuit)
        bound = template.bind(circuit, NOISE)
        assert_noisy_programs_identical(bound, compile_trajectory_program(circuit, NOISE))


def test_program_cache_hits_on_exact_rerun():
    circuit = qaoa_like_circuit(4, 0.4, 0.9)
    first = compile_trajectory_program_cached(circuit, NOISE)
    second = compile_trajectory_program_cached(circuit, NOISE)
    assert second is first  # the immutable program is shared, not rebound
    info = compile_cache_info()
    assert info["program"]["hits"] == 1 and info["program"]["misses"] == 1


def test_program_cache_key_separates_noise_but_not_dtype():
    circuit = qaoa_like_circuit(4, 0.4, 0.9)
    for dtype in ("complex64", "complex128"):
        simulator = StatevectorSimulator(noise_model=NOISE, trajectory_dtype=dtype)
        simulator.run(circuit, shots=64, seed=3)
    # Bound programs hold complex128 operators only (the engine casts at
    # apply time), so the complex128 run reuses the complex64 run's entry.
    info = compile_cache_info()["program"]
    assert (info["entries"], info["misses"], info["hits"]) == (1, 1, 1)
    noisy = compile_trajectory_program_cached(circuit, NOISE)
    noiseless = compile_trajectory_program_cached(circuit)
    assert noisy is not noiseless
    assert not any(
        step.noise for step in noiseless.steps if isinstance(step, GateStep)
    )
    assert compile_cache_info()["program"]["entries"] == 2


def test_readout_only_noise_compiles_without_events():
    circuit = qaoa_like_circuit(3, 0.2, 0.5)
    readout = NoiseModel(readout_error=0.1)
    program = compile_trajectory_program_cached(circuit, readout)
    assert not any(
        step.noise for step in program.steps if isinstance(step, GateStep)
    )


def test_compile_cache_lru_eviction_is_bounded_and_oldest_first():
    set_compile_cache_size(3)
    circuits = [qaoa_like_circuit(n, 0.3, 0.6) for n in (2, 3, 4, 5)]
    for circuit in circuits:
        compile_trajectory_program_cached(circuit, NOISE)
    info = compile_cache_info()
    assert info["template"]["entries"] == 3
    assert info["program"]["entries"] == 3
    assert info["template"]["maxsize"] == 3
    # The oldest structure (2 qubits) was evicted: recompiling misses again.
    before = compile_cache_info()["template"]["misses"]
    compile_trajectory_program_cached(circuits[0], NOISE)
    assert compile_cache_info()["template"]["misses"] == before + 1
    # The newest survivors still hit.
    before_hits = compile_cache_info()["program"]["hits"]
    compile_trajectory_program_cached(circuits[-1], NOISE)
    assert compile_cache_info()["program"]["hits"] == before_hits + 1


def test_shrinking_the_cache_evicts_immediately():
    for n in (2, 3, 4, 5):
        compile_trajectory_program_cached(qaoa_like_circuit(n, 0.1, 0.2), NOISE)
    set_compile_cache_size(2)
    info = compile_cache_info()
    assert info["template"]["entries"] == 2 and info["program"]["entries"] == 2


def test_compile_cache_size_knob_on_simulator():
    # set_compile_cache_size is the one way to bound the compile caches.
    set_compile_cache_size(7)
    assert compile_cache_info()["template"]["maxsize"] == 7
    assert transpile_cache_info()["maxsize"] == 7
    with pytest.raises(ValueError):
        set_compile_cache_size(0)
    with pytest.raises(ValueError):
        set_compile_cache_size("many")


def test_gate_registration_invalidates_compile_caches():
    from repro.simulators.gate.gates import _GATES, register_gate

    compile_trajectory_program_cached(qaoa_like_circuit(3, 0.1, 0.2), NOISE)
    assert compile_cache_info()["program"]["entries"] == 1
    name = "probe_gate_for_cache_invalidation"
    try:
        register_gate(name, 1, 0, lambda: np.eye(2, dtype=complex), replace=True)
        # Compiled programs may embed matrices of any definition; a changed
        # registry flushes them all.
        assert compile_cache_info()["program"]["entries"] == 0
        assert compile_cache_info()["template"]["entries"] == 0
    finally:
        _GATES.pop(name, None)


# -- the per-shot reference oracle on compiled programs -----------------------------


def test_reference_engine_reports_compiled_steps_and_stays_deterministic():
    rng = np.random.default_rng(3)
    circuit = random_mixed_circuit(rng, 3, 10)
    first = reference_trajectories(circuit, NOISE, shots=128, seed=7)
    second = reference_trajectories(circuit, NOISE, shots=128, seed=7)
    assert dict(first.counts) == dict(second.counts)
    assert first.metadata["compiled_steps"] >= 1
    # The warm rerun was served by the program cache.
    assert compile_cache_info()["program"]["hits"] >= 1


# -- transpile cache ----------------------------------------------------------------

RING = tuple((i, (i + 1) % 6) for i in range(6))
BASIS = ("rz", "sx", "cx")


def assert_circuits_identical(a, b):
    """Instruction-by-instruction equality (names, qubits, params, clbits)."""
    assert a.num_qubits == b.num_qubits and a.num_clbits == b.num_clbits
    assert a.instructions == b.instructions


@pytest.mark.parametrize("optimization_level", [0, 1, 2])
def test_transpile_cached_equals_uncached(optimization_level):
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        circuit = random_unitary_circuit(rng, 6, 20)
        circuit.measure_all()
        cached = transpile_cached(
            circuit,
            basis_gates=BASIS,
            coupling_map=RING,
            optimization_level=optimization_level,
        )
        fresh = transpile(
            circuit,
            basis_gates=BASIS,
            coupling_map=RING,
            optimization_level=optimization_level,
        )
        assert_circuits_identical(cached.circuit, fresh.circuit)
        assert cached.metrics == fresh.metrics
        assert cached.initial_layout.to_dict() == fresh.initial_layout.to_dict()
        assert cached.final_layout.to_dict() == fresh.final_layout.to_dict()
        assert cached.num_swaps_inserted == fresh.num_swaps_inserted


def test_transpile_cache_rebinds_fresh_parameters_on_structure_hits():
    clear_transpile_cache()
    transpile_cached(
        qaoa_like_circuit(6, 0.3, 0.5),
        basis_gates=BASIS,
        coupling_map=RING,
        optimization_level=2,
    )
    for k in range(4):
        circuit = qaoa_like_circuit(6, 0.11 * k + 0.05, 0.07 * k + 0.02)
        cached = transpile_cached(
            circuit, basis_gates=BASIS, coupling_map=RING, optimization_level=2
        )
        fresh = transpile(
            circuit, basis_gates=BASIS, coupling_map=RING, optimization_level=2
        )
        assert_circuits_identical(cached.circuit, fresh.circuit)
    info = transpile_cache_info()
    assert info["misses"] == 1 and info["hits"] == 4 and info["fallbacks"] == 0


def test_transpile_cache_distinguishes_pass_config():
    clear_transpile_cache()
    circuit = qaoa_like_circuit(6, 0.3, 0.5)
    transpile_cached(circuit, basis_gates=BASIS, coupling_map=RING)
    transpile_cached(circuit, basis_gates=BASIS)
    transpile_cached(circuit, basis_gates=BASIS, coupling_map=RING, optimization_level=2)
    assert transpile_cache_info()["entries"] == 3


def test_transpile_cache_eviction():
    clear_transpile_cache()
    set_transpile_cache_size(2)
    try:
        for n in (3, 4, 5):
            transpile_cached(qaoa_like_circuit(n, 0.1, 0.2), basis_gates=BASIS)
        assert transpile_cache_info()["entries"] == 2
    finally:
        set_transpile_cache_size(DEFAULT_COMPILE_CACHE_SIZE)


def assert_results_identical(cached, fresh):
    """Circuit, name, metadata, metrics, layouts and swap count all agree."""
    assert_circuits_identical(cached.circuit, fresh.circuit)
    assert cached.circuit.name == fresh.circuit.name
    assert cached.circuit.metadata == fresh.circuit.metadata
    assert cached.metrics == fresh.metrics
    assert cached.initial_layout.to_dict() == fresh.initial_layout.to_dict()
    assert cached.final_layout.to_dict() == fresh.final_layout.to_dict()
    assert cached.num_swaps_inserted == fresh.num_swaps_inserted
    assert (cached.basis_gates, cached.coupling_map) == (fresh.basis_gates, fresh.coupling_map)


@pytest.mark.parametrize("optimization_level", [0, 1, 2])
def test_repeated_input_returns_the_stored_result_equal_to_a_fresh_transpile(
    optimization_level,
):
    clear_transpile_cache()
    rng = np.random.default_rng(18)
    base = random_unitary_circuit(rng, 6, 20)
    base.measure_all()
    config = dict(basis_gates=BASIS, coupling_map=RING, optimization_level=optimization_level)
    for repeat in range(4):
        # Same structure and parameters, a caller-specific name and metadata.
        circuit = base.copy(name=f"job{repeat}")
        circuit.metadata = {"caller": repeat, "basis_gates": "overridden"}
        cached = transpile_cached(circuit, **config)
        assert_results_identical(cached, transpile(circuit, **config))
        assert cached.circuit.name == f"job{repeat}"
        assert cached.circuit.metadata["caller"] == repeat
    info = transpile_cache_info()
    assert (info["misses"], info["hits"], info["fallbacks"]) == (1, 3, 0)


def test_mutating_a_returned_result_leaves_the_next_hit_unchanged():
    clear_transpile_cache()
    circuit = qaoa_like_circuit(5, 0.3, 0.5)
    config = dict(basis_gates=BASIS, coupling_map=RING, optimization_level=1)
    first = transpile_cached(circuit, **config)
    for result in (first, transpile_cached(circuit, **config)):
        result.circuit.instructions.clear()
        result.circuit.metadata["basis_gates"].append("ccx")
        result.circuit.metadata["touched"] = True
        result.metrics["depth"] = -1.0
        result.initial_layout.swap_physical(0, 1)
    again = transpile_cached(circuit, **config)
    assert_results_identical(again, transpile(circuit, **config))
    assert "touched" not in again.circuit.metadata


def test_changed_angle_rebinds_instead_of_returning_the_stored_result():
    clear_transpile_cache()
    config = dict(basis_gates=BASIS, coupling_map=RING, optimization_level=2)
    transpile_cached(qaoa_like_circuit(6, 0.3, 0.5), **config)
    for gamma in (0.3, 0.31, 0.31, 0.3):
        circuit = qaoa_like_circuit(6, gamma, 0.5)
        assert_results_identical(transpile_cached(circuit, **config), transpile(circuit, **config))
    # Labels ride through the passes, so they are compared like parameters.
    labelled = qaoa_like_circuit(6, 0.3, 0.5)
    labelled.instructions[0] = Instruction("h", (0,), label="first")
    assert_results_identical(transpile_cached(labelled, **config), transpile(labelled, **config))
    info = transpile_cache_info()
    assert (info["misses"], info["hits"], info["fallbacks"]) == (1, 5, 0)


def test_stored_result_hit_runs_no_pass(monkeypatch):
    from repro.simulators.gate.transpiler import passes

    clear_transpile_cache()
    circuit = qaoa_like_circuit(5, 0.3, 0.5)
    config = dict(basis_gates=BASIS, coupling_map=RING, optimization_level=2)
    transpile_cached(circuit, **config)
    calls = []
    real_optimize = passes.optimize_circuit

    def counting(*args, **kwargs):
        calls.append(args)
        return real_optimize(*args, **kwargs)

    monkeypatch.setattr(passes, "optimize_circuit", counting)
    for _ in range(3):
        transpile_cached(circuit, **config)
    assert calls == []
    transpile_cached(qaoa_like_circuit(5, 0.4, 0.5), **config)  # a re-bind still optimises
    assert len(calls) == 2
    info = transpile_cache_info()
    assert (info["misses"], info["hits"], info["fallbacks"]) == (1, 4, 0)


def test_concurrent_hits_never_mix_a_stored_result_with_other_parameters():
    # Lanes share the cache: each thread alternates angle sets on one
    # structure, so stored results are replaced while others read them.
    import sys
    import threading

    clear_transpile_cache()
    config = dict(basis_gates=BASIS, coupling_map=RING, optimization_level=1)
    circuits = [qaoa_like_circuit(5, 0.1 * k, 0.2) for k in range(3)]
    expected = [transpile(circuit, **config).circuit.instructions for circuit in circuits]
    mismatches = []

    def worker(offset):
        for i in range(60):
            k = (i + offset) % 3
            if transpile_cached(circuits[k], **config).circuit.instructions != expected[k]:
                mismatches.append(k)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert transpile_cache_info()["hits"] + transpile_cache_info()["misses"] == 240


def test_transpiled_noisy_counts_identical_cold_vs_warm_end_to_end():
    # The full backend-shaped pipeline: transpile (cached) then simulate with
    # a noisy compiled program (cached) — warm reruns must not move a count.
    circuit = qaoa_like_circuit(5, 0.8, 0.4)
    simulator = StatevectorSimulator(noise_model=NOISE)

    def run_once():
        transpiled = transpile_cached(
            circuit, basis_gates=BASIS, coupling_map=RING, optimization_level=1
        )
        return simulator.run(transpiled.circuit, shots=512, seed=23).counts

    cold = run_once()
    warm = run_once()
    assert dict(cold) == dict(warm)
    info = compile_cache_info()
    assert info["program"]["hits"] >= 1
    assert info["transpile"]["hits"] >= 1
