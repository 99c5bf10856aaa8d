"""Tests for the variational fast path (PR 4).

Covers the three layers of the fast path:

* **parametric compilation cache** — re-binding a cached template to a
  structurally identical circuit with different angles produces a program
  bit-identical to a fresh compilation, and seeded simulator counts are
  identical whether the compile came from a cold or warm cache;
* **shot-free expectation evaluation** — ``variational_evaluation =
  "expectation"`` matches the density oracle exactly on noiseless circuits,
  routes through the oracle when noise + ``trajectory_engine="density"``
  are configured, and rejects noisy sampling engines;
* **batched parameter-grid sweeps** — the vectorized grid equals sequential
  per-candidate evaluation, and is bit-identical under any chunking of the
  candidate axis.
"""

import numpy as np
import pytest

from repro.core.errors import ContextError
from repro.problems import MaxCutProblem
from repro.simulators.gate import (
    Circuit,
    StatevectorSimulator,
    clear_compile_caches,
    compile_cache_info,
    compile_trajectory_program,
    compile_trajectory_program_cached,
)
from repro.simulators.gate.fusion import GateStep
from repro.workflows import (
    VariationalEvaluator,
    default_gate_context,
    evaluate_angles,
    optimize_qaoa,
)


def qaoa_like_circuit(num_qubits, gamma, beta, *, measure=True, mid_measure=False):
    """A QAOA-shaped circuit whose angles are the only varying structure."""
    circuit = Circuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
    for q in range(num_qubits - 1):
        circuit.rzz(2.0 * gamma, q, q + 1)
    if mid_measure:
        circuit.measure(0, 0)
    for q in range(num_qubits):
        circuit.rx(2.0 * beta, q)
    if measure:
        for q in range(num_qubits):
            circuit.measure(q, q)
    return circuit


def assert_programs_identical(a, b):
    """Bit-exact equality of two compiled trajectory programs."""
    assert a.num_qubits == b.num_qubits and a.num_clbits == b.num_clbits
    assert a.terminal == b.terminal
    assert len(a.steps) == len(b.steps)
    for step_a, step_b in zip(a.steps, b.steps):
        assert type(step_a) is type(step_b)
        if isinstance(step_a, GateStep):
            assert step_a.qubits == step_b.qubits
            assert np.array_equal(step_a.matrix, step_b.matrix)
            assert step_a.plan == step_b.plan
        else:
            assert step_a == step_b


# -- parametric compilation cache ------------------------------------------------


def test_parametric_rebind_matches_fresh_compile():
    clear_compile_caches()
    cold = qaoa_like_circuit(5, 0.3, 0.7)
    warm = qaoa_like_circuit(5, 1.1, 0.2)
    compile_trajectory_program_cached(cold)
    info = compile_cache_info()["template"]
    assert info["misses"] == 1 and info["entries"] == 1
    rebound = compile_trajectory_program_cached(warm)
    info = compile_cache_info()
    assert info["template"]["hits"] == 1 and info["program"]["hits"] == 0, info
    fresh = compile_trajectory_program(warm)
    assert_programs_identical(rebound, fresh)


def test_parametric_cache_keyed_on_structure_not_params():
    clear_compile_caches()
    for angle in (0.1, 0.2, 0.3, 0.4):
        compile_trajectory_program_cached(qaoa_like_circuit(4, angle, -angle))
    info = compile_cache_info()
    assert info["template"]["misses"] == 1 and info["template"]["hits"] == 3
    assert info["program"]["hits"] == 0
    # A different structure (extra gate) must miss.
    other = qaoa_like_circuit(4, 0.1, -0.1)
    other.instructions.insert(0, other.instructions[0])
    compile_trajectory_program_cached(other)
    assert compile_cache_info()["template"]["misses"] == 2


def test_barriers_do_not_change_the_cache_key():
    clear_compile_caches()
    plain = qaoa_like_circuit(4, 0.5, 0.6)
    compile_trajectory_program_cached(plain)
    barred = Circuit(4, 4)
    for inst in qaoa_like_circuit(4, 0.9, 0.1).instructions:
        barred.append(inst.name, inst.qubits, inst.params, inst.clbits)
        if inst.name == "rzz":
            barred.barrier()
    rebound = compile_trajectory_program_cached(barred)
    assert compile_cache_info()["template"]["hits"] == 1
    assert_programs_identical(rebound, compile_trajectory_program(barred))


def test_seeded_counts_identical_across_cold_and_warm_cache():
    # Mid-circuit measurement forces the (noiseless) batched trajectory
    # path, which compiles through the cache.
    circuit = qaoa_like_circuit(4, 0.4, 0.9, mid_measure=True)
    simulator = StatevectorSimulator()
    clear_compile_caches()
    cold = simulator.run(circuit, shots=512, seed=11).counts
    assert compile_cache_info()["template"]["misses"] >= 1
    warm = simulator.run(circuit, shots=512, seed=11).counts
    assert compile_cache_info()["program"]["hits"] >= 1
    assert dict(cold) == dict(warm)


def test_exact_path_uses_fused_program_and_cache():
    clear_compile_caches()
    circuit = qaoa_like_circuit(6, 0.3, 0.5)
    simulator = StatevectorSimulator()
    first = simulator.run(circuit, shots=256, seed=3)
    assert first.metadata["method"] == "exact"
    assert compile_cache_info()["template"]["misses"] == 1
    second = simulator.run(qaoa_like_circuit(6, 1.2, 0.8), shots=256, seed=3)
    assert compile_cache_info()["template"]["hits"] == 1
    # Same seed, same angles -> bit-identical histogram on a warm cache.
    again = simulator.run(circuit, shots=256, seed=3)
    assert dict(again.counts) == dict(first.counts)
    assert second.counts.shots == 256


# -- expectation evaluation mode --------------------------------------------------


@pytest.fixture
def pentagon():
    """A 5-cycle with uneven weights (richer landscape than the 4-cycle)."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    return MaxCutProblem.from_edges(edges, weights=[1.0, 2.0, 1.0, 1.5, 0.5])


def test_expectation_mode_matches_density_oracle(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    pure = VariationalEvaluator(pentagon, reps=1, context=ctx)
    ctx_density = default_gate_context(pentagon, variational_evaluation="expectation")
    ctx_density.exec.options["trajectory_engine"] = "density"
    oracle = VariationalEvaluator(pentagon, reps=1, context=ctx_density)
    for gamma, beta in [(0.3, 0.4), (-0.8, 1.2), (2.0, 0.1)]:
        assert pure.evaluate([gamma], [beta]) == pytest.approx(
            oracle.evaluate([gamma], [beta]), abs=1e-10
        )


def test_expectation_mode_matches_sampled_statistically(pentagon):
    ctx = default_gate_context(
        pentagon, samples=20000, variational_evaluation="expectation"
    )
    exact = VariationalEvaluator(pentagon, reps=1, context=ctx).evaluate([0.4], [0.6])
    sampled = evaluate_angles(
        pentagon, [0.4], [0.6], context=default_gate_context(pentagon, samples=20000)
    )
    assert sampled == pytest.approx(exact, abs=0.15)


def test_expectation_mode_rejects_noisy_sampling_engines(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    ctx.exec.options["noise"] = {"oneq_error": 1e-3}
    with pytest.raises(ContextError):
        VariationalEvaluator(pentagon, reps=1, context=ctx)
    # ... but the density oracle accepts noise and lowers the expected cut.
    ctx.exec.options["trajectory_engine"] = "density"
    noisy = VariationalEvaluator(pentagon, reps=1, context=ctx)
    ctx_clean = default_gate_context(pentagon, variational_evaluation="expectation")
    clean = VariationalEvaluator(pentagon, reps=1, context=ctx_clean)
    assert noisy.evaluate([0.4], [0.6]) == pytest.approx(
        clean.evaluate([0.4], [0.6]), abs=0.05
    )


def test_unknown_variational_mode_rejected(pentagon):
    ctx = default_gate_context(pentagon)
    ctx.exec.options["variational_evaluation"] = "oracle"
    with pytest.raises(ContextError):
        VariationalEvaluator(pentagon, context=ctx)


# -- batched parameter-grid sweeps -------------------------------------------------


def test_grid_sweep_matches_sequential_evaluation(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    evaluator = VariationalEvaluator(pentagon, reps=1, context=ctx)
    grid = np.linspace(0.1, 3.0, 6)
    gammas = np.repeat(grid, len(grid))
    betas = np.tile(grid, len(grid))
    batched = evaluator.evaluate_grid(gammas, betas)
    sequential = np.array(
        [evaluator.evaluate([g], [b]) for g, b in zip(gammas, betas)]
    )
    assert np.allclose(batched, sequential, atol=1e-10)


def test_grid_sweep_bit_identical_under_chunking(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    evaluator = VariationalEvaluator(pentagon, reps=1, context=ctx)
    grid = np.linspace(0.2, 2.8, 7)
    gammas = np.repeat(grid, len(grid))
    betas = np.tile(grid, len(grid))
    bytes_per_column = 2 * 16 * (1 << pentagon.num_nodes)
    one_chunk = evaluator.evaluate_grid(gammas, betas)
    per_candidate = evaluator.evaluate_grid(
        gammas, betas, max_batch_memory=bytes_per_column
    )
    ragged = evaluator.evaluate_grid(
        gammas, betas, max_batch_memory=5 * bytes_per_column
    )
    assert np.array_equal(one_chunk, per_candidate)
    assert np.array_equal(one_chunk, ragged)


def test_grid_sweep_multilayer_candidates(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    evaluator = VariationalEvaluator(pentagon, reps=2, context=ctx)
    rng = np.random.default_rng(5)
    gammas = rng.uniform(0, np.pi, size=(4, 2))
    betas = rng.uniform(0, np.pi, size=(4, 2))
    batched = evaluator.evaluate_grid(gammas, betas)
    sequential = np.array(
        [
            evaluator.evaluate(tuple(gammas[k]), tuple(betas[k]))
            for k in range(len(gammas))
        ]
    )
    assert np.allclose(batched, sequential, atol=1e-10)


def test_grid_sweep_falls_back_sequentially_for_density(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    ctx.exec.options["trajectory_engine"] = "density"
    evaluator = VariationalEvaluator(pentagon, reps=1, context=ctx)
    assert not evaluator.supports_batched_grid
    values = evaluator.evaluate_grid([0.3, 0.9], [0.5, 0.5])
    assert values.shape == (2,)
    assert evaluator.evaluations == 2


# -- the optimiser end to end ------------------------------------------------------


def test_optimize_qaoa_expectation_mode_finds_good_angles(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    result = optimize_qaoa(
        pentagon, reps=1, context=ctx, grid_resolution=6, refine=True,
        max_refine_iterations=20,
    )
    assert result.approximation_ratio > 0.65
    # Grid stage (25 candidates) plus refinement evaluations, all recorded.
    assert result.evaluations == len(result.history)
    assert result.evaluations >= 25
    bad = VariationalEvaluator(pentagon, reps=1, context=ctx).evaluate([0.01], [0.01])
    assert result.best_expected_cut > bad


def test_optimize_qaoa_sampled_mode_unchanged_contract(pentagon):
    result = optimize_qaoa(
        pentagon,
        reps=1,
        context=default_gate_context(pentagon, samples=512),
        grid_resolution=4,
        refine=False,
    )
    assert result.evaluations == 9 == len(result.history)
    assert result.best_expected_cut > 0.0


def test_evaluator_session_reuses_intent_artifacts(pentagon):
    ctx = default_gate_context(pentagon, variational_evaluation="expectation")
    evaluator = VariationalEvaluator(pentagon, reps=1, context=ctx)
    template_before = evaluator.template
    qdt_before = evaluator.qdt
    evaluator.evaluate([0.2], [0.3])
    evaluator.evaluate([1.2], [2.3])
    assert evaluator.template is template_before
    assert evaluator.qdt is qdt_before
    assert evaluator.evaluations == 2
