"""Variational fast-path benchmark: cached-parametric, expectation, batched grid.

Times the QAOA optimisation workload three ways at 8–12 qubits and writes
``BENCH_variational.json`` at the repository root:

* **grid-search stage** — the ``grid_resolution**...`` candidate sweep of
  ``optimize_qaoa`` as the PR 3 baseline (sampled mode: per-candidate
  bind -> package -> transpile -> simulate -> sample) versus the PR 4 fast
  path (expectation mode: one batched evolution with the candidate axis on
  the batch axis).  The headline target is **>= 10x at 12 qubits**.
* **sequential evaluations** — single-point ``evaluate`` throughput
  (evals/sec), sampled versus exact expectation.
* **parametric compilation** — compiles/sec of the fusion compiler on the
  per-evaluation circuit, cold (fresh structural analysis per compile)
  versus warm (template cache hit, re-bind only), plus the seeded-counts
  identity check between the cold and warm compile paths.

Run standalone (``python benchmarks/bench_variational.py``), as a quick CI
smoke (``python benchmarks/bench_variational.py --smoke``: one tiny row, no
JSON written), or via pytest (``pytest benchmarks/bench_variational.py``).
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.problems import MaxCutProblem
from repro.simulators.gate import (
    StatevectorSimulator,
    clear_compile_caches,
    compile_cache_info,
)
from repro.workflows import VariationalEvaluator, default_gate_context

GRID_RESOLUTION = 8
SAMPLES = 1024
SEED = 17
QUBIT_SIZES = (8, 10, 12)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_variational.json"


def ring_with_chords(num_nodes):
    """A ring plus skip-one chords: a denser landscape than the bare cycle."""
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    edges += [(i, (i + 2) % num_nodes) for i in range(0, num_nodes, 2)]
    weights = [1.0 + 0.1 * (k % 3) for k in range(len(edges))]
    return MaxCutProblem.from_edges(edges, weights=weights)


def grid_candidates(resolution):
    """The optimiser's first-layer grid as flat (gammas, betas) arrays."""
    grid = np.linspace(0.0, np.pi, resolution, endpoint=False)[1:]
    return np.repeat(grid, len(grid)), np.tile(grid, len(grid))


def time_call(fn, repeats=1):
    """Best-of-*repeats* wall clock and the last return value."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_row(num_qubits, *, grid_resolution=GRID_RESOLUTION, samples=SAMPLES):
    """One benchmark row: grid stage, sequential evals, compile cache."""
    problem = ring_with_chords(num_qubits)
    gammas, betas = grid_candidates(grid_resolution)
    candidates = len(gammas)

    sampled = VariationalEvaluator(
        problem, context=default_gate_context(problem, samples=samples, seed=SEED)
    )
    exact = VariationalEvaluator(
        problem,
        context=default_gate_context(
            problem, samples=samples, seed=SEED, variational_evaluation="expectation"
        ),
    )

    # Grid-search stage: sequential recompile-and-sample vs one batched sweep.
    baseline_grid_s, baseline_values = time_call(
        lambda: [sampled.evaluate([g], [b]) for g, b in zip(gammas, betas)]
    )
    fast_grid_s, fast_values = time_call(
        lambda: exact.evaluate_grid(gammas, betas), repeats=3
    )
    # Same landscape: the sampled estimates must track the exact sweep.
    spread = float(np.max(np.abs(np.asarray(baseline_values) - fast_values)))
    assert spread < 0.8, f"sampled and exact landscapes disagree by {spread}"
    assert int(np.argmax(baseline_values)) == int(np.argmax(fast_values)) or (
        abs(np.max(baseline_values) - baseline_values[int(np.argmax(fast_values))])
        < 0.25
    )

    # Sequential single-point evaluations.
    point = (float(gammas[candidates // 2]), float(betas[candidates // 2]))
    sampled_eval_s, _ = time_call(lambda: sampled.evaluate([point[0]], [point[1]]))
    exact_eval_s, _ = time_call(
        lambda: exact.evaluate([point[0]], [point[1]]), repeats=3
    )

    # Parametric compilation: cold structural analysis vs warm re-bind.
    circuit = exact._qaoa_circuit([point[0]], [point[1]])
    from repro.simulators.gate import (
        compile_trajectory_program,
        compile_trajectory_program_cached,
    )

    compile_repeats = 25
    cold_s, _ = time_call(
        lambda: [compile_trajectory_program(circuit) for _ in range(compile_repeats)]
    )
    compile_trajectory_program_cached(circuit)  # prime the template cache
    warm_s, _ = time_call(
        lambda: [
            compile_trajectory_program_cached(circuit) for _ in range(compile_repeats)
        ]
    )

    # Seeded-counts identity across the cold and warm compile paths.
    check = circuit.copy()
    check.num_clbits = check.num_qubits
    for q in range(check.num_qubits):
        check.measure(q, q)
    simulator = StatevectorSimulator()
    clear_compile_caches()
    cold_counts = simulator.run(check, shots=256, seed=SEED).counts
    warm_counts = simulator.run(check, shots=256, seed=SEED).counts
    info = compile_cache_info()
    cache_hits = info["template"]["hits"] + info["program"]["hits"]
    seeded_identical = dict(cold_counts) == dict(warm_counts) and cache_hits >= 1
    assert seeded_identical, "cold/warm compile paths changed seeded counts"

    return {
        "num_qubits": num_qubits,
        "edges": len(problem.edges),
        "grid_candidates": candidates,
        "samples": samples,
        "grid_sampled_s": round(baseline_grid_s, 4),
        "grid_expectation_batched_s": round(fast_grid_s, 4),
        "grid_speedup": round(baseline_grid_s / fast_grid_s, 1),
        "grid_evals_per_s_sampled": round(candidates / baseline_grid_s, 1),
        "grid_evals_per_s_batched": round(candidates / fast_grid_s, 1),
        "eval_sampled_s": round(sampled_eval_s, 5),
        "eval_expectation_s": round(exact_eval_s, 5),
        "eval_speedup": round(sampled_eval_s / exact_eval_s, 1),
        "compile_cold_per_s": round(compile_repeats / cold_s, 1),
        "compile_warm_per_s": round(compile_repeats / warm_s, 1),
        "compile_speedup": round(cold_s / warm_s, 1),
        "seeded_counts_identical_cold_vs_warm": seeded_identical,
    }


def run_suite(qubit_sizes=QUBIT_SIZES, write=True):
    """Time every size and (optionally) write the JSON record."""
    rows = [bench_row(n) for n in qubit_sizes]
    record = {
        "benchmark": "variational_fastpath",
        "grid_resolution": GRID_RESOLUTION,
        "samples": SAMPLES,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    if write:
        OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_variational_fastpath_speedup():
    """The batched expectation grid beats recompile-and-sample >= 10x at 12q."""
    record = run_suite()
    headline = max(record["rows"], key=lambda row: row["num_qubits"])
    assert headline["num_qubits"] == 12
    assert headline["grid_speedup"] >= 10.0, record
    assert all(row["seeded_counts_identical_cold_vs_warm"] for row in record["rows"])


def test_variational_smoke():
    """Tiny fast-lane row: every fast-path component runs and agrees."""
    row = bench_row(6, grid_resolution=4, samples=128)
    assert row["seeded_counts_identical_cold_vs_warm"]
    assert row["grid_expectation_batched_s"] > 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        row = bench_row(6, grid_resolution=4, samples=128)
        print(json.dumps(row, indent=2))
    else:
        print(json.dumps(run_suite(), indent=2))
