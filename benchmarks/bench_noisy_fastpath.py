"""Noisy fast-path benchmark: compile cache, transpile cache, verify guard.

Times the noisy compile path, the transpile cache and the verify guard, and
writes ``BENCH_noisy.json`` at the repository root:

* **noisy compilation** — compiles/sec of the fusion compiler on a noisy
  12-qubit QAOA circuit, cold (caches cleared per compile) versus warm
  (program-cache hit: the exact re-run every QEC/seed-sweep iteration pays)
  versus warm re-bind (template hit with fresh angles — the variational
  loop's iteration cost).  The headline target is **>= 5x warm vs cold**;
  the warm path is a dictionary hit, so the measured ratio is typically two
  orders of magnitude.
* **transpile cache** — structure-keyed transpile of the QAOA shape against
  an 8x8 grid device, uncached versus warm cache (routing replay).
* **verify guard** — warm noisy execution with the one verification switch
  (``analysis.set_verify_each``) off (twice: the second off row measures
  run-to-run timer noise, the honest baseline band) versus on.  The guard
  asserts the disabled switch adds no hot-path overhead beyond timer noise
  (``off_vs_baseline <= 1.25``); the structural argument — the off path is
  one ``is None`` check per run — lives in ``docs/static_analysis.md``.

Run standalone (``python benchmarks/bench_noisy_fastpath.py``), as a quick
CI smoke (``--smoke``: one tiny row, no JSON written), or via pytest
(``pytest benchmarks/bench_noisy_fastpath.py``, which asserts the floors).
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.simulators.gate import (
    Circuit,
    NoiseModel,
    StatevectorSimulator,
    analysis,
    clear_compile_caches,
    compile_trajectory_program_cached,
    transpile,
    transpile_cached,
)
from repro.simulators.gate.transpiler import clear_transpile_cache

SEED = 29
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_noisy.json"

#: Depolarizing rates of the headline compile row (QEC-flavoured: rare 1q
#: errors, 2q errors an order of magnitude more likely).
COMPILE_NOISE = {"oneq_error": 0.002, "twoq_error": 0.01, "readout_error": 0.01}

def qaoa_circuit(num_qubits, gamma, beta, *, measure=True):
    """Ring-plus-chords QAOA shape (the variational benchmarks' landscape)."""
    circuit = Circuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
    for q in range(num_qubits - 1):
        circuit.rzz(2.0 * gamma, q, q + 1)
    for q in range(0, num_qubits, 2):
        circuit.rzz(1.1 * gamma, q, (q + 2) % num_qubits)
    for q in range(num_qubits):
        circuit.rx(2.0 * beta, q)
    if measure:
        for q in range(num_qubits):
            circuit.measure(q, q)
    return circuit


def grid_coupling(rows, cols):
    """Edge list of a rows x cols nearest-neighbour device."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return edges


def time_loop(fn, repeats):
    """Total wall clock of *repeats* calls, as seconds per call."""
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def bench_compile(num_qubits, repeats):
    """Cold vs warm vs re-bind noisy compile throughput at one width."""
    noise = NoiseModel(**COMPILE_NOISE)
    circuit = qaoa_circuit(num_qubits, 0.4, 0.7)

    def cold():
        clear_compile_caches()
        compile_trajectory_program_cached(circuit, noise)

    cold_s = time_loop(cold, repeats)
    compile_trajectory_program_cached(circuit, noise)  # prime
    warm_s = time_loop(lambda: compile_trajectory_program_cached(circuit, noise), repeats)
    angles = iter(np.linspace(0.05, 2.9, repeats + 1))

    def rebind():
        angle = next(angles)
        compile_trajectory_program_cached(qaoa_circuit(num_qubits, angle, -angle), noise)

    rebind_s = time_loop(rebind, repeats)

    # Seeded counts must not depend on cache temperature.
    simulator = StatevectorSimulator(noise_model=noise)
    clear_compile_caches()
    cold_counts = simulator.run(circuit, shots=256, seed=SEED).counts
    warm_counts = simulator.run(circuit, shots=256, seed=SEED).counts
    identical = dict(cold_counts) == dict(warm_counts)
    assert identical, "cold/warm noisy compile changed seeded counts"

    return {
        "num_qubits": num_qubits,
        "noise": dict(COMPILE_NOISE),
        "compile_cold_ms": round(cold_s * 1e3, 4),
        "compile_warm_ms": round(warm_s * 1e3, 4),
        "compile_rebind_ms": round(rebind_s * 1e3, 4),
        "warm_speedup": round(cold_s / warm_s, 1),
        "rebind_speedup": round(cold_s / rebind_s, 1),
        "seeded_counts_identical_cold_vs_warm": identical,
    }


def bench_transpile(num_qubits, repeats, rows=8, cols=8):
    """Uncached vs warm structure-keyed transpile against a grid device."""
    coupling = grid_coupling(rows, cols)
    config = dict(
        basis_gates=["rz", "sx", "cx"], coupling_map=coupling, optimization_level=2
    )
    angles = np.linspace(0.05, 2.9, 2 * repeats + 2)
    clear_transpile_cache()
    uncached_s = time_loop(
        lambda: transpile(qaoa_circuit(num_qubits, angles[0], angles[1]), **config),
        repeats,
    )
    transpile_cached(qaoa_circuit(num_qubits, 0.3, 0.5), **config)  # prime
    pool = iter(angles)

    def warm():
        angle = next(pool)
        transpile_cached(qaoa_circuit(num_qubits, angle, -angle), **config)

    warm_s = time_loop(warm, repeats)
    return {
        "num_qubits": num_qubits,
        "device": f"{rows}x{cols} grid",
        "transpile_uncached_ms": round(uncached_s * 1e3, 3),
        "transpile_warm_ms": round(warm_s * 1e3, 3),
        "transpile_speedup": round(uncached_s / warm_s, 1),
    }


#: Noise-band ceiling for the verify guard: with the switch off the warm
#: run differs from the baseline by one ``is None`` check, so any measured
#: ratio above this is a real hot-path regression, not jitter.
VERIFY_OFF_CEILING = 1.25


def bench_verify_overhead(num_qubits, shots, repeats):
    """Warm-exec cost of the verification switch: off must be free.

    One noisy simulator runs the same warm (compile-cache-hit) workload three
    times: twice with ``analysis.set_verify_each`` off — the second
    quantifies run-to-run timer noise against the first — and once with it
    on, where each warm run verifies its result metadata (turning the switch
    on empties the compile caches, so the priming run also verifies the
    template, with the IR008 probe, and the program).  Each timing is the min
    over three measurement rounds so scheduler blips do not fail the guard.
    Seeded counts must be identical across all three (verification never
    touches the RNG stream).  The switch is restored afterwards.
    """
    simulator = StatevectorSimulator(noise_model=NoiseModel(**COMPILE_NOISE))
    circuit = qaoa_circuit(num_qubits, 0.4, 0.7)
    timings = {}
    counts = {}
    previous = analysis.verify_each_enabled()
    try:
        for label, enabled in (("baseline", False), ("off", False), ("on", True)):
            analysis.set_verify_each(enabled)
            simulator.run(circuit, shots=shots, seed=SEED)  # prime compile caches
            timings[label] = min(
                time_loop(lambda: simulator.run(circuit, shots=shots, seed=SEED), repeats)
                for _ in range(3)
            )
            counts[label] = dict(simulator.run(circuit, shots=shots, seed=SEED).counts)
    finally:
        analysis.set_verify_each(previous)
    identical = counts["baseline"] == counts["off"] == counts["on"]
    assert identical, "the verification switch changed seeded counts"
    return {
        "num_qubits": num_qubits,
        "shots": shots,
        "exec_baseline_ms": round(timings["baseline"] * 1e3, 4),
        "exec_off_ms": round(timings["off"] * 1e3, 4),
        "exec_on_ms": round(timings["on"] * 1e3, 4),
        "off_vs_baseline": round(timings["off"] / timings["baseline"], 3),
        "on_vs_baseline": round(timings["on"] / timings["baseline"], 3),
        "seeded_counts_identical": identical,
    }


def run_suite(write=True, *, compile_qubits=12, shots=2048, repeats=40):
    """Time every section and (optionally) write the JSON record."""
    record = {
        "benchmark": "noisy_fastpath",
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "compile": bench_compile(compile_qubits, repeats),
        "transpile": bench_transpile(compile_qubits, max(repeats // 2, 5)),
        "verify": bench_verify_overhead(
            min(compile_qubits, 8), min(shots, 512), max(repeats // 4, 5)
        ),
    }
    if write:
        OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_noisy_fastpath_floors():
    """Warm noisy compile >= 5x cold at 12q; the verify guard holds."""
    record = run_suite()
    compile_row = record["compile"]
    assert compile_row["num_qubits"] == 12
    assert compile_row["warm_speedup"] >= 5.0, record
    assert compile_row["seeded_counts_identical_cold_vs_warm"]
    assert record["transpile"]["transpile_speedup"] >= 1.0, record
    assert record["verify"]["seeded_counts_identical"]
    assert record["verify"]["off_vs_baseline"] <= VERIFY_OFF_CEILING, record


def test_noisy_fastpath_smoke():
    """Tiny fast-lane row: every section runs, identities hold, no floors."""
    record = run_suite(write=False, compile_qubits=6, shots=256, repeats=5)
    assert record["compile"]["seeded_counts_identical_cold_vs_warm"]
    assert record["verify"]["seeded_counts_identical"]
    assert record["verify"]["off_vs_baseline"] <= VERIFY_OFF_CEILING, record


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        record = run_suite(write=False, compile_qubits=6, shots=256, repeats=5)
        print(json.dumps(record, indent=2))
    else:
        print(json.dumps(run_suite(), indent=2))
