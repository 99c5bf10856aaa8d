"""Serving-runtime benchmark: queue throughput, grouping, process executor.

Times the serving layers and writes ``BENCH_serving.json`` at the
repository root:

* **mixed-workload throughput** — jobs/sec of :class:`JobService` over a
  mixed QAOA / QFT / repetition-code-memory batch (the three bundle shapes
  the paper's middle layer serves side by side), two ways: **coalesced**
  (the default: jobs sharing a group key — one engine, intent, target and
  option set — execute as one *merged* batch-axis run per group) and
  **uncoalesced** (``coalesce=False``: every job alone, one backend call
  each out of warm caches).  The compile caches and the lowering memo are
  cleared before each run, so each row pays its own lowerings and compiles
  and the comparison is honest: ``coalesced_speedup`` (uncoalesced wall over
  merged wall) is the headline.  Each run also records ``transpiles``, the
  transpile-cache lookups (hits plus misses) it made: a merged group
  transpiles once, for all its members.
* **trajectory executor** — warm wall clock of the same seeded noisy
  workload on the thread executor versus the persistent process pool, with
  the bit-identity check between their counts.  The speedup is reported for
  the host's actual core count: on a single-core container the process
  path is bookkeeping overhead (~1x or below), and the row says so rather
  than extrapolating.

Run standalone (``python benchmarks/bench_serving.py``), as a quick CI
smoke (``--smoke``: tiny batch, no JSON written), or via pytest
(``pytest benchmarks/bench_serving.py``, which asserts the floors).
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.backends import clear_lowering_cache
from repro.core import ContextDescriptor, ExecPolicy, package, phase_register
from repro.oplib import (
    measurement,
    qft_operator,
    repetition_memory_operator,
    repetition_register,
)
from repro.problems import MaxCutProblem
from repro.services import JobService
from repro.simulators.gate import (
    Circuit,
    NoiseModel,
    StatevectorSimulator,
    clear_compile_caches,
)
from repro.simulators.gate.fusion import compile_cache_info
from repro.simulators.gate.procpool import shutdown_worker_pool, worker_pool_info
from repro.workflows import build_qaoa_bundle
from repro.workflows.maxcut import default_gate_context

SEED = 37
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Depolarizing rates of the executor row (same QEC-flavoured band as the
#: noisy fast-path benchmark, so the two records are comparable).
EXEC_NOISE = {"oneq_error": 0.002, "twoq_error": 0.01, "readout_error": 0.01}


def qft_bundle(name, *, width=5, seed=1, samples=512):
    reg = phase_register("p", width)
    return package(
        reg,
        [qft_operator(reg, do_swaps=True), measurement(reg)],
        ContextDescriptor(
            exec=ExecPolicy(engine="gate.aer_simulator", samples=samples, seed=seed)
        ),
        name=name,
    )


def qec_bundle(name, *, distance=3, rounds=2, seed=1, samples=512):
    reg = repetition_register("patch", distance)
    return package(
        reg,
        [repetition_memory_operator(reg, distance, rounds=rounds)],
        ContextDescriptor(
            exec=ExecPolicy(
                engine="gate.aer_simulator",
                samples=samples,
                seed=seed,
                options={
                    "trajectory_engine": "auto",
                    "noise": {"oneq_error": 1e-3, "twoq_error": 2e-3},
                },
            )
        ),
        name=name,
    )


def mixed_batch(jobs_per_shape, samples):
    """QAOA + QFT + QEC bundles: three intents, *jobs_per_shape* users each."""
    problem = MaxCutProblem.cycle(4)
    bundles = []
    for i in range(jobs_per_shape):
        context = default_gate_context(problem, samples=samples, seed=i + 1)
        bundles.append(
            build_qaoa_bundle(problem, name=f"qaoa{i}", context=context)
        )
        bundles.append(qft_bundle(f"qft{i}", seed=i + 1, samples=samples))
        bundles.append(qec_bundle(f"qec{i}", seed=i + 1, samples=samples))
    return bundles


def bench_serving(jobs_per_shape, samples, lanes):
    """Jobs/sec of the mixed batch: merged groups vs every job alone."""
    configs = (
        ("coalesced", dict(coalesce=True)),  # merged fast path, the default
        ("uncoalesced", dict(coalesce=False)),
    )
    rows = {}
    for label, service_kwargs in configs:
        bundles = mixed_batch(jobs_per_shape, samples)
        clear_compile_caches()
        clear_lowering_cache()
        with JobService(lanes=lanes, **service_kwargs) as service:
            start = time.perf_counter()
            service.submit_many(bundles)
            tickets = service.drain()
            elapsed = time.perf_counter() - start
            stats = service.stats()
        assert stats["failed"] == 0, stats
        assert all(ticket.exception() is None for ticket in tickets)
        caches = compile_cache_info()
        rows[label] = {
            "jobs": len(bundles),
            "wall_s": round(elapsed, 4),
            "jobs_per_s": round(len(bundles) / elapsed, 2),
            "groups": stats["groups"],
            "coalesced": stats["coalesced"],
            "merged_groups": stats["merged_groups"],
            "merged_jobs": stats["merged_jobs"],
            "template_compiles": caches["template"]["misses"],
            "transpiles": caches["transpile"]["hits"] + caches["transpile"]["misses"],
        }
    return {
        "jobs_per_shape": jobs_per_shape,
        "samples": samples,
        "lanes": lanes,
        "runs": rows,
        "coalesced_speedup": round(
            rows["uncoalesced"]["wall_s"] / rows["coalesced"]["wall_s"], 2
        ),
    }


def noisy_workload_circuit(num_qubits):
    """Ring QAOA shape used for the executor comparison."""
    circuit = Circuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
    for q in range(num_qubits):
        circuit.rzz(0.8, q, (q + 1) % num_qubits)
    for q in range(num_qubits):
        circuit.rx(1.4, q)
    for q in range(num_qubits):
        circuit.measure(q, q)
    return circuit


def bench_executor(num_qubits, shots, workers):
    """Thread vs process wall clock for identical seeded chunked runs."""
    circuit = noisy_workload_circuit(num_qubits)
    noise = NoiseModel(**EXEC_NOISE)
    # Chunk the batch well past the worker count so dealing matters.
    chunk_bytes = (2 ** num_qubits) * 8 * max(shots // (8 * workers), 8)
    timings = {}
    counts = {}
    for label in ("thread", "process"):
        simulator = StatevectorSimulator(
            noise_model=noise,
            max_batch_memory=chunk_bytes,
            trajectory_workers=workers,
            trajectory_executor=label,
        )
        simulator.run(circuit, shots=min(shots, 128), seed=SEED)  # warm pool+caches
        start = time.perf_counter()
        result = simulator.run(circuit, shots=shots, seed=SEED)
        timings[label] = time.perf_counter() - start
        counts[label] = dict(result.counts)
        assert result.metadata["trajectory_executor"] == label
    identical = counts["thread"] == counts["process"]
    assert identical, "thread/process executors diverged on seeded counts"
    return {
        "num_qubits": num_qubits,
        "shots": shots,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "pool": worker_pool_info(),
        "thread_s": round(timings["thread"], 4),
        "process_s": round(timings["process"], 4),
        "process_speedup": round(timings["thread"] / timings["process"], 2),
        "seeded_counts_identical": identical,
    }


def run_suite(write=True, *, jobs_per_shape=6, samples=1024, lanes=2,
              exec_qubits=8, exec_shots=2048):
    """Time every section and (optionally) write the JSON record."""
    workers = max(1, min(4, os.cpu_count() or 1))
    record = {
        "benchmark": "serving",
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "serving": bench_serving(jobs_per_shape, samples, lanes),
        "executor": bench_executor(exec_qubits, exec_shots, workers),
    }
    if write:
        OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_serving_floors():
    """Merged groups win outright; each intent compiles and transpiles once; executors match."""
    record = run_suite()
    serving = record["serving"]
    coalesced = serving["runs"]["coalesced"]
    # Three distinct intents -> three groups, everyone else coalesces,
    # and every group executes as one merged batch-axis run.
    assert coalesced["groups"] == 3, serving
    assert coalesced["coalesced"] == coalesced["jobs"] - 3, serving
    assert coalesced["merged_groups"] == 3, serving
    assert coalesced["merged_jobs"] == coalesced["jobs"], serving
    # The QEC shape compiles on the stabilizer engine, so at most the QAOA
    # and QFT structures touch the template cache -- and only once each.
    assert coalesced["template_compiles"] <= 2, serving
    # A merged group transpiles once: its other members reuse that result.
    assert coalesced["transpiles"] == coalesced["merged_groups"], serving
    uncoalesced = serving["runs"]["uncoalesced"]
    assert uncoalesced["groups"] == uncoalesced["jobs"], serving
    assert uncoalesced["merged_jobs"] == 0, serving
    # The point of the merged fast path: coalescing now pays for itself.
    assert serving["coalesced_speedup"] >= 1.0, serving
    assert record["executor"]["seeded_counts_identical"]


def test_serving_smoke():
    """Tiny fast-lane batch: every section runs, identities hold, no floors."""
    record = run_suite(
        write=False, jobs_per_shape=2, samples=128, lanes=1,
        exec_qubits=5, exec_shots=256,
    )
    assert record["serving"]["runs"]["coalesced"]["groups"] == 3
    assert record["serving"]["runs"]["coalesced"]["merged_jobs"] > 0
    assert record["executor"]["seeded_counts_identical"]
    shutdown_worker_pool()


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        record = run_suite(
            write=False, jobs_per_shape=2, samples=128, lanes=1,
            exec_qubits=5, exec_shots=256,
        )
        print(json.dumps(record, indent=2))
    else:
        print(json.dumps(run_suite(), indent=2))
    shutdown_worker_pool()
