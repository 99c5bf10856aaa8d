"""A1 (ablation): what does the descriptor/packaging machinery cost?

The middle layer validates every descriptor against a JSON Schema and
re-verifies the whole bundle at packaging time.  This ablation measures that
overhead — packaging with full validation vs. packaging with validation
switched off vs. constructing the raw BQM directly — for growing problem
sizes.  The expected shape: validation costs a small constant factor
(milliseconds).

Validation is not free at width: on the 1001-qubit repetition-memory bundle
(the ``qec_1001q`` job) it once took 13 ms per job, about 1.8x the bundle's
lowering.  The last row times, on that bundle, validation, a real lowering
(the lowering memo emptied first), the lowering-memo hit a repeated intent
costs and a transpile-cache hit, and asserts that validation costs no more
than a real lowering.
"""

import statistics
import time

import pytest

from repro.backends import clear_lowering_cache, get_backend
from repro.core import ContextDescriptor, ExecPolicy, package
from repro.oplib import ising_problem_operator, repetition_memory_operator, repetition_register
from repro.simulators.gate.transpiler import transpile_cached
from repro.problems import MaxCutProblem, random_graph
from repro.simulators.anneal import BinaryQuadraticModel
from repro.workflows import default_anneal_context, maxcut_register


def _problem(n):
    return MaxCutProblem(random_graph(n, 0.5, seed=n))


@pytest.mark.parametrize("nodes", [4, 8, 16])
def test_packaging_with_validation(benchmark, nodes):
    problem = _problem(nodes)
    context = default_anneal_context()

    def run():
        qdt = maxcut_register(problem)
        h, edges, weights, constant = problem.to_ising()
        op = ising_problem_operator(qdt, h=h, edges=edges, weights=weights, constant=constant)
        return package(qdt, [op], context, name=f"n{nodes}", validate=True)

    bundle = benchmark(run)
    assert bundle.verify().ok
    benchmark.extra_info.update({"nodes": nodes, "validated": True})


@pytest.mark.parametrize("nodes", [4, 8, 16])
def test_packaging_without_validation(benchmark, nodes):
    problem = _problem(nodes)
    context = default_anneal_context()

    def run():
        qdt = maxcut_register(problem)
        h, edges, weights, constant = problem.to_ising()
        op = ising_problem_operator(qdt, h=h, edges=edges, weights=weights, constant=constant)
        return package(qdt, [op], context, name=f"n{nodes}", validate=False)

    benchmark(run)
    benchmark.extra_info.update({"nodes": nodes, "validated": False})


@pytest.mark.parametrize("nodes", [4, 8, 16])
def test_direct_bqm_construction_baseline(benchmark, nodes):
    problem = _problem(nodes)

    def run():
        return BinaryQuadraticModel.from_graph(
            (u, v, d["weight"]) for u, v, d in problem.graph.edges(data=True)
        )

    benchmark(run)
    benchmark.extra_info.update({"nodes": nodes, "baseline": "raw BQM, no middle layer"})


def test_front_half_of_the_1001_qubit_repetition_job(benchmark):
    register = repetition_register("patch", 501)
    operator = repetition_memory_operator(register, 501, rounds=1)
    context = ContextDescriptor(
        exec=ExecPolicy(
            engine="gate.aer_simulator",
            samples=512,
            seed=1,
            options={"trajectory_engine": "auto"},
        )
    )
    bundle = package(register, [operator], context, name="qec_1001q")
    backend = get_backend("gate.aer_simulator")
    circuit, _ = backend.build_circuit(bundle)
    transpile_cached(circuit, optimization_level=1)  # as GateBackend calls it

    steps = {
        "validate_ms": bundle.validate,
        "lower_ms": lambda: backend.build_circuit(bundle),  # a miss: the memo is emptied first
        "lower_hit_ms": lambda: backend.build_circuit(bundle),
        "transpile_hit_ms": lambda: transpile_cached(circuit, optimization_level=1),
    }
    samples = {key: [] for key in steps}
    for _ in range(5):  # interleaved, so a slow spell hits every step alike
        for key, step in steps.items():
            if key == "lower_ms":
                clear_lowering_cache()
            started = time.perf_counter()
            step()
            samples[key].append(1e3 * (time.perf_counter() - started))
    medians = {key: statistics.median(values) for key, values in samples.items()}

    benchmark(bundle.validate)
    benchmark.extra_info.update({"qubits": 1001, "instructions": len(circuit), **medians})
    assert medians["validate_ms"] <= medians["lower_ms"], medians
