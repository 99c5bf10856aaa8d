"""Tests for parallel chunked trajectory execution and fused unitary sweeps.

Two contracts from this PR:

* **worker-count reproducibility** — every shot chunk draws from its own
  ``SeedSequence``-spawned RNG stream and the chunk decomposition depends
  only on ``max_batch_memory``, so a seeded run yields *bit-identical*
  counts for any ``trajectory_workers`` value, across noisy, mid-circuit
  measurement and reset circuits.
* **fused sweep equivalence** — ``Statevector.evolve`` and
  ``circuit_unitary`` route through the fusion compiler and must match the
  instruction-by-instruction oracles of ``engine_testlib`` exactly (up to
  float rounding of the fused matrix products).
"""

import os
import sys
import threading
import types

import numpy as np
import pytest

from repro.core import SimulationError
from repro.simulators.gate import (
    Circuit,
    NoiseModel,
    Statevector,
    StatevectorSimulator,
    circuit_unitary,
    transpile,
)
from repro.simulators.gate.fusion import GateStep, compile_trajectory_program
from repro.simulators.gate.threads import limit_blas_threads

from engine_testlib import circuit_unitary_unfused, evolve_unfused


def noisy_circuit():
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1).cx(1, 2)
    circuit.measure_all()
    return circuit, NoiseModel(oneq_error=0.02, twoq_error=0.05, readout_error=0.02)


def mid_circuit_measurement_circuit():
    circuit = Circuit(2, 3)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.h(0).cx(0, 1)
    circuit.measure(0, 1)
    circuit.measure(1, 2)
    return circuit, None


def reset_circuit():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1)
    circuit.reset(0)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit, None


# -- worker-count reproducibility ---------------------------------------------------

@pytest.mark.parametrize(
    "make", [noisy_circuit, mid_circuit_measurement_circuit, reset_circuit]
)
def test_same_seed_identical_counts_across_worker_counts(make):
    circuit, noise = make()
    # 3 qubits, complex64: 128 B/shot -> 32-shot chunks -> many chunks.
    runs = {}
    for workers in (1, 4):
        simulator = StatevectorSimulator(
            noise_model=noise,
            max_batch_memory=128 * 32,
            trajectory_workers=workers,
        )
        result = simulator.run(circuit, shots=900, seed=71)
        assert result.metadata["trajectory_workers"] == workers
        assert result.metadata["num_batches"] > 1
        runs[workers] = dict(result.counts)
    assert runs[1] == runs[4]


def test_worker_count_does_not_change_chunk_decomposition():
    circuit, noise = noisy_circuit()
    metas = []
    for workers in (1, 4):
        simulator = StatevectorSimulator(
            noise_model=noise, max_batch_memory=128 * 16, trajectory_workers=workers
        )
        metas.append(simulator.run(circuit, shots=500, seed=3).metadata)
    assert metas[0]["num_batches"] == metas[1]["num_batches"]
    assert metas[0]["batch_size"] == metas[1]["batch_size"]


def test_parallel_single_chunk_matches_serial():
    # One chunk (no chunking): the pool is bypassed but results must agree.
    circuit, noise = noisy_circuit()
    serial = StatevectorSimulator(noise_model=noise).run(circuit, shots=400, seed=9)
    threaded = StatevectorSimulator(noise_model=noise, trajectory_workers=8).run(
        circuit, shots=400, seed=9
    )
    assert serial.metadata["num_batches"] == 1
    assert dict(serial.counts) == dict(threaded.counts)


def test_parallel_statevector_matches_serial():
    circuit, noise = reset_circuit()
    kwargs = dict(noise_model=noise, max_batch_memory=128 * 32)
    serial = StatevectorSimulator(trajectory_workers=1, **kwargs).run(
        circuit, shots=300, seed=5, return_statevector=True
    )
    threaded = StatevectorSimulator(trajectory_workers=4, **kwargs).run(
        circuit, shots=300, seed=5, return_statevector=True
    )
    assert np.allclose(serial.statevector.data, threaded.statevector.data)


def test_trajectory_workers_validation():
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_workers=0)
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_workers=-2)
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_workers="many")
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_workers=2.5)
    with pytest.raises(SimulationError, match="must be a positive int, got 'auto'"):
        StatevectorSimulator(trajectory_workers="auto")


def test_backend_wires_trajectory_workers():
    from repro.backends import GateBackend
    from repro.problems import MaxCutProblem
    from repro.workflows import build_qaoa_bundle

    bundle = build_qaoa_bundle(MaxCutProblem.cycle(4))
    options = bundle.context.exec.options
    options["noise"] = {"oneq_error": 1e-3}
    options["trajectory_workers"] = 4
    options["max_batch_memory"] = 4096
    result = GateBackend().run(bundle)
    assert result.metadata["trajectory_workers"] == 4
    assert result.metadata["num_batches"] > 1
    from repro.core.errors import BackendError

    options["trajectory_workers"] = "auto"
    with pytest.raises(BackendError, match="must be a positive int, got 'auto'"):
        GateBackend().run(bundle)


# -- fused unitary sweeps ----------------------------------------------------------

def transpiled_sweep(num_qubits, seed=11):
    """A transpiled rz/sx/cx workload — the shape fusion pays off on."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for layer in range(3):
        for q in range(num_qubits):
            circuit.h(q)
            circuit.rz(float(rng.uniform(-np.pi, np.pi)), q)
        for q in range(0, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
        for q in range(1, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
    return transpile(circuit, basis_gates=["rz", "sx", "cx"]).circuit


def test_fused_evolve_matches_unfused_path():
    circuit = transpiled_sweep(5)
    fused = Statevector(5).evolve(circuit)
    unfused = evolve_unfused(Statevector(5), circuit)
    assert np.allclose(fused.data, unfused.data, atol=1e-10)


def test_fused_evolve_handles_wide_gates_and_barriers():
    circuit = Circuit(3)
    circuit.h(0).barrier()
    circuit.ccx(0, 1, 2)
    circuit.rz(0.4, 2)
    fused = Statevector(3).evolve(circuit)
    unfused = evolve_unfused(Statevector(3), circuit)
    assert np.allclose(fused.data, unfused.data, atol=1e-12)


def test_fused_evolve_uses_fewer_applications():
    circuit = transpiled_sweep(4)
    program = compile_trajectory_program(circuit)
    gate_steps = [s for s in program.steps if isinstance(s, GateStep)]
    raw_gates = sum(1 for inst in circuit.instructions if inst.is_gate)
    assert len(gate_steps) < raw_gates / 2


@pytest.mark.parametrize("fuse", [True, False])
def test_evolve_rejects_measurements(fuse):
    circuit = Circuit(1, 1)
    circuit.h(0)
    circuit.measure(0, 0)
    evolve = Statevector.evolve if fuse else evolve_unfused
    with pytest.raises(SimulationError):
        evolve(Statevector(1), circuit)


def test_fused_circuit_unitary_matches_unfused():
    circuit = transpiled_sweep(4)
    fused = circuit_unitary(circuit)
    unfused = circuit_unitary_unfused(circuit)
    assert np.allclose(fused, unfused, atol=1e-10)
    identity = fused @ fused.conj().T
    assert np.allclose(identity, np.eye(fused.shape[0]), atol=1e-9)


def test_fused_circuit_unitary_rejects_reset():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.reset(1)
    with pytest.raises(SimulationError):
        circuit_unitary(circuit)
    with pytest.raises(SimulationError):
        circuit_unitary_unfused(circuit)


def test_unfused_routes_are_oracles_not_keywords():
    circuit = Circuit(1)
    circuit.h(0)
    with pytest.raises(TypeError):
        Statevector(1).evolve(circuit, fuse=False)
    with pytest.raises(TypeError):
        circuit_unitary(circuit, fuse=False)


# -- BLAS thread pinning (PR 4) -----------------------------------------------------

def test_limit_blas_threads_leaves_environment_untouched(monkeypatch):
    # Without threadpoolctl no loaded pool can be resized, and a pool reads
    # *_NUM_THREADS only when it loads: the guard writes no environment.
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with limit_blas_threads(1):
        assert dict(os.environ) == before
    assert dict(os.environ) == before


def test_limit_blas_threads_rejects_nonpositive_limit():
    from repro.simulators.gate.threads import limit_blas_threads

    with pytest.raises(ValueError):
        with limit_blas_threads(0):
            pass  # pragma: no cover


#: The fake pool's size before any guard pins it: the host's setting.
HOST_BLAS_THREADS = 8


@pytest.fixture
def fake_threadpoolctl(monkeypatch):
    """A stand-in ``threadpoolctl`` whose one pool records its current limit."""
    pool = {"limit": HOST_BLAS_THREADS}

    class threadpool_limits:
        def __init__(self, limits):
            self._original = pool["limit"]
            pool["limit"] = limits

        def restore_original_limits(self):
            pool["limit"] = self._original

    module = types.ModuleType("threadpoolctl")
    module.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", module)
    return pool


def test_overlapping_blas_guards_keep_the_pin_until_the_last_exit(fake_threadpoolctl):
    # Two service lanes each running a multi-worker job overlap their
    # guards: enter A, enter B, exit A, exit B.  The pin must hold (at the
    # smallest active limit) until B exits, and only then come back exactly.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def lane_a():
        with limit_blas_threads(1):
            a_in.set()
            b_in.wait(10)
            seen["both"] = fake_threadpoolctl["limit"]
        a_out.set()

    def lane_b():
        a_in.wait(10)
        with limit_blas_threads(2):
            b_in.set()
            a_out.wait(10)
            seen["b_alone"] = fake_threadpoolctl["limit"]

    lanes = [threading.Thread(target=lane_a), threading.Thread(target=lane_b)]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join(timeout=30)
        assert not lane.is_alive()
    assert seen["both"] == 1
    assert seen["b_alone"] == 2
    assert fake_threadpoolctl["limit"] == HOST_BLAS_THREADS


def test_blas_guard_stress_never_unpins_an_active_holder(fake_threadpoolctl):
    # More lanes than cores, a short switch interval: while a lane is inside
    # its guard the pool stays pinned at or below that lane's limit, and the
    # host's setting comes back once every lane is out.
    errors = []

    def lane(limit):
        for _ in range(200):
            with limit_blas_threads(limit):
                value = fake_threadpoolctl["limit"]
                if value > limit:
                    errors.append((limit, value))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lanes = [threading.Thread(target=lane, args=(1 + i % 3,)) for i in range(6)]
        for thread in lanes:
            thread.start()
        for thread in lanes:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert fake_threadpoolctl["limit"] == HOST_BLAS_THREADS


# -- process-pool executor equivalence (PR 8) ---------------------------------------

@pytest.fixture(scope="module")
def process_pool():
    """Tear the persistent worker pool down after this module's tests."""
    from repro.simulators.gate.procpool import shutdown_worker_pool

    yield
    shutdown_worker_pool()


@pytest.mark.parametrize(
    "make", [noisy_circuit, mid_circuit_measurement_circuit, reset_circuit]
)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_process_executor_counts_bit_identical_to_thread(make, workers, process_pool):
    circuit, noise = make()
    kwargs = dict(
        noise_model=noise, max_batch_memory=128 * 32, trajectory_workers=workers
    )
    thread = StatevectorSimulator(trajectory_executor="thread", **kwargs).run(
        circuit, shots=900, seed=71
    )
    process = StatevectorSimulator(trajectory_executor="process", **kwargs).run(
        circuit, shots=900, seed=71
    )
    assert thread.metadata["trajectory_executor"] == "thread"
    assert process.metadata["trajectory_executor"] == "process"
    # Same chunk decomposition, same per-chunk streams: bit-identical counts.
    assert process.metadata["num_batches"] == thread.metadata["num_batches"]
    assert dict(process.counts) == dict(thread.counts)


def test_process_executor_statevector_matches_thread(process_pool):
    circuit, noise = reset_circuit()
    kwargs = dict(noise_model=noise, max_batch_memory=128 * 32, trajectory_workers=2)
    thread = StatevectorSimulator(**kwargs).run(
        circuit, shots=300, seed=5, return_statevector=True
    )
    process = StatevectorSimulator(trajectory_executor="process", **kwargs).run(
        circuit, shots=300, seed=5, return_statevector=True
    )
    assert np.allclose(thread.statevector.data, process.statevector.data)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_process_executor_stabilizer_counts_identical(workers, process_pool):
    circuit = Circuit(4, 4)
    circuit.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
    circuit.measure_all()
    noise = NoiseModel(oneq_error=0.01, twoq_error=0.02, readout_error=0.01)
    kwargs = dict(
        noise_model=noise,
        trajectory_engine="stabilizer",
        max_batch_memory=64,
        trajectory_workers=workers,
    )
    thread = StatevectorSimulator(**kwargs).run(circuit, shots=1500, seed=13)
    process = StatevectorSimulator(trajectory_executor="process", **kwargs).run(
        circuit, shots=1500, seed=13
    )
    assert process.metadata["trajectory_engine"] == "stabilizer"
    assert dict(process.counts) == dict(thread.counts)


def test_trajectory_executor_validation():
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_executor="fork")
    with pytest.raises(SimulationError, match="expected 'thread' or 'process'"):
        StatevectorSimulator(trajectory_executor="auto")
    assert StatevectorSimulator(trajectory_executor="process").trajectory_executor == "process"


def test_backend_wires_trajectory_executor(process_pool):
    from repro.backends import GateBackend
    from repro.problems import MaxCutProblem
    from repro.workflows import build_qaoa_bundle

    bundle = build_qaoa_bundle(MaxCutProblem.cycle(4))
    options = bundle.context.exec.options
    options["noise"] = {"oneq_error": 1e-3}
    options["max_batch_memory"] = 4096
    thread = GateBackend().run(bundle)
    options["trajectory_executor"] = "process"
    process = GateBackend().run(bundle)
    assert process.metadata["trajectory_executor"] == "process"
    assert dict(process.counts) == dict(thread.counts)
    from repro.core.errors import BackendError

    options["trajectory_executor"] = "auto"
    with pytest.raises(BackendError, match="expected 'thread' or 'process'"):
        GateBackend().run(bundle)
