"""Tests for parallel chunked trajectory execution and fused unitary sweeps.

Two contracts from this PR:

* **worker-count reproducibility** — every shot chunk draws from its own
  ``SeedSequence``-spawned RNG stream and the chunk decomposition depends
  only on ``max_batch_memory``, so a seeded run yields *bit-identical*
  counts for any ``trajectory_workers`` value, across noisy, mid-circuit
  measurement and reset circuits.
* **fused sweep equivalence** — ``Statevector.evolve`` and
  ``circuit_unitary`` route through the fusion compiler by default and must
  match their unfused executable specifications exactly (up to float
  rounding of the fused matrix products).
"""

import os
import sys
import threading

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
from repro.simulators.gate.threads import THREAD_ENV_VARS, limit_blas_threads


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
    assert StatevectorSimulator(trajectory_workers="auto").trajectory_workers >= 1


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
    unfused = Statevector(5).evolve(circuit, fuse=False)
    assert np.allclose(fused.data, unfused.data, atol=1e-10)


def test_fused_evolve_handles_wide_gates_and_barriers():
    circuit = Circuit(3)
    circuit.h(0).barrier()
    circuit.ccx(0, 1, 2)
    circuit.rz(0.4, 2)
    fused = Statevector(3).evolve(circuit)
    unfused = Statevector(3).evolve(circuit, fuse=False)
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
    with pytest.raises(SimulationError):
        Statevector(1).evolve(circuit, fuse=fuse)


def test_fused_circuit_unitary_matches_unfused():
    circuit = transpiled_sweep(4)
    fused = circuit_unitary(circuit)
    unfused = circuit_unitary(circuit, fuse=False)
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
        circuit_unitary(circuit, fuse=False)


# -- BLAS thread pinning (PR 4) -----------------------------------------------------

def test_limit_blas_threads_sets_and_restores_environment(monkeypatch):
    import os

    from repro.simulators.gate.threads import THREAD_ENV_VARS, limit_blas_threads

    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    try:
        import threadpoolctl  # noqa: F401

        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    with limit_blas_threads(1):
        if not has_threadpoolctl:
            # Env-var fallback: every knob pinned for the duration.
            for var in THREAD_ENV_VARS:
                assert os.environ[var] == "1"
    # Restored exactly: pre-existing values back, absent ones absent again.
    assert os.environ["OMP_NUM_THREADS"] == "8"
    if not has_threadpoolctl:
        assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_limit_blas_threads_rejects_nonpositive_limit():
    from repro.simulators.gate.threads import limit_blas_threads

    with pytest.raises(ValueError):
        with limit_blas_threads(0):
            pass  # pragma: no cover


def thread_env():
    return {var: os.environ.get(var) for var in THREAD_ENV_VARS}


@pytest.fixture
def env_fallback(monkeypatch):
    """Force the ``*_NUM_THREADS`` fallback from a known host state; returns it."""
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    for var in THREAD_ENV_VARS[1:]:
        monkeypatch.delenv(var, raising=False)
    return thread_env()


def test_overlapping_blas_guards_keep_the_pin_until_the_last_exit(env_fallback):
    # Two service lanes each running a multi-worker job overlap their
    # guards: enter A, enter B, exit A, exit B.  The pin must hold (at the
    # smallest active limit) until B exits, and only then come back exactly.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def lane_a():
        with limit_blas_threads(1):
            a_in.set()
            b_in.wait(10)
            seen["both"] = thread_env()
        a_out.set()

    def lane_b():
        a_in.wait(10)
        with limit_blas_threads(2):
            b_in.set()
            a_out.wait(10)
            seen["b_alone"] = thread_env()

    lanes = [threading.Thread(target=lane_a), threading.Thread(target=lane_b)]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join(timeout=30)
        assert not lane.is_alive()
    assert seen["both"] == {var: "1" for var in THREAD_ENV_VARS}
    assert seen["b_alone"] == {var: "2" for var in THREAD_ENV_VARS}
    assert thread_env() == env_fallback


def test_blas_guard_stress_never_unpins_an_active_holder(env_fallback):
    # More lanes than cores, a short switch interval: while a lane is inside
    # its guard every variable stays pinned at or below that lane's limit,
    # and the host's settings come back once every lane is out.
    errors = []

    def lane(limit):
        for _ in range(200):
            with limit_blas_threads(limit):
                for var, value in thread_env().items():
                    if value is None or int(value) > limit:
                        errors.append((limit, var, value))

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
    assert thread_env() == env_fallback


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
    with pytest.raises(SimulationError):
        StatevectorSimulator(trajectory_executor="auto")  # resolved at backend level
    assert StatevectorSimulator(trajectory_executor="process").trajectory_executor == "process"


def test_resolve_trajectory_executor(monkeypatch):
    import os

    from repro.backends.registry import resolve_trajectory_executor

    assert resolve_trajectory_executor("thread") == "thread"
    assert resolve_trajectory_executor("process") == "process"
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert resolve_trajectory_executor("auto") == "thread"
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_trajectory_executor("auto") == "process"


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


def test_worker_pool_is_persistent_and_grow_only(process_pool):
    from repro.simulators.gate.procpool import (
        executor_health,
        shutdown_worker_pool,
        worker_pool_info,
    )

    circuit, noise = noisy_circuit()

    def request(workers):
        # max_batch_memory=1 -> eight one-shot chunks, enough for 4 workers.
        StatevectorSimulator(
            noise_model=noise,
            max_batch_memory=1,
            trajectory_executor="process",
            trajectory_workers=workers,
        ).run(circuit, shots=8, seed=1)

    shutdown_worker_pool()
    request(2)
    assert worker_pool_info() == {"workers": 2, "started": 1}
    retired = executor_health()["generations_retired"]
    # Smaller request reuses the warm pool; larger request grows it.
    request(1)
    assert worker_pool_info()["workers"] == 2
    assert executor_health()["generations_retired"] == retired
    request(4)
    assert worker_pool_info()["workers"] == 4
    assert executor_health()["generations_retired"] == retired + 1
