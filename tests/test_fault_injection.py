"""Tests for deterministic fault injection and executor crash recovery.

The headline contract: a run whose worker is **killed mid-flight** recovers
by re-dispatching only the lost chunk groups on a fresh pool — with the
original per-chunk ``SeedSequence`` streams — so recovered seeded counts are
*bit-identical* to an uncrashed run, for both the batched and stabilizer
engines and at every worker count.  Around it: the :class:`FaultPlan` data
model (seeded determinism, dict round-trip), the transient/permanent error
taxonomy, reassembly validation, the recovery budget (and the cause it
names when workers die while starting), and the one pool that every run,
however many workers it asks for, shares.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import SimulationError
from repro.core.errors import (
    ChunkReassemblyError,
    DeadlineExceededError,
    QueueFullError,
    TransientExecutionError,
    WorkerCrashError,
    is_pool_breakage,
    is_transient_error,
)
from repro.simulators.gate import Circuit, NoiseModel, StatevectorSimulator
from repro.simulators.gate.faults import FAULT_KINDS, FaultEvent, FaultPlan


@pytest.fixture(scope="module")
def process_pool():
    """Tear the persistent worker pool down after this module's tests."""
    from repro.simulators.gate.procpool import shutdown_worker_pool

    yield
    shutdown_worker_pool()


def noisy_circuit():
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1).cx(1, 2)
    circuit.measure_all()
    return circuit, NoiseModel(oneq_error=0.02, twoq_error=0.05, readout_error=0.02)


def ghz_stabilizer_kwargs(workers):
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
    return circuit, kwargs


# -- FaultPlan data model -----------------------------------------------------------

def test_fault_event_validation():
    with pytest.raises(SimulationError, match="unknown fault kind"):
        FaultEvent(kind="explode", chunk_id=0)
    with pytest.raises(SimulationError, match="chunk_id"):
        FaultEvent(kind="raise", chunk_id=-1)
    with pytest.raises(SimulationError, match="attempt"):
        FaultEvent(kind="raise", chunk_id=0, attempt=-1)
    with pytest.raises(SimulationError, match="hang_s"):
        FaultEvent(kind="hang", chunk_id=0, hang_s=-0.1)
    assert FaultEvent(kind="kill", chunk_id=2, attempt=1).to_dict() == {
        "kind": "kill",
        "chunk_id": 2,
        "attempt": 1,
        "hang_s": 0.05,
    }


def test_fault_plan_rejects_duplicate_sites():
    events = [FaultEvent("raise", 0), FaultEvent("kill", 0)]
    with pytest.raises(SimulationError, match="duplicate fault"):
        FaultPlan(events)


def test_fault_plan_lookup_and_roundtrip():
    plan = FaultPlan([FaultEvent("raise", 1), FaultEvent("kill", 3, attempt=1)])
    assert len(plan) == 2
    assert plan.event_for(1, 0).kind == "raise"
    assert plan.event_for(3, 1).kind == "kill"
    assert plan.event_for(3, 0) is None
    assert plan.event_for(7, 0) is None
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.coerce(plan) is plan
    assert FaultPlan.coerce(None) is None
    assert FaultPlan.coerce(plan.to_dict()) == plan
    with pytest.raises(SimulationError, match="fault_plan must be"):
        FaultPlan.coerce("kill everything")
    with pytest.raises(SimulationError, match="'events' list or a seeded spec"):
        FaultPlan.from_dict({"kaboom": 1})


def test_seeded_plans_are_deterministic():
    kwargs = dict(num_chunks=16, kinds=FAULT_KINDS, events=4, max_attempt=1)
    plan_a = FaultPlan.seeded(42, **kwargs)
    plan_b = FaultPlan.seeded(42, **kwargs)
    assert plan_a == plan_b
    assert len(plan_a) == 4
    assert plan_a != FaultPlan.seeded(43, **kwargs)
    # Sites are distinct and within range, by construction.
    sites = {(e.chunk_id, e.attempt) for e in plan_a.events}
    assert len(sites) == 4
    assert all(0 <= c < 16 and 0 <= a <= 1 for c, a in sites)
    # The seeded spec round-trips through the dict form too.
    from_spec = FaultPlan.from_dict({"seed": 42, **kwargs})
    assert from_spec == plan_a
    with pytest.raises(SimulationError, match="num_chunks"):
        FaultPlan.seeded(1, num_chunks=0)
    with pytest.raises(SimulationError, match="unknown fault kind"):
        FaultPlan.seeded(1, num_chunks=4, kinds=("melt",))


# -- error taxonomy -----------------------------------------------------------------

def test_transient_and_breakage_classification():
    from concurrent.futures import BrokenExecutor
    from concurrent.futures.process import BrokenProcessPool

    assert is_transient_error(TransientExecutionError("x"))
    assert is_transient_error(WorkerCrashError("x", rebuilds=2))
    assert is_transient_error(BrokenExecutor())
    assert is_transient_error(BrokenProcessPool())
    assert not is_transient_error(RuntimeError("x"))
    assert not is_transient_error(DeadlineExceededError("x"))
    assert is_pool_breakage(WorkerCrashError("x"))
    assert is_pool_breakage(BrokenProcessPool())
    assert not is_pool_breakage(TransientExecutionError("x"))
    assert not is_pool_breakage(QueueFullError("x"))
    assert WorkerCrashError("x", rebuilds=3).rebuilds == 3


def test_chunk_reassembly_error_is_typed():
    from repro.simulators.gate.procpool import _require_complete

    rows = [np.zeros((1, 1)), None, np.zeros((1, 1)), None]
    with pytest.raises(ChunkReassemblyError) as excinfo:
        _require_complete(rows)
    assert excinfo.value.missing == (1, 3)
    assert excinfo.value.total == 4
    _require_complete([np.zeros((1, 1))])  # complete rows pass silently


# -- crash recovery: bit-identity ---------------------------------------------------

@pytest.mark.parametrize("workers", [2, 4])
def test_killed_worker_recovers_bit_identical_batched(workers, process_pool):
    circuit, noise = noisy_circuit()
    kwargs = dict(
        noise_model=noise, max_batch_memory=128 * 32, trajectory_workers=workers
    )
    clean = StatevectorSimulator(trajectory_executor="process", **kwargs).run(
        circuit, shots=900, seed=71
    )
    assert clean.metadata["executor_recovery"] == {
        "pool_rebuilds": 0,
        "groups_redispatched": 0,
    }
    crashed = StatevectorSimulator(
        trajectory_executor="process",
        fault_plan=FaultPlan([FaultEvent("kill", chunk_id=0)]),
        **kwargs,
    ).run(circuit, shots=900, seed=71)
    recovery = crashed.metadata["executor_recovery"]
    assert recovery["pool_rebuilds"] == 1
    assert recovery["groups_redispatched"] >= 1
    # The recovered run re-drew from the original SeedSequence streams.
    assert dict(crashed.counts) == dict(clean.counts)


@pytest.mark.parametrize("workers", [2, 4])
def test_killed_worker_recovers_bit_identical_stabilizer(workers, process_pool):
    circuit, kwargs = ghz_stabilizer_kwargs(workers)
    clean = StatevectorSimulator(trajectory_executor="process", **kwargs).run(
        circuit, shots=1500, seed=13
    )
    crashed = StatevectorSimulator(
        trajectory_executor="process",
        fault_plan=FaultPlan([FaultEvent("kill", chunk_id=1)]),
        **kwargs,
    ).run(circuit, shots=1500, seed=13)
    assert crashed.metadata["trajectory_engine"] == "stabilizer"
    assert crashed.metadata["executor_recovery"]["pool_rebuilds"] == 1
    assert dict(crashed.counts) == dict(clean.counts)


def test_raise_fault_propagates_as_transient(process_pool):
    circuit, noise = noisy_circuit()
    simulator = StatevectorSimulator(
        trajectory_executor="process",
        noise_model=noise,
        max_batch_memory=128 * 32,
        trajectory_workers=2,
        fault_plan=FaultPlan([FaultEvent("raise", chunk_id=0)]),
    )
    with pytest.raises(TransientExecutionError, match="injected fault"):
        simulator.run(circuit, shots=900, seed=71)


def test_hang_fault_is_benign_and_kill_is_noop_on_threads():
    circuit, noise = noisy_circuit()
    kwargs = dict(
        noise_model=noise, max_batch_memory=128 * 32, trajectory_workers=2
    )
    clean = StatevectorSimulator(**kwargs).run(circuit, shots=300, seed=9)
    # A hang stalls the chunk then runs it normally; a kill on the thread
    # executor is a documented no-op.  Either way: bit-identical counts.
    plan = FaultPlan(
        [FaultEvent("hang", chunk_id=0, hang_s=0.01), FaultEvent("kill", chunk_id=1)]
    )
    faulted = StatevectorSimulator(fault_plan=plan, **kwargs).run(
        circuit, shots=300, seed=9
    )
    assert dict(faulted.counts) == dict(clean.counts)


def test_repeated_kills_exhaust_recovery_budget(process_pool):
    from repro.simulators.gate.procpool import MAX_POOL_REBUILDS

    circuit, noise = noisy_circuit()
    # Kill chunk 0 on every attempt the budget allows, plus one more.
    plan = FaultPlan(
        [
            FaultEvent("kill", chunk_id=0, attempt=a)
            for a in range(MAX_POOL_REBUILDS + 1)
        ]
    )
    simulator = StatevectorSimulator(
        trajectory_executor="process",
        noise_model=noise,
        max_batch_memory=128 * 32,
        trajectory_workers=2,
        fault_plan=plan,
    )
    with pytest.raises(WorkerCrashError) as excinfo:
        simulator.run(circuit, shots=900, seed=71)
    assert excinfo.value.rebuilds == MAX_POOL_REBUILDS + 1
    assert is_transient_error(excinfo.value)  # the serving layer may retry


GUARDLESS_SCRIPT = """
from repro.simulators.gate import Circuit, NoiseModel, StatevectorSimulator

circuit = Circuit(3, 3)
circuit.h(0).cx(0, 1).cx(1, 2)
circuit.measure_all()
StatevectorSimulator(
    noise_model=NoiseModel(oneq_error=0.01),
    max_batch_memory=1024,
    trajectory_executor="process",
    trajectory_workers=2,
).run(circuit, shots=256, seed=1)
"""


@pytest.mark.slow
def test_a_script_without_a_main_guard_is_told_why_its_workers_died(tmp_path):
    # Each forkserver worker re-runs the unguarded script's top level while it
    # starts, and dies there; the exhausted recovery must name that cause.
    script = tmp_path / "unguarded.py"
    script.write_text(GUARDLESS_SCRIPT, encoding="utf-8")
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode != 0
    assert "WorkerCrashError: worker pool broke 3 times" in done.stderr, done.stderr
    assert "the workers died before finishing any chunk group" in done.stderr
    assert "'if __name__ == \"__main__\":' guard" in done.stderr


def test_fault_plan_knob_rides_the_backend(process_pool):
    from repro.backends import GateBackend
    from repro.problems import MaxCutProblem
    from repro.workflows import build_qaoa_bundle

    bundle = build_qaoa_bundle(MaxCutProblem.cycle(4))
    options = bundle.context.exec.options
    options["noise"] = {"oneq_error": 1e-3}
    options["max_batch_memory"] = 4096
    options["trajectory_executor"] = "process"
    clean = GateBackend().run(bundle)
    # The knob takes the JSON-safe dict spec, so it rides bundles/digests.
    options["fault_plan"] = {"events": [{"kind": "kill", "chunk_id": 0}]}
    crashed = GateBackend().run(bundle)
    assert crashed.metadata["executor_recovery"]["pool_rebuilds"] == 1
    assert dict(crashed.counts) == dict(clean.counts)

    options["fault_plan"] = "not a plan"
    from repro.core import BackendError

    with pytest.raises(BackendError, match="fault_plan must be"):
        GateBackend().run(bundle)


def test_executor_health_counters_accumulate(process_pool):
    from repro.simulators.gate.procpool import executor_health

    circuit, noise = noisy_circuit()
    before = executor_health()
    StatevectorSimulator(
        trajectory_executor="process",
        noise_model=noise,
        max_batch_memory=128 * 32,
        trajectory_workers=2,
        fault_plan=FaultPlan([FaultEvent("kill", chunk_id=0)]),
    ).run(circuit, shots=900, seed=71)
    after = executor_health()
    assert after["pool_rebuilds"] == before["pool_rebuilds"] + 1
    assert after["groups_redispatched"] > before["groups_redispatched"]


# -- one shared pool ---------------------------------------------------------------

def test_pool_requests_share_one_pool(process_pool):
    from repro.simulators.gate import procpool

    circuit, noise = noisy_circuit()

    def request(workers):
        # max_batch_memory=1 -> eight one-shot chunks, enough for 4 workers.
        StatevectorSimulator(
            noise_model=noise,
            max_batch_memory=1,
            trajectory_executor="process",
            trajectory_workers=workers,
        ).run(circuit, shots=8, seed=3)
        return procpool._POOL

    procpool.shutdown_worker_pool()
    rebuilds = procpool.executor_health()["pool_rebuilds"]
    pools = []
    for workers in (2, 1, 4):
        pools.append(request(workers))
        # Every slot started with the pool; no chunk submit starts a process.
        assert len(multiprocessing.active_children()) == os.cpu_count()
    # Smaller and larger requests alike run on the one pool, a slot per core.
    assert all(pool is pools[0] for pool in pools)
    assert procpool.worker_pool_info() == {"workers": os.cpu_count(), "started": 1}
    assert procpool.executor_health()["pool_rebuilds"] == rebuilds
    assert set(procpool.executor_health()) == {"pool_rebuilds", "groups_redispatched"}
    procpool.shutdown_worker_pool()
    assert procpool.worker_pool_info() == {"workers": 0, "started": 0}


def test_concurrent_runs_share_the_pool_and_count_its_crash_once(process_pool):
    from repro.simulators.gate.procpool import executor_health, worker_pool_info

    circuit, noise = noisy_circuit()
    kwargs = dict(noise_model=noise, max_batch_memory=128 * 32)
    serial = StatevectorSimulator(**kwargs).run(circuit, shots=900, seed=71)
    # Hang the smaller run's chunks 0 and 1, then kill the worker that runs
    # its chunk 3; the larger run starts 0.1 s in, on another thread, on the
    # pool that breaks.
    plan = FaultPlan(
        [
            FaultEvent("hang", chunk_id=0, hang_s=0.6),
            FaultEvent("hang", chunk_id=1, hang_s=0.3),
            FaultEvent("kill", chunk_id=3),
        ]
    )

    def run(workers, fault_plan=None):
        return StatevectorSimulator(
            trajectory_executor="process",
            trajectory_workers=workers,
            fault_plan=fault_plan,
            **kwargs,
        ).run(circuit, shots=900, seed=71)

    run(2)  # a warm pool, so both runs submit in the order they start
    before = executor_health()["pool_rebuilds"]
    with ThreadPoolExecutor(max_workers=2) as lanes:
        small = lanes.submit(run, 2, plan)
        time.sleep(0.1)
        large = lanes.submit(run, 4)
        results = [small.result(timeout=60), large.result(timeout=60)]
    assert results[0].metadata["executor_recovery"]["pool_rebuilds"] == 1
    for result in results:
        assert dict(result.counts) == dict(serial.counts)
    assert executor_health()["pool_rebuilds"] == before + 1
    assert worker_pool_info() == {"workers": os.cpu_count(), "started": 1}


# -- seeded chaos sweep (slow lane) -------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6))
def test_chaos_sweep_recovers_bit_identical(seed, process_pool):
    """Randomized-but-seeded kill/hang plans never corrupt seeded counts."""
    circuit, noise = noisy_circuit()
    kwargs = dict(
        noise_model=noise, max_batch_memory=128 * 32, trajectory_workers=4
    )
    clean = StatevectorSimulator(trajectory_executor="process", **kwargs).run(
        circuit, shots=900, seed=71
    )
    plan = FaultPlan.seeded(
        seed, num_chunks=8, kinds=("kill", "hang"), events=2, hang_s=0.02
    )
    chaotic = StatevectorSimulator(
        trajectory_executor="process", fault_plan=plan, **kwargs
    ).run(circuit, shots=900, seed=71)
    recovery = chaotic.metadata["executor_recovery"]
    kills = sum(1 for event in plan.events if event.kind == "kill")
    assert (recovery["pool_rebuilds"] > 0) == (kills > 0)
    assert dict(chaotic.counts) == dict(clean.counts)
