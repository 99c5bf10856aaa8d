"""Tests for merged (batch-axis) multi-job execution in the simulator.

The headline contract is **bit-identity**: :meth:`StatevectorSimulator.run_merged`
executes a whole group of ``(shots, seed)`` jobs as one batched evolution —
shared compiled template, one tensor pass over the concatenated batch axis —
yet every job's seeded counts are exactly what a standalone
:meth:`~StatevectorSimulator.run` would produce.  The segmented chunk plan
makes this hold by construction: each job spawns its own per-chunk
``SeedSequence`` streams exactly as it would alone, and every RNG draw inside
the merged run happens per segment, in standalone order and size.

The matrix covers both trajectory engines (batched amplitudes and the
stabilizer tableau), group sizes {2, 4, 8}, worker counts {1, 2}, and both
the thread and process chunk executors, plus the exact (noiseless) path,
width-1 chunk isolation in the packer, ``run`` as the merged group of one,
and worker-crash recovery mid-merge.
"""

import numpy as np
import pytest

from repro.simulators.gate import Circuit, NoiseModel, StatevectorSimulator
from repro.simulators.gate.faults import FaultEvent, FaultPlan


@pytest.fixture(scope="module")
def process_pool():
    """Tear the persistent worker pool down after this module's tests."""
    from repro.simulators.gate.procpool import shutdown_worker_pool

    yield
    shutdown_worker_pool()


def noisy_circuit(n=5):
    circuit = Circuit(n, n)
    for q in range(n):
        circuit.h(q)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    circuit.measure(1, 1)
    circuit.reset(2)
    for q in range(n):
        circuit.rz(0.3 * (q + 1), q)
    for q in range(n):
        circuit.measure(q, q)
    return circuit


def clifford_circuit(n=8):
    circuit = Circuit(n, n)
    for q in range(n):
        circuit.h(q)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    circuit.measure(0, 0)
    circuit.reset(1)
    for q in range(n):
        circuit.measure(q, q)
    return circuit


NOISE = NoiseModel(oneq_error=0.01, twoq_error=0.02, readout_error=0.005)


def group_specs(size):
    """Deterministic, deliberately ragged (shots, seed) specs for a group."""
    return [(96 + 37 * i, 11 + i) for i in range(size)]


def make_simulator(engine, executor, workers):
    kwargs = dict(
        noise_model=NOISE,
        trajectory_workers=workers,
        trajectory_executor=executor,
        # Small enough that every job spans several chunks, so the merged
        # plan genuinely packs cross-job super-chunks.
        max_batch_memory=16 * 1024 if engine == "batched" else 2 * 1024,
    )
    if engine == "stabilizer":
        kwargs["trajectory_engine"] = "stabilizer"
    return StatevectorSimulator(**kwargs)


# -- the bit-identity matrix --------------------------------------------------------

@pytest.mark.parametrize("engine", ["batched", "stabilizer"])
@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("workers", [1, 2])
def test_merged_counts_bit_identical_to_solo(engine, executor, workers, process_pool):
    circuit = noisy_circuit() if engine == "batched" else clifford_circuit()
    simulator = make_simulator(engine, executor, workers)
    for size in (2, 4, 8):
        specs = group_specs(size)
        solo = [simulator.run(circuit, shots=s, seed=sd) for s, sd in specs]
        merged = simulator.run_merged(circuit, specs)
        assert len(merged) == size
        for position, (one, alone) in enumerate(zip(merged, solo)):
            assert dict(one.counts) == dict(alone.counts)
            assert one.counts.shots == specs[position][0]
            info = one.metadata["merged"]
            assert info["group_size"] == size
            assert info["position"] == position
            assert one.metadata["trajectory_engine"] == engine


def test_merged_group_is_worker_count_invariant():
    # The merged plan (and therefore every job's counts) must not depend on
    # how many workers execute it — same contract as standalone chunking.
    circuit = noisy_circuit()
    specs = group_specs(4)
    baseline = None
    for workers in (1, 2, 3):
        simulator = make_simulator("batched", "thread", workers)
        counts = [dict(r.counts) for r in simulator.run_merged(circuit, specs)]
        if baseline is None:
            baseline = counts
        else:
            assert counts == baseline


def test_exact_path_merges_noiseless_groups():
    circuit = Circuit(4, 4)
    for q in range(4):
        circuit.h(q)
    circuit.cx(0, 1)
    for q in range(4):
        circuit.measure(q, q)
    simulator = StatevectorSimulator()
    specs = [(500, 1), (1024, 2), (77, 3)]
    solo = [simulator.run(circuit, shots=s, seed=sd) for s, sd in specs]
    merged = simulator.run_merged(circuit, specs)
    for one, alone in zip(merged, solo):
        assert dict(one.counts) == dict(alone.counts)
        assert one.metadata["method"] == "exact"
        # One shared evolution for the whole group.
        assert one.metadata["merged"]["merged_chunks"] == 1


def test_width_one_chunk_merges_isolated():
    # GEMM amplitudes at batch width exactly 1 differ by ~1 ulp from the
    # same column inside a wider batch, so a width-1 chunk never shares a
    # super-chunk.  The 1-shot job still merges (one group, one compile)
    # and stays bit-identical to its solo run.
    circuit = noisy_circuit()
    simulator = StatevectorSimulator(noise_model=NOISE)
    specs = [(1, 9), (512, 10)]
    solo = [simulator.run(circuit, shots=s, seed=sd) for s, sd in specs]
    merged = simulator.run_merged(circuit, specs)
    for one, alone in zip(merged, solo):
        assert dict(one.counts) == dict(alone.counts)
    assert merged[0].metadata["merged"]["position"] == 0
    # The width-1 chunk alone, the 512-shot chunk in the other super-chunk.
    assert merged[1].metadata["merged"]["merged_chunks"] == 2


def test_width_one_remainder_chunk_stays_bit_identical():
    # 97 shots at a 32-shot cap leave a width-1 remainder chunk; the rest of
    # the job shares super-chunks with its neighbours.
    circuit = noisy_circuit()
    simulator = StatevectorSimulator(noise_model=NOISE, max_batch_memory=16 * 1024)
    specs = [(97, 4), (40, 5), (1, 6)]
    solo = [simulator.run(circuit, shots=s, seed=sd) for s, sd in specs]
    merged = simulator.run_merged(circuit, specs)
    for one, alone in zip(merged, solo):
        assert dict(one.counts) == dict(alone.counts)
        assert one.metadata["num_batches"] == alone.metadata["num_batches"]


def _chunk_ids(packed):
    return [[(job, chunk_id, size) for job, chunk_id, size, _ in chunk] for chunk in packed]


def test_packer_isolates_width_one_and_keeps_single_job_plans():
    pack = StatevectorSimulator._pack_merged_chunks
    sizes_for = StatevectorSimulator._standalone_chunk_sizes
    # A single job: the super-chunks are exactly its standalone chunks, in
    # order, so fault-plan chunk ids mean the same thing solo and merged.
    for cap in (1, 2, 3, 7, 32, None):
        for shots in range(0, 70):
            batch = shots if cap is None else min(shots, cap)
            sizes = sizes_for(batch, shots)
            packed = pack([[(size, None) for size in sizes]], cap)
            assert _chunk_ids(packed) == [
                [(0, chunk_id, size)] for chunk_id, size in enumerate(sizes)
            ]
    # Several jobs: every chunk placed once, capacity respected, and a
    # size-1 chunk always alone in its super-chunk.
    plans = [
        [(32, None), (32, None), (1, None)],
        [(1, None)],
        [(20, None), (12, None)],
        [(3, None), (1, None)],
    ]
    for cap in (32, None):
        packed = _chunk_ids(pack(plans, cap))
        placed = sorted((job, chunk_id) for chunk in packed for job, chunk_id, _ in chunk)
        assert placed == [(j, c) for j, plan in enumerate(plans) for c in range(len(plan))]
        for chunk in packed:
            if any(size == 1 for _, _, size in chunk):
                assert len(chunk) == 1
            if cap is not None:
                assert sum(size for _, _, size in chunk) <= cap
    assert len(pack(plans, None)) == 4  # three width-1 chunks + everything else


@pytest.mark.parametrize("path", ["batched", "stabilizer", "exact"])
@pytest.mark.parametrize("executor", ["thread", "process"])
def test_run_is_the_merged_group_of_one(path, executor, process_pool):
    # run() and run_merged([(s, sd)])[0] are one code path: identical counts
    # and identical metadata, with no "merged" entry for a group of one.
    if path == "exact":
        circuit = Circuit(3, 3)
        circuit.h(0).cx(0, 1).cx(1, 2)
        circuit.measure_all()
        simulator = StatevectorSimulator(trajectory_executor=executor)
    else:
        circuit = noisy_circuit() if path == "batched" else clifford_circuit()
        simulator = make_simulator(path, executor, 2)
    for shots, seed in ((0, 1), (1, 2), (300, 3)):
        alone = simulator.run(circuit, shots=shots, seed=seed)
        (one,) = simulator.run_merged(circuit, [(shots, seed)])
        assert dict(one.counts) == dict(alone.counts)
        assert one.metadata == alone.metadata
        assert "merged" not in one.metadata


def test_zero_shot_member_rides_along():
    circuit = noisy_circuit()
    simulator = StatevectorSimulator(noise_model=NOISE, max_batch_memory=16 * 1024)
    specs = [(256, 1), (0, 2), (128, 3)]
    solo = [simulator.run(circuit, shots=s, seed=sd) for s, sd in specs]
    merged = simulator.run_merged(circuit, specs)
    for one, alone in zip(merged, solo):
        assert dict(one.counts) == dict(alone.counts)
    assert merged[1].counts.shots == 0


def test_merged_rejects_invalid_specs():
    circuit = noisy_circuit()
    simulator = StatevectorSimulator(noise_model=NOISE)
    assert simulator.run_merged(circuit, []) == []
    with pytest.raises(Exception, match="shots"):
        simulator.run_merged(circuit, [(-1, 0)])


# -- fault tolerance mid-merge ------------------------------------------------------

@pytest.mark.parametrize("engine", ["batched", "stabilizer"])
def test_killed_worker_mid_merge_recovers_bit_identical(engine, process_pool):
    # A worker killed while executing a merged super-chunk: recovery
    # re-dispatches the lost chunks with their original per-job streams, so
    # every member's counts still match a fault-free standalone run.
    circuit = noisy_circuit() if engine == "batched" else clifford_circuit()
    specs = group_specs(3)
    clean = make_simulator(engine, "process", 2)
    solo = [clean.run(circuit, shots=s, seed=sd) for s, sd in specs]
    kwargs = dict(
        noise_model=NOISE,
        trajectory_workers=2,
        trajectory_executor="process",
        max_batch_memory=16 * 1024 if engine == "batched" else 2 * 1024,
        fault_plan=FaultPlan([FaultEvent("kill", chunk_id=0)]),
    )
    if engine == "stabilizer":
        kwargs["trajectory_engine"] = "stabilizer"
    faulted = StatevectorSimulator(**kwargs)
    merged = faulted.run_merged(circuit, specs)
    for one, alone in zip(merged, solo):
        assert dict(one.counts) == dict(alone.counts)
    recovery = merged[0].metadata["executor_recovery"]
    assert recovery["pool_rebuilds"] == 1
    assert recovery["groups_redispatched"] >= 1
