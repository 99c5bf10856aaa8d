"""Pinned seeded counts of the stabilizer engine's sampler.

The stabilizer kernel samples a compiled affine map with its own draw order
(:func:`~repro.simulators.gate.stabilizer.execute_stabilizer_program_segments`).
These digests pin that order: a change to it, or to the map, shows up here
as a changed digest instead of passing unseen.  Each digest is a SHA-256 over
the counts of three seeded jobs, each as a sorted mapping.  Rows that must
agree share one digest: a solo job and the same job in a merged group of
three, and one forced chunk plan (three full chunks and a size-1 chunk) on
the serial, thread and process executors, solo and merged.
"""

import hashlib
import json

import pytest

from repro.services.qec import repetition_code_circuit, surface_code_cycle_circuit
from repro.simulators.gate import (
    Circuit,
    NoiseModel,
    StatevectorSimulator,
    compile_stabilizer_program,
)

SHOTS = 301
SEEDS = (5, 6, 7)
#: Shots per chunk of the forced plan: 301 shots run as 100 + 100 + 100 + 1.
CHUNK = 100


def repetition_round():
    """A noise-only program: one distance-5 repetition round."""
    return repetition_code_circuit(5, rounds=1), NoiseModel(oneq_error=0.01, twoq_error=0.03)


def surface_cycle():
    """Two distance-3 surface-code rounds: random measurements and resets."""
    return surface_code_cycle_circuit(3, rounds=2), NoiseModel(oneq_error=0.005, twoq_error=0.02)


def readout_circuit():
    """Mid-circuit measurements and a reset under readout error."""
    circuit = Circuit(3, 4)
    circuit.h(0).cx(0, 1)
    circuit.measure(1, 0)
    circuit.reset(1)
    circuit.cx(0, 2).h(0)
    circuit.measure(0, 1)
    circuit.s(2).h(2)
    circuit.measure(2, 2)
    circuit.measure(1, 3)
    return circuit, NoiseModel(oneq_error=0.02, twoq_error=0.04, readout_error=0.05)


PROGRAMS = {
    "repetition_round": repetition_round,
    "surface_cycle": surface_cycle,
    "readout_circuit": readout_circuit,
}

#: The pinned digests, one per program and plan.
EXPECTED = {
    ("repetition_round", "one_chunk"):
        "37a3cbebc2ca13604f983dffe2113495dc5544024219851f022cbed895c2a76d",
    ("repetition_round", "chunked"):
        "a611008b55fc3a9bd178cc048a493fe74ef682e2bf1493368767b26f622aa0e4",
    ("surface_cycle", "one_chunk"):
        "df76d2037741ea054fa6532522d9697725964cd4abd749b96882a16fba475f25",
    ("surface_cycle", "chunked"):
        "09ba2e60bcdc449018ca712cf4fc45c7be3036a7c52b3e1eec66f3a06a7f5edc",
    ("readout_circuit", "one_chunk"):
        "0c140d4a5925e3dfbe7de6d5351bc97a5de2479034b4b08042dd78fae535fbd2",
    ("readout_circuit", "chunked"):
        "62f981383bfde61ac643e884dc69bf6f85fcb1a727f01f687cfc8847cef4dc4d",
}


@pytest.fixture(scope="module")
def process_pool():
    """Tear the persistent worker pool down after this module's tests."""
    from repro.simulators.gate.procpool import shutdown_worker_pool

    yield
    shutdown_worker_pool()


def digest(results):
    """SHA-256 over each result's counts as a sorted mapping, in job order."""
    doc = [sorted(dict(result.counts).items()) for result in results]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def rows(circuit, noise):
    """``{row: (plan, digest)}`` over every configuration of one program."""
    program = compile_stabilizer_program(circuit, noise)
    budget = CHUNK * (2 * program.num_qubits + program.bits_width)
    specs = [(SHOTS, seed) for seed in SEEDS]

    def simulator(memory=None, workers=1, executor="thread"):
        return StatevectorSimulator(
            noise_model=noise,
            trajectory_engine="stabilizer",
            max_batch_memory=memory,
            trajectory_workers=workers,
            trajectory_executor=executor,
        )

    def solo(sim):
        return [sim.run(circuit, shots=shots, seed=seed) for shots, seed in specs]

    chunked = solo(simulator(budget))
    assert all(result.metadata["num_batches"] == 4 for result in chunked)
    return {
        "solo": ("one_chunk", digest(solo(simulator()))),
        "merged_3": ("one_chunk", digest(simulator().run_merged(circuit, specs))),
        "chunked_serial": ("chunked", digest(chunked)),
        "chunked_thread_2": ("chunked", digest(solo(simulator(budget, 2)))),
        "chunked_process_2": ("chunked", digest(solo(simulator(budget, 2, "process")))),
        "chunked_merged_3": ("chunked", digest(simulator(budget, 2).run_merged(circuit, specs))),
    }


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_seeded_stabilizer_counts_match_their_pinned_digests(name, process_pool):
    got = rows(*PROGRAMS[name]())
    mismatched = {
        row: value for row, (plan, value) in got.items() if value != EXPECTED[(name, plan)]
    }
    assert not mismatched, mismatched


def test_pinned_programs_reach_every_kind_of_event():
    from repro.simulators.gate.stabilizer import MeasureFlips

    def program(name):
        return compile_stabilizer_program(*PROGRAMS[name]())

    assert program("repetition_round").num_random == 0
    surface = program("surface_cycle")
    assert surface.num_random > 0
    assert any(isinstance(op, MeasureFlips) and op.clbit < 0 for op in surface.phases)
    circuit, noise = readout_circuit()
    assert noise.readout_error > 0 and program("readout_circuit").num_readout == 4
