"""Property tests for the stabilizer tableau engine (ISSUE 7 tentpole).

Covers the tableau invariants (symplectic form preserved by every gate /
measure / reset), the Aaronson–Gottesman measurement contract (probabilities
are exactly 0, 1/2 or 1; repeated measurement is idempotent), the per-op
phase kernel oracle against the batched tableau (byte-equal bit rows and
equal generator end states), the compiled affine map against that oracle on
injected fired-event tables (bit for bit) and the sampler against it in
distribution, the Clifford compile path and its typed
``UnsupportedGateError``, engine routing (``"auto"`` selection, registry
resolution, backend fallback behaviour), the seeded chunk-stream determinism
guarantees, and the IR009/IR010/IR011 verifier rules on hand-built broken
programs.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import SimulationError, UnsupportedGateError
from repro.services.qec import repetition_code_circuit, surface_code_cycle_circuit
from repro.simulators.gate import (
    Circuit,
    DensityMatrixSimulator,
    NoiseModel,
    StabilizerTableau,
    StatevectorSimulator,
    clear_compile_caches,
    compile_cache_info,
    compile_stabilizer_program,
    is_clifford_circuit,
    verify_stabilizer_program,
)
from repro.simulators.gate.fusion import (
    CliffordStep,
    PauliChannelStep,
    StabilizerProgram,
    TerminalSample,
)
from repro.simulators.gate.stabilizer import (
    MeasureFlips,
    PauliFlips,
    execute_stabilizer_program_segments,
)

from engine_testlib import (
    BatchedStabilizerTableau,
    execute_batched_stabilizer_segments,
    execute_phase_program_events,
    execute_phase_program_segments,
    num_events,
    random_clifford_circuit,
    sample_outcome_map_events,
    total_variation_distance,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import analyze  # noqa: E402  (needs the tools/ path above)


# -- tableau invariants -------------------------------------------------------------


def test_symplectic_invariant_after_every_gate_measure_reset():
    # Walk a seeded random Clifford circuit gate by gate and check the binary
    # symplectic form survives every single update, including the
    # rowsum-heavy measurement and reset paths (random outcomes collapsed to
    # both 0 and 1).
    rng = np.random.default_rng(5)
    circuit = random_clifford_circuit(rng, 4, 30, measure=False)
    program = compile_stabilizer_program(circuit)
    tableau = StabilizerTableau(4)
    assert tableau.is_symplectic()
    for step in program.steps:
        assert isinstance(step, CliffordStep)
        tableau.apply_gate(step.name, step.qubits)
        assert tableau.is_symplectic(), step
    for qubit in range(4):
        tableau.measure(qubit, qubit % 2)
        assert tableau.is_symplectic(), ("measure", qubit)
        tableau.reset(qubit)
        assert tableau.is_symplectic(), ("reset", qubit)


def test_measurement_probabilities_are_exactly_zero_half_or_one():
    tableau = StabilizerTableau(2)
    probability = tableau.measurement_probabilities(0)
    assert probability == 0.0  # |00>: P(1) = 0 exactly
    tableau.apply_gate("h", (0,))
    assert tableau.measurement_probabilities(0) == 0.5
    tableau.apply_gate("cx", (0, 1))
    assert tableau.measurement_probabilities(1) == 0.5
    tableau.apply_gate("x", (0,))
    # Still the (phase-flipped) Bell pair: marginals stay exactly 1/2.
    assert tableau.measurement_probabilities(0) == 0.5
    deterministic = StabilizerTableau(1)
    deterministic.apply_gate("x", (0,))
    assert deterministic.measurement_probabilities(0) == 1.0


def test_repeated_measurement_is_idempotent():
    # After a random measurement collapses the state, re-measuring the same
    # qubit is deterministic: the same outcome, and no fresh random bit.
    for outcome in (0, 1):
        tableau = StabilizerTableau(3)
        tableau.apply_gate("h", (0,))
        tableau.apply_gate("cx", (0, 1))
        tableau.apply_gate("cx", (1, 2))
        first, _, pivot = tableau.measure(0, outcome)
        assert first == outcome and pivot is not None  # the random branch
        again, _, pivot = tableau.measure(0)
        assert again == first
        assert pivot is None  # deterministic: no fresh bit
        # GHZ correlations survive the collapse: all three qubits agree.
        assert tableau.measure(1)[0] == first
        assert tableau.measure(2)[0] == first


def test_reset_forces_zero_regardless_of_prior_state():
    tableau = StabilizerTableau(3)
    tableau.apply_gate("x", (0,))
    tableau.apply_gate("h", (1,))
    tableau.apply_gate("h", (2,))
    tableau.measure(2, 1)  # collapse |+> to |1>
    for qubit in range(3):
        tableau.reset(qubit)
    for qubit in range(3):
        assert tableau.measurement_probabilities(qubit) == 0.0


def test_pauli_noise_on_ghz_matches_density_oracle_marginals():
    # Satellite: the Pauli-channel lowering of depolarizing noise must
    # reproduce the density oracle's distribution on a noisy GHZ state at
    # widths the oracle can reach.
    for width in (3, 6, 10):
        circuit = Circuit(width, width)
        circuit.h(0)
        for q in range(width - 1):
            circuit.cx(q, q + 1)
        circuit.measure_all()
        noise = NoiseModel(oneq_error=0.03, twoq_error=0.05)
        exact = DensityMatrixSimulator(noise_model=noise).probabilities(circuit)
        counts = StatevectorSimulator(
            noise_model=noise, trajectory_engine="stabilizer"
        ).run(circuit, shots=4096, seed=3).counts
        shots = sum(counts.values())
        bound = 5.0 * np.sqrt(max(len(exact), 2) / (2 * np.pi * shots))
        assert total_variation_distance(counts, exact) < bound, width


# -- sparse phase writes against the dense formulas ---------------------------------
#
# These pin the batched oracle the per-op phase kernel is held against below.

# The dense Aaronson-Gottesman phase rules: each XORs a (2n,) row indicator,
# broadcast across every shot, into the whole (2n, batch) phase matrix.
DENSE_PHASE_ROWS = {
    "h": lambda x, z, q: x[:, q] & z[:, q],
    "s": lambda x, z, q: x[:, q] & z[:, q],
    "sdg": lambda x, z, q: x[:, q] & (1 ^ z[:, q]),
    "x": lambda x, z, q: z[:, q],
    "y": lambda x, z, q: x[:, q] ^ z[:, q],
    "z": lambda x, z, q: x[:, q],
}


def dense_gate(tableau, name, qubits):
    """Apply a primitive gate to *tableau* with full-matrix phase XORs."""
    x, z, r = tableau.x, tableau.z, tableau.r
    if name in ("h", "s", "sdg", "x", "y", "z"):
        (q,) = qubits
        r ^= DENSE_PHASE_ROWS[name](x, z, q)[:, None]
        if name == "h":
            x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
        elif name in ("s", "sdg"):
            z[:, q] ^= x[:, q]
    elif name == "cx":
        c, t = qubits
        r ^= (x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1))[:, None]
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif name == "cz":
        dense_gate(tableau, "h", (qubits[1],))
        dense_gate(tableau, "cx", qubits)
        dense_gate(tableau, "h", (qubits[1],))
    elif name == "swap":
        a, b = qubits
        x[:, [a, b]] = x[:, [b, a]]
        z[:, [a, b]] = z[:, [b, a]]


def dense_pauli_masked(tableau, kind, qubit, mask):
    """Outer-product XOR of the anticommuting rows and a 0/1 shot mask."""
    rows = DENSE_PHASE_ROWS[kind](tableau.x, tableau.z, qubit)
    tableau.r ^= rows[:, None] & np.asarray(mask, dtype=np.uint8)[None, :]


def dense_depolarizing(tableau, qubits, rate, segments):
    """Full-batch masks per Pauli kind, drawn in the tableau's RNG order."""
    for qubit in qubits:
        parts = [
            (gen.random(size) < rate, gen.integers(0, 3, size=size)) for size, gen in segments
        ]
        struck = np.concatenate([sub for sub, _ in parts])
        kinds = np.concatenate([kind for _, kind in parts])
        for kind, name in enumerate(("x", "y", "z")):
            dense_pauli_masked(tableau, name, qubit, struck & (kinds == kind))


def phased_tableau_pair(seed, num_qubits=6, batch=13):
    """A random Clifford prefix plus noise (non-trivial phases), and a copy."""
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(rng, num_qubits, 40, measure=False)
    program = compile_stabilizer_program(circuit)
    tableau = BatchedStabilizerTableau(num_qubits, batch_size=batch)
    for step in program.steps:
        tableau.apply_gate(step.name, step.qubits)
        tableau.apply_depolarizing(step.qubits, 0.3, rng)
    tableau.measure(int(rng.integers(num_qubits)), rng)
    assert tableau.r.any() and not tableau.r.all()
    twin = BatchedStabilizerTableau(num_qubits, batch_size=batch)
    twin.x, twin.z, twin.r = tableau.x.copy(), tableau.z.copy(), tableau.r.copy()
    return tableau, twin


def assert_same_tableau(tableau, twin):
    assert np.array_equal(tableau.x, twin.x)
    assert np.array_equal(tableau.z, twin.z)
    assert np.array_equal(tableau.r, twin.r)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"])
def test_sparse_gate_phase_writes_equal_dense_formula_oracle(seed, name):
    tableau, twin = phased_tableau_pair(seed)
    if name in DENSE_PHASE_ROWS:
        qubit_sets = [(q,) for q in range(6)]
    else:
        qubit_sets = [(0, 1), (4, 2), (5, 0)]
    for qubits in qubit_sets:
        tableau.apply_gate(name, qubits)
        dense_gate(twin, name, qubits)
        assert_same_tableau(tableau, twin)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dtype", [bool, np.uint8])
def test_sparse_pauli_masked_equals_dense_formula_oracle(seed, dtype):
    tableau, twin = phased_tableau_pair(seed)
    rng = np.random.default_rng(100 + seed)
    masks = [np.zeros(13, dtype=dtype), np.ones(13, dtype=dtype)]
    masks += [(rng.random(13) < 0.3).astype(dtype) for _ in range(4)]
    for mask in masks:
        for kind in ("x", "y", "z"):
            for qubit in range(6):
                tableau.apply_pauli_masked(kind, qubit, mask)
                dense_pauli_masked(twin, kind, qubit, mask)
                assert_same_tableau(tableau, twin)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("segmented", [False, True], ids=["generator", "segments"])
def test_sparse_depolarizing_equals_dense_formula_oracle(seed, segmented):
    tableau, twin = phased_tableau_pair(seed)
    sizes = (5, 1, 7) if segmented else (13,)

    def segments():
        return [(size, np.random.default_rng([seed, i])) for i, size in enumerate(sizes)]

    tableau_segments, oracle_segments = segments(), segments()
    draws = tableau_segments if segmented else tableau_segments[0][1]
    for qubits, rate in [((0,), 0.2), ((1, 4), 0.5), ((2, 3, 5), 1.0), ((0, 5), 0.0)]:
        tableau.apply_depolarizing(qubits, rate, draws)
        dense_depolarizing(twin, qubits, rate, oracle_segments)
        assert_same_tableau(tableau, twin)


# -- the per-op phase kernel oracle against the batched tableau ---------------------

#: Noise settings of the oracle sweep.
ORACLE_NOISE = {
    "off": None,
    "depolarizing": NoiseModel(oneq_error=0.02, twoq_error=0.05),
    "depolarizing_readout": NoiseModel(oneq_error=0.05, twoq_error=0.1, readout_error=0.03),
    "readout": NoiseModel(readout_error=0.05),
}

#: Segmentations of the oracle sweep; the second has a width-1 segment.
ORACLE_SEGMENTS = ([37], [13, 1, 20], [64, 64])


def random_dynamic_clifford_circuit(rng, num_qubits, depth):
    """Random Clifford gates between mid-circuit measurements and resets.

    Each mid-circuit measurement writes its own clbit after the terminal
    block's ``num_qubits``, so every outcome reaches the bit rows.
    """
    circuit = Circuit(num_qubits, num_qubits + depth)
    clbit = num_qubits
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.2:
            circuit.measure(int(rng.integers(num_qubits)), clbit)
            clbit += 1
        elif roll < 0.3:
            circuit.reset(int(rng.integers(num_qubits)))
        else:
            for inst in random_clifford_circuit(rng, num_qubits, 1, measure=False).instructions:
                circuit.append(inst.name, inst.qubits)
    for qubit in range(num_qubits):
        circuit.measure(qubit, qubit)
    return circuit


def measurement_free_with_resets(rng, num_qubits):
    """Clifford gates and resets, no measurement: the implicit terminal path."""
    circuit = random_clifford_circuit(rng, num_qubits, 12, measure=False)
    for qubit in range(num_qubits):
        circuit.reset(qubit)
        circuit.h(qubit)
    return circuit


def signed_rowsum_circuit():
    """A random measurement whose rowsum product has Y letters, read back later.

    Measuring qubit 0 multiplies the pivot ``X0 X1 Z2`` onto ``X0 Z1 X2``;
    the product ``Y1 Y2`` carries an ``i``-exponent the rowsum must track.
    S-dagger and H then map it to ``Z1 Z2``, whose sign the parity of the
    last two outcomes reads.  Random circuits reach this case about once in
    400.
    """
    circuit = Circuit(3, 3)
    circuit.h(1).h(2).cz(1, 2).cx(1, 0).cx(2, 0)
    circuit.measure(0, 0)
    circuit.sdg(1).sdg(2).h(1).h(2)
    circuit.measure(1, 1)
    circuit.measure(2, 2)
    circuit.x(0)  # keeps qubit 0's measurement ahead of the S-dagger and H
    return circuit


def random_branches(program):
    """How many of *program*'s measurements take the random branch."""
    return sum(isinstance(op, MeasureFlips) and op.pivot is not None for op in program.phases)


def assert_kernel_matches_oracle(program, noise, sizes, seed):
    """Byte-equal bit rows and equal generator end states, per-op kernel vs tableau."""

    def segments():
        return [(size, np.random.default_rng([seed, i])) for i, size in enumerate(sizes)]

    ours, theirs = segments(), segments()
    got = execute_phase_program_segments(program, ours, noise)
    want = execute_batched_stabilizer_segments(program, theirs, noise)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), sizes
    for (_, mine), (_, oracle) in zip(ours, theirs):
        assert mine.bit_generator.state == oracle.bit_generator.state, sizes


@pytest.mark.parametrize("noise", sorted(ORACLE_NOISE))
def test_phase_kernel_matches_batched_oracle_on_random_circuits(noise):
    rng = np.random.default_rng(2026)
    circuits = [random_dynamic_clifford_circuit(rng, 1 + k % 8, 24) for k in range(16)]
    circuits += [measurement_free_with_resets(rng, width) for width in (1, 3, 6)]
    circuits.append(signed_rowsum_circuit())
    branches = 0
    for index, circuit in enumerate(circuits):
        program = compile_stabilizer_program(circuit, ORACLE_NOISE[noise])
        branches += random_branches(program)
        for sizes in ORACLE_SEGMENTS:
            assert_kernel_matches_oracle(program, ORACLE_NOISE[noise], sizes, index)
    assert branches >= 40, branches


def test_phase_kernel_matches_batched_oracle_on_surface_cycle():
    circuit = surface_code_cycle_circuit(5, rounds=1)
    for noise in ORACLE_NOISE.values():
        program = compile_stabilizer_program(circuit, noise)
        assert random_branches(program) > 0
        assert_kernel_matches_oracle(program, noise, [13, 1, 20], 5)


@pytest.mark.slow
@pytest.mark.parametrize("readout", [0.0, 0.02])
def test_phase_kernel_matches_batched_oracle_on_the_1001q_repetition_round(readout):
    # The qec_1001q benchmark program: one distance-501 repetition round.
    noise = NoiseModel(oneq_error=1e-3, twoq_error=5e-3, readout_error=readout)
    program = compile_stabilizer_program(repetition_code_circuit(501, rounds=1), noise)
    for sizes in ([512], [200, 1, 311]):
        assert_kernel_matches_oracle(program, noise, sizes, 61)


def test_phase_program_index_arrays_are_read_only():
    circuit = random_dynamic_clifford_circuit(np.random.default_rng(3), 4, 16)
    program = compile_stabilizer_program(circuit, ORACLE_NOISE["depolarizing"])
    arrays = []
    for op in program.phases:
        arrays.extend(op.rows if isinstance(op, PauliFlips) else (op.rows, op.flips))
    assert arrays and not any(rows.flags.writeable for rows in arrays)
    with pytest.raises(ValueError):
        arrays[0][...] = 0


# -- the compiled affine map against the per-op oracle ------------------------------
#
# The injected-event harness: one fired-event table, run through the per-op
# phase kernel and through the compiled map, must give the same bit rows bit
# for bit.  Densities reach well past any physical rate, so every column and
# every interaction of events is exercised.

#: Fired-event densities of the injected tables.
INJECTED_DENSITIES = (0.02, 0.3, 0.5)


def assert_map_matches_oracle(program, seed, batch=19):
    """Bit-equal rows from the per-op oracle and the map, on injected events."""
    rng = np.random.default_rng(seed)
    for density in INJECTED_DENSITIES:
        fired = (rng.random((num_events(program), batch)) < density).astype(np.uint8)
        want = execute_phase_program_events(program, fired)
        got = sample_outcome_map_events(program, fired)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), density


def drawn_event_table(program, size, gen, noise):
    """The fired-event table of the per-op oracle's draws from *gen*.

    Pulls the oracle's draws in its order (per noise op a uniform and a kind
    vector, per random measurement a bit vector, per recorded measurement a
    readout vector) and files each under its event.
    """
    fired = np.zeros((num_events(program), size), dtype=np.uint8)
    implicit = program.terminal is not None and program.terminal.implicit
    noise_op, fresh = 0, 3 * program.noise_rates.size
    flip = fresh + program.num_random
    for op in program.phases:
        if isinstance(op, PauliFlips):
            struck = gen.random(size) < op.rate
            kinds = gen.integers(0, 3, size=size)
            fired[3 * noise_op + kinds[struck], struck.nonzero()[0]] = 1
            noise_op += 1
            continue
        if op.pivot is not None:
            fired[fresh] = gen.integers(0, 2, size=size, dtype=np.uint8)
            fresh += 1
        if op.clbit >= 0 and not implicit:
            if noise is not None and noise.readout_error > 0:
                fired[flip] = gen.random(size) < noise.readout_error
            flip += 1
    return fired


@pytest.mark.parametrize("noise", sorted(ORACLE_NOISE))
def test_injected_event_table_replays_the_oracle_draws(noise):
    # The harness's own check: the events a per-op run draws, filed in the
    # table layout and injected, give that run's rows bit for bit.
    model = ORACLE_NOISE[noise]
    rng = np.random.default_rng(7)
    circuits = [signed_rowsum_circuit(), surface_code_cycle_circuit(3, rounds=2)]
    circuits += [random_dynamic_clifford_circuit(rng, 5, 16), measurement_free_with_resets(rng, 4)]
    for index, circuit in enumerate(circuits):
        program = compile_stabilizer_program(circuit, model)
        drawn = execute_phase_program_segments(program, [(23, np.random.default_rng(index))], model)
        fired = drawn_event_table(program, 23, np.random.default_rng(index), model)
        assert execute_phase_program_events(program, fired).tobytes() == drawn.tobytes()
        assert sample_outcome_map_events(program, fired).tobytes() == drawn.tobytes()


@pytest.mark.parametrize("noise", sorted(ORACLE_NOISE))
def test_outcome_map_matches_phase_kernel_on_injected_random_circuits(noise):
    rng = np.random.default_rng(2026)
    circuits = [random_dynamic_clifford_circuit(rng, 1 + k % 8, 24) for k in range(16)]
    circuits += [measurement_free_with_resets(rng, width) for width in (1, 3, 6)]
    circuits.append(signed_rowsum_circuit())
    for index, circuit in enumerate(circuits):
        assert_map_matches_oracle(compile_stabilizer_program(circuit, ORACLE_NOISE[noise]), index)


@pytest.mark.parametrize("distance", [5, 9])
def test_outcome_map_matches_phase_kernel_on_surface_cycles(distance):
    noise = NoiseModel(oneq_error=1e-3, twoq_error=5e-3, readout_error=0.02)
    program = compile_stabilizer_program(surface_code_cycle_circuit(distance, rounds=2), noise)
    assert program.num_random > 0 and program.num_readout > 0
    assert any(op.clbit < 0 for op in program.phases if isinstance(op, MeasureFlips))
    assert_map_matches_oracle(program, distance)


def test_outcome_map_matches_phase_kernel_on_the_1001q_repetition_round():
    # The qec_1001q benchmark program: one distance-501 repetition round.
    noise = NoiseModel(oneq_error=1e-3, twoq_error=5e-3)
    program = compile_stabilizer_program(repetition_code_circuit(501, rounds=1), noise)
    assert program.noise_rates.size == 2000 and program.num_readout == 1001
    assert_map_matches_oracle(program, 61, batch=8)


def test_outcome_map_matches_phase_kernel_on_the_serving_qec_bundle():
    # The serving_burst QEC job: four distance-7 patches, seven rounds, as
    # the gate backend lowers and transpiles it.
    from repro.backends import GateBackend
    from repro.core import ContextDescriptor, ExecPolicy, package
    from repro.oplib import repetition_memory_operator, repetition_register
    from repro.simulators.gate.transpiler import transpile_cached

    registers = [repetition_register(f"patch{k}", 7) for k in range(4)]
    operators = [repetition_memory_operator(r, 7, rounds=7) for r in registers]
    context = ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", samples=64, seed=1))
    circuit, _ = GateBackend().build_circuit(package(registers, operators, context, name="qec"))
    circuit = transpile_cached(circuit).circuit
    noise = NoiseModel(oneq_error=1e-3, twoq_error=2e-3, readout_error=0.01)
    program = compile_stabilizer_program(circuit, noise)
    assert program.num_qubits == 52 and program.noise_rates.size > 0
    assert_map_matches_oracle(program, 7)


def test_a_clbit_written_twice_takes_its_last_write():
    # Clbit 0 first records a random outcome, then qubit 1's deterministic 1:
    # the map assigns the second write, so neither the random bit nor the
    # first readout flip reaches clbit 0.
    circuit = Circuit(2, 2)
    circuit.h(0).x(1)
    circuit.measure(0, 0)
    circuit.measure(1, 0)
    circuit.measure(0, 1)
    noise = NoiseModel(oneq_error=0.1, readout_error=0.05)
    program = compile_stabilizer_program(circuit, noise)
    random_event = 3 * program.noise_rates.size
    first_readout = random_event + program.num_random
    offsets, outputs = program.event_offsets, program.event_outputs
    assert program.outcome_constant.tolist() == [1, 0]
    assert outputs[offsets[random_event] : offsets[random_event + 1]].tolist() == [1]
    assert outputs[offsets[first_readout] : offsets[first_readout + 1]].size == 0
    assert_map_matches_oracle(program, 11)
    counts = StatevectorSimulator(trajectory_engine="stabilizer").run(circuit, shots=64, seed=2).counts
    assert {key[0] for key in counts} == {"1"} and {key[1] for key in counts} == {"0", "1"}


def test_a_reset_with_constant_outcome_one_flips_rows_by_a_constant():
    # |11> after x and cx: the reset of qubit 0 reads the constant 1 and
    # flips qubit 0's sign rows by it, so the later reads are 0 and 1, not 1
    # and 1.  A map without per-row constants reads qubit 0 as 1.
    circuit = Circuit(2, 2)
    circuit.x(0).cx(0, 1)
    circuit.reset(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    program = compile_stabilizer_program(circuit, ORACLE_NOISE["depolarizing_readout"])
    reset = next(op for op in program.phases if isinstance(op, MeasureFlips) and op.clbit < 0)
    assert reset.pivot is None and reset.constant == 1
    assert program.outcome_constant.tolist() == [0, 1]
    assert_map_matches_oracle(program, 13)
    counts = StatevectorSimulator(trajectory_engine="stabilizer").run(circuit, shots=64, seed=2).counts
    assert dict(counts) == {"01": 64}


def test_outcome_map_arrays_are_read_only():
    circuit = random_dynamic_clifford_circuit(np.random.default_rng(3), 4, 16)
    program = compile_stabilizer_program(circuit, ORACLE_NOISE["depolarizing_readout"])
    arrays = [
        program.noise_rates,
        program.event_offsets,
        program.event_outputs,
        program.outcome_constant,
    ]
    assert not any(array.flags.writeable for array in arrays)
    with pytest.raises(ValueError):
        program.event_outputs[...] = 0


def row_counts(rows):
    """Histogram of bit rows, keyed by each row's bytes."""
    keys, counts = np.unique(rows, axis=0, return_counts=True)
    return {key.tobytes(): int(count) for key, count in zip(keys, counts)}


@pytest.mark.parametrize("noise", ["depolarizing", "depolarizing_readout"])
def test_sampler_matches_phase_kernel_distribution(noise):
    # Same distribution, different draws: the sampler and the per-op oracle
    # on 20000 shots of small dynamic circuits, within a 5-sigma TV bound.
    rng = np.random.default_rng(44)
    circuits = [signed_rowsum_circuit()]
    circuits += [random_dynamic_clifford_circuit(rng, 3, 6) for _ in range(3)]
    shots = 20_000
    for index, circuit in enumerate(circuits):
        program = compile_stabilizer_program(circuit, ORACLE_NOISE[noise])
        ours = execute_stabilizer_program_segments(
            program, [(shots, np.random.default_rng([index, 0]))], ORACLE_NOISE[noise]
        )
        theirs = execute_phase_program_segments(
            program, [(shots, np.random.default_rng([index, 1]))], ORACLE_NOISE[noise]
        )
        counts = row_counts(ours)
        oracle = {row: count / shots for row, count in row_counts(theirs).items()}
        tv = total_variation_distance(counts, oracle)
        assert tv < 5.0 * np.sqrt(max(len(counts), 2) / (2 * np.pi * shots)), (index, tv)


def test_fired_cells_blocks_cover_the_grid_in_order():
    from repro.simulators.gate.stabilizer import _EVENT_BLOCK, _fired_cells

    gen = np.random.default_rng(0)
    cells = 2 * _EVENT_BLOCK + 5
    blocks = list(_fired_cells(gen, cells, 1.0))
    assert len(blocks) == 3 and all(block.size <= _EVENT_BLOCK for block in blocks)
    assert np.array_equal(np.concatenate(blocks), np.arange(cells))
    blocks = list(_fired_cells(gen, 8 * _EVENT_BLOCK, 0.5))
    hits = np.concatenate(blocks)
    assert len(blocks) > 4 and all(block.size <= _EVENT_BLOCK for block in blocks)
    assert np.all(np.diff(hits) > 0) and 0 <= hits[0] and hits[-1] < 8 * _EVENT_BLOCK
    assert abs(hits.size / (8 * _EVENT_BLOCK) - 0.5) < 0.01
    state = gen.bit_generator.state
    assert list(_fired_cells(gen, 0, 0.5)) == [] and list(_fired_cells(gen, 100, 0.0)) == []
    assert gen.bit_generator.state == state  # an empty or rate-0 grid draws nothing


def test_sampler_segments_are_standalone_across_many_blocks():
    # At a code-capacity rate a segment fires several blocks of events; each
    # segment's rows still equal its standalone run, at every grouping.
    from repro.simulators.gate.stabilizer import _EVENT_BLOCK

    noise = NoiseModel(oneq_error=0.3, twoq_error=0.3, readout_error=0.1)
    program = compile_stabilizer_program(repetition_code_circuit(5, rounds=2), noise)
    sizes = (3000, 1, 2500)
    assert program.noise_rates.sum() * sizes[0] > 1.5 * _EVENT_BLOCK

    def segments():
        return [(size, np.random.default_rng([9, i])) for i, size in enumerate(sizes)]

    merged = execute_stabilizer_program_segments(program, segments(), noise)
    offset = 0
    for segment in segments():
        alone = execute_stabilizer_program_segments(program, [segment], noise)
        assert alone.tobytes() == merged[offset : offset + segment[0]].tobytes()
        offset += segment[0]


# -- Clifford classification + typed errors -----------------------------------------


def test_is_clifford_circuit_classification():
    clifford = Circuit(2, 2)
    clifford.h(0).cx(0, 1).s(1).measure_all()
    assert is_clifford_circuit(clifford)
    parametric = Circuit(1, 1)
    parametric.rx(0.3, 0)
    assert not is_clifford_circuit(parametric)
    non_clifford = Circuit(1, 1)
    non_clifford.t(0)
    assert not is_clifford_circuit(non_clifford)


def test_non_clifford_gate_raises_typed_error_with_gate_and_index():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).t(1).measure_all()
    with pytest.raises(UnsupportedGateError) as excinfo:
        compile_stabilizer_program(circuit)
    assert excinfo.value.gate == "t"
    assert excinfo.value.index == 2
    assert isinstance(excinfo.value, SimulationError)
    assert not isinstance(excinfo.value, (ValueError, KeyError))


def test_parametric_gate_raises_typed_error():
    circuit = Circuit(1, 1)
    circuit.h(0)
    circuit.rz(0.7, 0)
    with pytest.raises(UnsupportedGateError) as excinfo:
        compile_stabilizer_program(circuit)
    assert excinfo.value.gate == "rz"
    assert excinfo.value.index == 1


def test_simulator_raises_typed_error_for_non_clifford_under_stabilizer():
    circuit = Circuit(1, 1)
    circuit.t(0)
    circuit.measure_all()
    simulator = StatevectorSimulator(trajectory_engine="stabilizer")
    with pytest.raises(UnsupportedGateError):
        simulator.run(circuit, shots=16, seed=1)


# -- engine routing ----------------------------------------------------------------


def test_auto_engine_selects_stabilizer_for_clifford_circuits():
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).measure_all()
    noise = NoiseModel(oneq_error=0.02)
    result = StatevectorSimulator(noise_model=noise, trajectory_engine="auto").run(
        circuit, shots=64, seed=1
    )
    assert result.metadata["trajectory_engine"] == "stabilizer"
    assert result.statevector is None
    assert result.metadata["statevector_kind"] == "none"


def test_auto_engine_falls_back_to_batched_for_non_clifford():
    circuit = Circuit(1, 1)
    circuit.t(0)
    circuit.measure_all()
    noise = NoiseModel(oneq_error=0.02)
    result = StatevectorSimulator(noise_model=noise, trajectory_engine="auto").run(
        circuit, shots=64, seed=1
    )
    assert result.metadata["trajectory_engine"] == "batched"


def test_stabilizer_counts_are_worker_and_chunk_stream_deterministic():
    rng = np.random.default_rng(17)
    circuit = random_clifford_circuit(rng, 6, 24)
    noise = NoiseModel(oneq_error=0.02, twoq_error=0.04, readout_error=0.01)
    reference = None
    for workers in (1, 2, 4, 8):
        counts = StatevectorSimulator(
            noise_model=noise,
            trajectory_engine="stabilizer",
            trajectory_workers=workers,
            max_batch_memory=2048,
        ).run(circuit, shots=1024, seed=7).counts
        if reference is None:
            reference = dict(counts)
        assert dict(counts) == reference, workers


def test_stabilizer_runs_beyond_exact_engine_widths():
    width = 60
    circuit = Circuit(width, width)
    circuit.h(0)
    for q in range(width - 1):
        circuit.cx(q, q + 1)
    circuit.measure_all()
    result = StatevectorSimulator(trajectory_engine="stabilizer").run(
        circuit, shots=256, seed=5
    )
    keys = set(result.counts)
    assert keys == {"0" * width, "1" * width}
    assert result.statevector is None


def test_stabilizer_zero_shots_returns_empty_counts():
    circuit = Circuit(30, 30)
    circuit.h(0)
    circuit.measure_all()
    result = StatevectorSimulator(trajectory_engine="stabilizer").run(
        circuit, shots=0, seed=1
    )
    assert sum(result.counts.values()) == 0
    assert result.statevector is None


def test_compile_cache_info_has_stabilizer_section():
    clear_compile_caches()
    circuit = Circuit(2, 2)
    circuit.h(0).cx(0, 1).measure_all()
    StatevectorSimulator(trajectory_engine="stabilizer").run(circuit, shots=8, seed=1)
    info = compile_cache_info()
    assert "stabilizer" in info
    assert info["stabilizer"]["misses"] >= 1
    StatevectorSimulator(trajectory_engine="stabilizer").run(circuit, shots=8, seed=1)
    assert compile_cache_info()["stabilizer"]["hits"] >= 1


# -- IR verifier rules --------------------------------------------------------------


def _terminal(num_qubits):
    return TerminalSample(
        pairs=tuple((q, q) for q in range(num_qubits)), implicit=True
    )


def test_verifier_accepts_compiled_stabilizer_program():
    rng = np.random.default_rng(23)
    circuit = random_clifford_circuit(rng, 3, 12)
    noise = NoiseModel(oneq_error=0.05, twoq_error=0.1)
    program = compile_stabilizer_program(circuit, noise)
    report = verify_stabilizer_program(program)
    assert report.ok, report.to_dict()


def test_verifier_flags_unknown_primitive_as_ir009():
    program = StabilizerProgram(
        num_qubits=2,
        num_clbits=2,
        steps=(CliffordStep(name="toffoli", qubits=(0, 1)),),
        terminal=_terminal(2),
    )
    report = verify_stabilizer_program(program)
    assert not report.ok
    assert "IR009" in report.rule_ids


def test_verifier_flags_bad_pauli_channel_rate_as_ir009():
    for rate in (-0.1, 1.5, float("nan")):
        program = StabilizerProgram(
            num_qubits=1,
            num_clbits=1,
            steps=(PauliChannelStep(qubits=(0,), rate=rate),),
            terminal=_terminal(1),
        )
        report = verify_stabilizer_program(program)
        assert not report.ok, rate
        assert "IR009" in report.rule_ids, rate


def test_verifier_flags_wrong_operand_count_as_ir009():
    program = StabilizerProgram(
        num_qubits=2,
        num_clbits=2,
        steps=(CliffordStep(name="cx", qubits=(0,)),),
        terminal=_terminal(2),
    )
    report = verify_stabilizer_program(program)
    assert not report.ok
    assert "IR009" in report.rule_ids


def test_verifier_flags_out_of_range_qubit_as_ir001():
    program = StabilizerProgram(
        num_qubits=2,
        num_clbits=2,
        steps=(CliffordStep(name="h", qubits=(5,)),),
        terminal=_terminal(2),
    )
    report = verify_stabilizer_program(program)
    assert not report.ok
    assert "IR001" in report.rule_ids


def _dynamic_program():
    circuit = Circuit(3, 3)
    circuit.h(0).cx(0, 1)
    circuit.measure(0, 0)
    circuit.reset(0)
    circuit.s(1)
    circuit.measure_all()
    return compile_stabilizer_program(circuit, NoiseModel(oneq_error=0.05, twoq_error=0.1))


def _corrupted(program, corruption):
    """*program* with one hand-corrupted phase op, group list or outcome-map field."""
    n = program.num_qubits
    phases = list(program.phases)
    noise = next(k for k, op in enumerate(phases) if isinstance(op, PauliFlips))
    random = next(
        k for k, op in enumerate(phases) if isinstance(op, MeasureFlips) and op.pivot is not None
    )
    op = phases[random]
    if corruption == "row_out_of_range":
        x_rows, y_rows, _ = phases[noise].rows
        phases[noise] = dataclasses.replace(phases[noise], rows=(x_rows, y_rows, np.array([2 * n])))
    elif corruption == "negative_row":
        phases[random] = dataclasses.replace(op, rows=np.array([-1]))
    elif corruption == "destabilizer_pivot":
        phases[random] = dataclasses.replace(op, pivot=op.pivot - n)
    elif corruption == "pivot_among_targets":
        phases[random] = dataclasses.replace(op, rows=np.append(op.rows, op.pivot))
    elif corruption == "constant_not_a_bit":
        phases[random] = dataclasses.replace(op, constant=2)
    elif corruption == "deterministic_reads_destabilizer":
        read = next(
            k for k, op in enumerate(phases) if isinstance(op, MeasureFlips) and op.pivot is None
        )
        phases[read] = dataclasses.replace(phases[read], rows=np.array([0]))
    elif corruption == "dropped_group":
        del phases[noise]
    elif corruption == "swapped_groups":
        phases[random], phases[random + 1] = phases[random + 1], phases[random]
    elif corruption == "missing":
        return dataclasses.replace(program, phases=None)
    elif corruption == "map_output_out_of_range":
        outputs = program.event_outputs.copy()
        outputs[-1] = program.bits_width
        return dataclasses.replace(program, event_outputs=outputs)
    elif corruption == "map_constant_not_a_bit":
        constant = program.outcome_constant.copy()
        constant[0] = 2
        return dataclasses.replace(program, outcome_constant=constant)
    elif corruption == "map_constant_short":
        return dataclasses.replace(program, outcome_constant=program.outcome_constant[1:])
    elif corruption == "map_column_dropped":
        return dataclasses.replace(program, event_offsets=program.event_offsets[:-1])
    elif corruption == "map_offsets_unsorted":
        offsets = program.event_offsets.copy()
        offsets[1], offsets[2] = offsets[2] + 1, offsets[1]
        return dataclasses.replace(program, event_offsets=offsets)
    elif corruption == "map_noise_rate":
        rates = program.noise_rates.copy()
        rates[0] /= 2
        return dataclasses.replace(program, noise_rates=rates)
    elif corruption == "map_readout_count":
        return dataclasses.replace(program, num_readout=program.num_readout + 1)
    elif corruption == "map_missing":
        return dataclasses.replace(program, event_offsets=None)
    return dataclasses.replace(program, phases=tuple(phases))


@pytest.mark.parametrize(
    "corruption",
    [
        "row_out_of_range",
        "negative_row",
        "destabilizer_pivot",
        "pivot_among_targets",
        "constant_not_a_bit",
        "deterministic_reads_destabilizer",
        "dropped_group",
        "swapped_groups",
        "missing",
        "map_output_out_of_range",
        "map_constant_not_a_bit",
        "map_constant_short",
        "map_column_dropped",
        "map_offsets_unsorted",
        "map_noise_rate",
        "map_readout_count",
        "map_missing",
    ],
)
def test_verifier_flags_corrupted_phase_program_as_ir011(corruption):
    program = _dynamic_program()
    assert verify_stabilizer_program(program).ok
    report = verify_stabilizer_program(_corrupted(program, corruption))
    assert not report.ok
    assert set(report.rule_ids) == {"IR011"}, report.to_dict()


def test_verifier_flags_every_dropped_phase_group_as_ir011():
    program = _dynamic_program()
    for index in range(len(program.phases)):
        phases = program.phases[:index] + program.phases[index + 1 :]
        report = verify_stabilizer_program(dataclasses.replace(program, phases=phases))
        assert "IR011" in report.rule_ids, index


def test_every_corpus_stabilizer_program_verifies_clean():
    circuits = [circuit for circuit in analyze._corpus_circuits() if is_clifford_circuit(circuit)]
    assert {"ghz", "clifford_dynamic"} <= {circuit.name for circuit in circuits}
    for circuit in circuits:
        for noise in (None, NoiseModel(oneq_error=0.01, twoq_error=0.05, readout_error=0.02)):
            report = verify_stabilizer_program(compile_stabilizer_program(circuit, noise))
            assert report.ok, (circuit.name, report.to_dict())
