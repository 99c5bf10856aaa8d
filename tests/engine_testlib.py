"""Shared helpers for the differential / property test harness.

Seeded random-circuit generators and distribution-distance metrics used by
``test_differential_engines.py`` and ``test_fusion_properties.py``, plus the
per-shot trajectory loop that the differential, batched-trajectory, dtype
and noisy-fastpath tests (and two benchmark scripts) hold the batched engine
against, the batched stabilizer tableau and kernel that
``test_stabilizer_engine.py`` holds the phase-only kernel against, and the
per-outcome exact-path samplers that ``test_statevector.py`` holds the array
counts builder against, the
schema walker that ``test_jsonschema.py`` holds the compiled validator
against, and the ``Circuit.append`` body that ``test_gates_circuit.py`` holds
the leaner one against.  Not a test module itself (no ``test_`` prefix, so
pytest does not collect it).
"""

import re
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import SchemaValidationError, SimulationError
from repro.results import Counts
from repro.simulators.gate import (
    Circuit,
    NoiseModel,
    SimulationResult,
    Statevector,
    compile_trajectory_program_cached,
    index_to_bits,
)
from repro.simulators.gate.circuit import _NON_GATE_OPS, Instruction
from repro.simulators.gate.gates import get_gate
from repro.simulators.gate.fusion import (
    CliffordStep,
    GateStep,
    MeasureStep,
    PauliChannelStep,
    ResetStep,
)
from repro.simulators.gate.noise import as_segments
from repro.simulators.gate.statevector import _collapse_terminal

ONEQ_GATES = (
    ("h", 0),
    ("x", 0),
    ("y", 0),
    ("z", 0),
    ("s", 0),
    ("t", 0),
    ("sx", 0),
    ("rx", 1),
    ("ry", 1),
    ("rz", 1),
    ("p", 1),
    ("u", 3),
)
TWOQ_GATES = (
    ("cx", 0),
    ("cz", 0),
    ("swap", 0),
    ("rzz", 1),
    ("cp", 1),
    ("crx", 1),
)

# Clifford-only gate pools: every name compiles onto the stabilizer tableau
# (directly or through the fusion layer's CLIFFORD_GATES lowering), so the
# generated circuits run on all four engines — including "stabilizer".
CLIFFORD_ONEQ_GATES = ("h", "x", "y", "z", "s", "sdg", "sx", "sxdg", "id")
CLIFFORD_TWOQ_GATES = ("cx", "cz", "cy", "swap", "iswap")


def random_unitary_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    depth: int,
    *,
    twoq_fraction: float = 0.4,
) -> Circuit:
    """A random purely-unitary circuit (no measure/reset/barrier).

    Each of the *depth* slots draws a one-qubit gate (random qubit, random
    angles) or, with probability *twoq_fraction*, a two-qubit gate on a
    random qubit pair — adjacent with 50% probability so both the fused
    adjacent-GEMM path and the generic slice-kernel path are exercised.
    """
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < twoq_fraction:
            name, num_params = TWOQ_GATES[rng.integers(len(TWOQ_GATES))]
            if rng.random() < 0.5 and num_qubits >= 2:
                a = int(rng.integers(num_qubits - 1))
                pair = [a, a + 1] if rng.random() < 0.5 else [a + 1, a]
            else:
                pair = list(rng.choice(num_qubits, size=2, replace=False))
            circuit.append(name, pair, [float(rng.uniform(0, 2 * np.pi)) for _ in range(num_params)])
        else:
            name, num_params = ONEQ_GATES[rng.integers(len(ONEQ_GATES))]
            qubit = int(rng.integers(num_qubits))
            circuit.append(name, [qubit], [float(rng.uniform(0, 2 * np.pi)) for _ in range(num_params)])
    return circuit


def random_clifford_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    depth: int,
    *,
    twoq_fraction: float = 0.4,
    measure: bool = True,
) -> Circuit:
    """A seeded random Clifford circuit for the stabilizer differential sweep.

    Mirrors :func:`random_unitary_circuit` but draws only from the Clifford
    pools above, so the same circuit is executable by the stabilizer tableau
    engine *and* the exact amplitude/density engines (at widths the latter
    can reach).  With *measure* (the default) every qubit is measured at the
    end, exercising the shared terminal-sampling contract.
    """
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < twoq_fraction:
            name = CLIFFORD_TWOQ_GATES[rng.integers(len(CLIFFORD_TWOQ_GATES))]
            if rng.random() < 0.5:
                a = int(rng.integers(num_qubits - 1))
                pair = [a, a + 1] if rng.random() < 0.5 else [a + 1, a]
            else:
                pair = list(rng.choice(num_qubits, size=2, replace=False))
            circuit.append(name, pair)
        else:
            name = CLIFFORD_ONEQ_GATES[rng.integers(len(CLIFFORD_ONEQ_GATES))]
            circuit.append(name, [int(rng.integers(num_qubits))])
    if measure:
        circuit.measure_all()
    return circuit


def random_mixed_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    depth: int,
    *,
    mid_measure_probability: float = 0.15,
    reset_probability: float = 0.1,
) -> Circuit:
    """A random circuit with mid-circuit measurements/resets and terminal measures.

    Gate slots follow :func:`random_unitary_circuit`; between them, qubits are
    occasionally measured mid-circuit (into their own clbit) or reset.  Every
    qubit is measured at the end, so the trajectory path is always exercised
    with a full terminal block on top of any mid-circuit activity.
    """
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(depth):
        roll = rng.random()
        if roll < mid_measure_probability:
            qubit = int(rng.integers(num_qubits))
            circuit.measure(qubit, qubit)
            continue
        if roll < mid_measure_probability + reset_probability:
            circuit.reset(int(rng.integers(num_qubits)))
            continue
        unitary = random_unitary_circuit(rng, num_qubits, 1)
        circuit.compose(unitary)
    circuit.measure_all()
    return circuit


def total_variation_distance(
    counts: Mapping[str, int], exact: Mapping[str, float]
) -> float:
    """TVD between an empirical histogram and an exact distribution."""
    shots = sum(counts.values())
    if shots == 0:
        raise ValueError("empty counts")
    keys = set(counts) | set(exact)
    return 0.5 * sum(
        abs(counts.get(key, 0) / shots - exact.get(key, 0.0)) for key in keys
    )


def chi_square_statistic(
    counts: Mapping[str, int], exact: Mapping[str, float], *, floor: float = 1e-12
) -> float:
    """Pearson chi-square of an empirical histogram against exact probabilities.

    Outcomes with exact probability below *floor* are pooled into a single
    tail cell so near-impossible outcomes cannot blow up the statistic.
    """
    shots = sum(counts.values())
    if shots == 0:
        raise ValueError("empty counts")
    statistic = 0.0
    tail_observed = 0
    tail_expected = 0.0
    for key in set(counts) | set(exact):
        probability = exact.get(key, 0.0)
        observed = counts.get(key, 0)
        if probability < floor:
            tail_observed += observed
            tail_expected += probability * shots
            continue
        expected = probability * shots
        statistic += (observed - expected) ** 2 / expected
    if tail_observed or tail_expected > floor:
        statistic += (tail_observed - tail_expected) ** 2 / max(tail_expected, floor)
    return statistic


def counts_distribution(counts: Mapping[str, int]) -> Dict[str, float]:
    """Empirical probabilities of a counts histogram."""
    shots = sum(counts.values())
    return {key: value / shots for key, value in counts.items()} if shots else {}


# -- the batched stabilizer oracle ---------------------------------------------------
#
# The tableau class and segment kernel the stabilizer engine ran before its
# Clifford structure was compiled once, kept verbatim (only renamed) as the
# oracle: every chunk replays the gates on shared bit matrices and keeps a
# per-shot (2n, batch) phase matrix.  The phase-only kernel must reproduce
# its bit rows byte for byte, draw for draw.


class BatchedStabilizerTableau:
    """A batch of stabilizer states sharing one bit tableau.

    Parameters
    ----------
    num_qubits:
        Width of the register (no upper cap; memory is quadratic in the
        width and linear in the batch).
    batch_size:
        Number of simultaneous trajectories.  All gate and measurement
        structure is shared; only the per-shot phase matrix and measurement
        outcomes differ between trajectories.
    """

    def __init__(self, num_qubits: int, batch_size: int = 1):
        if num_qubits < 1:
            raise SimulationError("stabilizer tableau needs at least one qubit")
        if batch_size < 1:
            raise SimulationError("stabilizer batch size must be >= 1")
        n = num_qubits
        self.num_qubits = n
        self.batch_size = batch_size
        # Rows 0..n-1: destabilizers (X_i); rows n..2n-1: stabilizers (Z_i).
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros((2 * n, batch_size), dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[n + np.arange(n), np.arange(n)] = 1

    def _flip(self, rows: np.ndarray, shots: Optional[np.ndarray] = None) -> None:
        """Flip the rows set in *rows* on all shots, or on batch indices *shots*."""
        hit = rows.nonzero()[0]
        if hit.size == 0:
            return
        if shots is None:
            self.r[hit] ^= 1
        else:
            self.r[hit[:, None], shots] ^= 1  # the np.ix_ block, without its checks

    # -- single-qubit gates ----------------------------------------------------------
    def h(self, q: int) -> None:
        """Hadamard: swap the X and Z letters, sign flip on Y rows."""
        self._flip(self.x[:, q] & self.z[:, q])
        column = self.x[:, q].copy()
        self.x[:, q] = self.z[:, q]
        self.z[:, q] = column

    def s(self, q: int) -> None:
        """Phase gate: X -> Y, Y -> -X, Z -> Z."""
        self._flip(self.x[:, q] & self.z[:, q])
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        """Inverse phase gate: X -> -Y, Y -> X, Z -> Z."""
        self._flip(self.x[:, q] & (1 ^ self.z[:, q]))
        self.z[:, q] ^= self.x[:, q]

    def apply_x(self, q: int, shots: Optional[np.ndarray] = None) -> None:
        """Pauli X (on all shots, or batch indices *shots*): flip Z and Y rows."""
        self._flip(self.z[:, q], shots)

    def apply_z(self, q: int, shots: Optional[np.ndarray] = None) -> None:
        """Pauli Z (on all shots, or batch indices *shots*): flip X and Y rows."""
        self._flip(self.x[:, q], shots)

    def apply_y(self, q: int, shots: Optional[np.ndarray] = None) -> None:
        """Pauli Y (on all shots, or batch indices *shots*): flip X and Z rows."""
        self._flip(self.x[:, q] ^ self.z[:, q], shots)

    # -- two-qubit gates -------------------------------------------------------------
    def cx(self, control: int, target: int) -> None:
        """Controlled-X with the standard Aaronson–Gottesman phase rule."""
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self._flip(xc & zt & (xt ^ zc ^ 1))
        self.x[:, target] = xt ^ xc
        self.z[:, control] = zc ^ zt

    def cz(self, control: int, target: int) -> None:
        """Controlled-Z via the H-conjugation identity ``CZ = H_t CX H_t``."""
        self.h(target)
        self.cx(control, target)
        self.h(target)

    def swap(self, a: int, b: int) -> None:
        """SWAP: exchange the two qubits' tableau columns (no phase change)."""
        self.x[:, [a, b]] = self.x[:, [b, a]]
        self.z[:, [a, b]] = self.z[:, [b, a]]

    # -- dispatch --------------------------------------------------------------------
    def apply_gate(self, name: str, qubits: Tuple[int, ...]) -> None:
        """Apply one primitive Clifford gate by name (see ``PRIMITIVE_GATES``)."""
        if name == "cx":
            self.cx(qubits[0], qubits[1])
        elif name == "cz":
            self.cz(qubits[0], qubits[1])
        elif name == "swap":
            self.swap(qubits[0], qubits[1])
        elif name == "h":
            self.h(qubits[0])
        elif name == "s":
            self.s(qubits[0])
        elif name == "sdg":
            self.sdg(qubits[0])
        elif name == "x":
            self.apply_x(qubits[0])
        elif name == "y":
            self.apply_y(qubits[0])
        elif name == "z":
            self.apply_z(qubits[0])
        elif name == "id":
            pass
        else:
            raise SimulationError(f"{name!r} is not a primitive stabilizer gate")

    # -- Pauli-frame noise -----------------------------------------------------------
    def apply_pauli_masked(self, kind: str, qubit: int, mask: np.ndarray) -> None:
        """Apply Pauli *kind* on *qubit* to the shots selected by *mask*.

        *mask* is a ``(batch,)`` bool or 0/1 array; a true (1) entry selects
        the shot.  Pauli conjugation never changes generator bits — it only
        flips the sign of every generator that anticommutes with the error —
        so the error flips those rows on the selected shots and nothing else.
        """
        paulis = {"x": self.apply_x, "y": self.apply_y, "z": self.apply_z}
        if kind not in paulis:
            raise SimulationError(f"{kind!r} is not a Pauli label")
        paulis[kind](qubit, np.flatnonzero(mask))

    def apply_depolarizing(self, qubits: Tuple[int, ...], rate: float, draws) -> None:
        """One depolarizing opportunity per qubit: strike with *rate*, draw a Pauli.

        Mirrors the trajectory engines' channel: each qubit the source gate
        touched is struck independently with probability *rate*, and a struck
        shot applies a uniformly drawn X, Y or Z.  The draw count per qubit is
        fixed (one uniform vector + one integer vector), so a chunk's RNG
        stream consumption is independent of which shots are struck.  *draws*
        is a generator or a list of ``(size, generator)`` segments
        partitioning the batch axis (see
        :func:`~repro.simulators.gate.noise.as_segments`); each segment draws
        both vectors from its own generator, in the order and at the sizes a
        standalone chunk would.  Only the struck shots are touched.
        """
        segments = as_segments(draws, self.batch_size)
        for qubit in qubits:
            parts = [
                (gen.random(size) < rate, gen.integers(0, 3, size=size))
                for size, gen in segments
            ]
            struck = np.flatnonzero(np.concatenate([sub for sub, _ in parts]))
            if struck.size == 0:
                continue
            kinds = np.concatenate([kind for _, kind in parts])[struck]
            for kind, pauli in enumerate((self.apply_x, self.apply_y, self.apply_z)):
                shots = struck[kinds == kind]
                if shots.size:
                    pauli(qubit, shots)

    # -- row arithmetic --------------------------------------------------------------
    def _phase_exponents(self, rows: np.ndarray, other: int) -> np.ndarray:
        """Mod-4 ``i``-exponents of multiplying row *other* onto each of *rows*.

        The Aaronson–Gottesman ``g`` function summed over qubit columns:
        ``g(x1, z1, x2, z2)`` is the exponent of ``i`` produced by multiplying
        the Pauli letter ``(x1, z1)`` (from row *other*, the left factor) onto
        ``(x2, z2)`` (from each accumulating row).  Depends only on the shared
        bits, so one scalar per row serves the whole batch.
        """
        x1 = self.x[other].astype(np.int64)
        z1 = self.z[other].astype(np.int64)
        x2 = self.x[rows].astype(np.int64)
        z2 = self.z[rows].astype(np.int64)
        term = (
            (x1 * z1) * (z2 - x2)
            + (x1 * (1 - z1)) * (z2 * (2 * x2 - 1))
            + ((1 - x1) * z1) * (x2 * (1 - 2 * z2))
        )
        return term.sum(axis=1) % 4

    def _rowsum_many(self, rows: np.ndarray, other: int) -> None:
        """Multiply row *other* onto every row in *rows* (vectorised rowsum).

        For each target row the product of two commuting-phase Pauli strings
        accumulates a real sign: ``2 r_h + 2 r_other + sum(g)`` is 0 or 2 mod
        4, so the new phase is ``r_h ^ r_other ^ (sum(g) mod 4 == 2)``.  The
        sign correction comes from shared bits (one scalar per row); the
        per-shot part is a batched XOR.
        """
        if rows.size == 0:
            return
        flips = (self._phase_exponents(rows, other) == 2).astype(np.uint8)
        self.r[rows] ^= self.r[other][None, :] ^ flips[:, None]
        self.x[rows] ^= self.x[other][None, :]
        self.z[rows] ^= self.z[other][None, :]

    def _deterministic_phase(self, qubit: int) -> np.ndarray:
        """Per-shot outcome of a deterministic Z measurement (no state change).

        Accumulates, destabilizer by destabilizer, the product of stabilizer
        rows whose destabilizer partner has an X letter on *qubit* — the
        scratch-row construction of the Aaronson–Gottesman measurement — and
        returns the product's ``(batch,)`` phase vector, which *is* the
        measurement outcome per shot.
        """
        n = self.num_qubits
        acc_x = np.zeros(n, dtype=np.int64)
        acc_z = np.zeros(n, dtype=np.int64)
        phase = np.zeros(self.batch_size, dtype=np.int64)  # i-exponent / 2 pairs
        exponent = 0
        for i in np.nonzero(self.x[:n, qubit])[0]:
            row = n + int(i)
            x1 = self.x[row].astype(np.int64)
            z1 = self.z[row].astype(np.int64)
            term = (
                (x1 * z1) * (acc_z - acc_x)
                + (x1 * (1 - z1)) * (acc_z * (2 * acc_x - 1))
                + ((1 - x1) * z1) * (acc_x * (1 - 2 * acc_z))
            )
            exponent = (exponent + int(term.sum())) % 4
            phase ^= self.r[row].astype(np.int64)
            acc_x ^= x1
            acc_z ^= z1
        return (phase ^ (1 if exponent == 2 else 0)).astype(np.uint8)

    # -- measurement -----------------------------------------------------------------
    def measurement_probabilities(self, qubit: int) -> np.ndarray:
        """Per-shot probability of measuring 1 on *qubit* — exactly 0, 0.5 or 1.

        Does not modify the state: a stabilizer state's single-qubit Z
        marginal is either uniformly random (some stabilizer anticommutes
        with ``Z_q``) or deterministic (``Z_q`` is itself in the group, up to
        sign).
        """
        n = self.num_qubits
        if self.x[n:, qubit].any():
            return np.full(self.batch_size, 0.5)
        return self._deterministic_phase(qubit).astype(np.float64)

    def measure(self, qubit: int, draws) -> np.ndarray:
        """Projectively measure *qubit* in the Z basis across the batch.

        Returns the ``(batch,)`` outcome vector and collapses the state.
        Whether the outcome is random is a property of the shared bits, so
        the whole batch takes the same branch: the random branch consumes one
        fresh random bit per shot, the deterministic branch consumes none.
        *draws* is a generator or a segment list; the random bits come from
        each segment's own generator (branch choice is shared-bit structure,
        identical to a standalone chunk by construction).
        """
        n = self.num_qubits
        pivots = np.nonzero(self.x[n:, qubit])[0]
        if pivots.size == 0:
            return self._deterministic_phase(qubit)
        pivot = n + int(pivots[0])
        others = np.nonzero(self.x[:, qubit])[0]
        others = others[others != pivot]
        self._rowsum_many(others, pivot)
        # Old pivot row becomes its own destabilizer; the new pivot row is
        # (-1)^outcome Z_q with one fresh random bit per shot.
        self.x[pivot - n] = self.x[pivot]
        self.z[pivot - n] = self.z[pivot]
        self.r[pivot - n] = self.r[pivot]
        outcomes = np.concatenate(
            [
                gen.integers(0, 2, size=size, dtype=np.uint8)
                for size, gen in as_segments(draws, self.batch_size)
            ]
        )
        self.x[pivot] = 0
        self.z[pivot] = 0
        self.z[pivot, qubit] = 1
        self.r[pivot] = outcomes
        return outcomes.copy()

    def reset(self, qubit: int, draws) -> None:
        """Measure *qubit*, then flip the shots that collapsed to 1 back to 0."""
        outcomes = self.measure(qubit, draws)
        self.apply_pauli_masked("x", qubit, outcomes)

    # -- invariants ------------------------------------------------------------------
    def is_symplectic(self) -> bool:
        """Whether the rows still form a valid symplectic generating set.

        Checks the full pairwise commutation structure: stabilizers commute
        among themselves, destabilizers commute among themselves, and
        destabilizer ``i`` anticommutes with stabilizer ``j`` exactly when
        ``i == j``.  Equivalently, the binary symplectic Gram matrix
        ``x z^T + z x^T (mod 2)`` must equal the canonical off-diagonal block
        form.  The matmul runs in float32 (exact for column sums below
        ``2^24``) so wide tableaus stay fast without int64 matmul loops.
        """
        x = self.x.astype(np.float32)
        z = self.z.astype(np.float32)
        gram = (x @ z.T + z @ x.T) % 2
        n = self.num_qubits
        expected = np.zeros((2 * n, 2 * n), dtype=np.float32)
        expected[:n, n:] = np.eye(n, dtype=np.float32)
        expected[n:, :n] = np.eye(n, dtype=np.float32)
        return bool(np.array_equal(gram, expected))


def execute_batched_stabilizer_segments(program, segments, noise_model=None) -> np.ndarray:
    """Run one super-chunk of trajectories through a compiled stabilizer program.

    The stabilizer engine's segment kernel, used for every chunk the
    simulator executes (a solo run is a merged group of one).

    Parameters
    ----------
    program:
        A :class:`~repro.simulators.gate.fusion.StabilizerProgram` (immutable,
        shared across chunks and threads).
    segments:
        ``(size, generator)`` pairs partitioning the batch axis; each pair is
        one standalone chunk of one job with that chunk's own seeded
        generator.  The shared bit matrices evolve identically at any batch
        width, and every random draw (Pauli channels, random-branch
        measurements, readout flips) is pulled per segment in standalone
        order, so slicing the returned rows back per segment reproduces each
        chunk bit for bit at every grouping.
    noise_model:
        Optional :class:`~repro.simulators.gate.noise.NoiseModel`; only its
        readout error is consulted here — gate noise was already lowered into
        the program's Pauli channel steps at compile time.

    Returns
    -------
    numpy.ndarray
        ``(sum(sizes), bits_width)`` ``uint8`` classical-bit rows in segment
        order.  Terminal measurements are sampled jointly (sequential tableau
        collapse is the chain rule of the joint outcome distribution),
        honouring the implicit-terminal-measurement contract.
    """

    total = sum(size for size, _ in segments)
    tableau = BatchedStabilizerTableau(program.num_qubits, total)
    bits = np.zeros((total, program.bits_width), dtype=np.uint8)
    for step in program.steps:
        if isinstance(step, CliffordStep):
            tableau.apply_gate(step.name, step.qubits)
        elif isinstance(step, PauliChannelStep):
            tableau.apply_depolarizing(step.qubits, step.rate, segments)
        elif isinstance(step, MeasureStep):
            outcomes = tableau.measure(step.qubit, segments)
            if noise_model is not None:
                outcomes = noise_model.apply_readout_error_segmented(outcomes, segments)
            bits[:, step.clbit] = outcomes
        elif isinstance(step, ResetStep):
            tableau.reset(step.qubit, segments)
        else:  # pragma: no cover - compiler invariant
            raise SimulationError(f"unknown stabilizer step {type(step).__name__}")
    if program.terminal is not None:
        for qubit, clbit in program.terminal.pairs:
            column = tableau.measure(qubit, segments)
            if noise_model is not None and not program.terminal.implicit:
                column = noise_model.apply_readout_error_segmented(column, segments)
            bits[:, clbit] = column
    return bits


# -- the per-outcome exact-path oracles ------------------------------------------------
#
# ``Statevector.sample_counts`` and ``StatevectorSimulator._sample_exact`` as
# they were before the exact path built its counts at array speed, kept
# verbatim (only lifted to module functions) as the oracle: one
# ``index_to_bits`` string and one Python join per distinct outcome, then the
# checked ``Counts`` constructor.  The array builder must give equal mappings
# from the same draws.


def per_outcome_sample_counts(
    self: Statevector, shots: int, rng: np.random.Generator, qubits: Optional[Sequence[int]] = None
) -> Counts:
    """Sample *shots* outcomes of the given qubits (default all)."""
    qubits = list(range(self.num_qubits)) if qubits is None else list(qubits)
    probs = self.probabilities()
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    data: Dict[str, int] = {}
    for index, multiplicity in zip(*np.unique(outcomes, return_counts=True)):
        full = index_to_bits(int(index), self.num_qubits)
        key = "".join(full[q] for q in qubits)
        data[key] = data.get(key, 0) + int(multiplicity)
    return Counts(data)


def per_outcome_sample_exact(
    state: Statevector,
    measure_map: Dict[int, int],
    circuit: Circuit,
    shots: int,
    rng: np.random.Generator,
) -> Tuple[Counts, bool]:
    """Sample *shots* outcomes from the evolved exact state.

    Returns the counts and whether the measurement was implicit.
    """
    if shots == 0:
        return Counts({}), False
    if not measure_map:
        # Documented contract: measurement-free circuits are measured
        # implicitly at the end, keyed over all qubits in qubit order.
        return per_outcome_sample_counts(state, shots, rng), True

    num_clbits = circuit.num_clbits
    probs = state.probabilities()
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    data: Dict[str, int] = {}
    for index, multiplicity in zip(*np.unique(outcomes, return_counts=True)):
        full = index_to_bits(int(index), circuit.num_qubits)
        key_chars = ["0"] * num_clbits
        for clbit, qubit in measure_map.items():
            key_chars[clbit] = full[qubit]
        key = "".join(key_chars)
        data[key] = data.get(key, 0) + int(multiplicity)
    return Counts(data), False


# -- the per-shot trajectory oracle ------------------------------------------------------
#
# The simulator's former ``trajectory_engine="reference"`` loop, kept verbatim
# (only lifted to a module function) as the oracle of per-trajectory
# semantics: it executes the *same* compiled program as the batched engine,
# one shot at a time with scalar draws.  Unlike the simulator it has no
# exact-path shortcut, so every circuit runs shot by shot.


def reference_trajectories(
    circuit: Circuit,
    noise_model: Optional[NoiseModel] = None,
    *,
    shots: int,
    seed: Optional[int] = None,
    keep_state: bool = False,
) -> SimulationResult:
    """Sample *shots* trajectories of *circuit* one at a time.

    Compiles through the shared structure-keyed cache, noise model included,
    then draws one uniform per error opportunity, one projective collapse per
    mid-circuit measurement and one joint draw for the terminal block, all
    from ``default_rng(seed)``.  With *keep_state* the result carries the last
    shot's state: collapsed onto its terminal outcome, or pre-measurement
    when the measurement is implicit.
    """
    rng = np.random.default_rng(seed)
    metadata: Dict[str, object] = {
        "method": "trajectories",
        "statevector_kind": "final_trajectory",
        "trajectory_engine": "reference",
        "implicit_measurement": False,
    }
    n = circuit.num_qubits
    final_state = Statevector(n)
    samples = []
    if shots:
        noise = None if noise_model is None or noise_model.is_noiseless else noise_model
        program = compile_trajectory_program_cached(circuit, noise)
        implicit = program.terminal is not None and program.terminal.implicit
        if implicit:
            metadata["statevector_kind"] = "pre_measurement"
        metadata["implicit_measurement"] = implicit
        metadata["compiled_steps"] = len(program.steps)
    for _ in range(shots):
        state = Statevector(n)
        clbits = ["0"] * program.bits_width
        for step in program.steps:
            if isinstance(step, GateStep):
                state.apply_matrix(step.matrix, step.qubits, plan=step.plan)
                for event in step.noise:
                    if rng.random() < event.rate:
                        drawn = int(rng.integers(0, len(event.operators)))
                        matrix, plan = event.operators[drawn]
                        state.apply_matrix(matrix, event.qubits, plan=plan)
            elif isinstance(step, MeasureStep):
                outcome = state.measure_qubit(step.qubit, rng)
                if noise is not None:
                    outcome = noise.apply_readout_error(outcome, rng)
                clbits[step.clbit] = str(outcome)
            elif isinstance(step, ResetStep):
                state.reset_qubit(step.qubit, rng)
        if program.terminal is not None:
            probs = state.probabilities()
            index = int(rng.choice(len(probs), p=probs / probs.sum()))
            for qubit, clbit in program.terminal.pairs:
                bit = (index >> (n - 1 - qubit)) & 1
                if noise is not None and not implicit:
                    bit = noise.apply_readout_error(bit, rng)
                clbits[clbit] = str(bit)
            if not implicit:
                # Collapse onto the sampled outcome for the documented
                # "final_trajectory" statevector contract; the implicit
                # sample never collapses (pre-measurement contract).
                _collapse_terminal(state, program.terminal.pairs, index)
        samples.append("".join(clbits))
        final_state = state
    return SimulationResult(
        counts=Counts.from_samples(samples),
        statevector=final_state if keep_state else None,
        shots=shots,
        seed=seed,
        metadata=metadata,
    )


# -- the JSON Schema walker oracle ------------------------------------------------------
#
# ``repro.core.jsonschema.JSONSchemaValidator`` as it was before schemas were
# compiled into check closures, kept verbatim (only renamed) as the oracle:
# a generator walk that re-dispatches every keyword on every node.  The
# compiled validator must report the same ``(message, path, schema_path)``
# list, in the same order, and raise the same errors for malformed schemas.

_WALKER_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _walker_type_matches(value: Any, type_name: str) -> bool:
    check = _WALKER_TYPE_CHECKS.get(type_name)
    if check is None:
        raise SchemaValidationError(f"unknown schema type {type_name!r}")
    return check(value)


class WalkerJSONSchemaValidator:
    """Validate JSON-like Python objects against a JSON Schema document.

    Parameters
    ----------
    schema:
        The schema document.  ``definitions`` at the top level are resolvable
        through ``$ref`` references of the form ``#/definitions/<name>``.
    """

    def __init__(self, schema: Mapping[str, Any]):
        if not isinstance(schema, Mapping):
            raise SchemaValidationError("schema must be a JSON object")
        self.schema = schema
        self._definitions = schema.get("definitions", {})

    # -- public API ---------------------------------------------------------
    def validate(self, instance: Any) -> None:
        """Raise :class:`SchemaValidationError` on the first violation."""
        errors = list(self.iter_errors(instance))
        if errors:
            raise errors[0]

    def is_valid(self, instance: Any) -> bool:
        """Return ``True`` when *instance* satisfies the schema."""
        return not list(self.iter_errors(instance))

    def iter_errors(self, instance: Any):
        """Yield every :class:`SchemaValidationError` found in *instance*."""
        yield from self._validate(instance, self.schema, "$", "#")

    # -- internals ----------------------------------------------------------
    def _resolve_ref(self, ref: str) -> Mapping[str, Any]:
        if not ref.startswith("#/"):
            raise SchemaValidationError(f"only local $ref supported, got {ref!r}")
        node: Any = self.schema
        for part in ref[2:].split("/"):
            if not isinstance(node, Mapping) or part not in node:
                raise SchemaValidationError(f"unresolvable $ref {ref!r}")
            node = node[part]
        return node

    def _validate(self, value: Any, schema: Any, path: str, spath: str):
        if schema is True or schema == {}:
            return
        if schema is False:
            yield SchemaValidationError("schema forbids any value", path, spath)
            return
        if not isinstance(schema, Mapping):
            raise SchemaValidationError(f"invalid schema node at {spath}")

        if "$ref" in schema:
            ref_schema = self._resolve_ref(schema["$ref"])
            yield from self._validate(value, ref_schema, path, schema["$ref"])
            return

        yield from self._check_type(value, schema, path, spath)
        yield from self._check_enum_const(value, schema, path, spath)
        yield from self._check_combinators(value, schema, path, spath)

        if isinstance(value, Mapping):
            yield from self._check_object(value, schema, path, spath)
        if isinstance(value, (list, tuple)):
            yield from self._check_array(value, schema, path, spath)
        if isinstance(value, str):
            yield from self._check_string(value, schema, path, spath)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield from self._check_number(value, schema, path, spath)

    def _check_type(self, value, schema, path, spath):
        if "type" not in schema:
            return
        expected = schema["type"]
        names = [expected] if isinstance(expected, str) else list(expected)
        if not any(_walker_type_matches(value, name) for name in names):
            yield SchemaValidationError(
                f"expected type {expected!r}, got {type(value).__name__}",
                path,
                f"{spath}/type",
            )

    def _check_enum_const(self, value, schema, path, spath):
        if "enum" in schema and value not in schema["enum"]:
            yield SchemaValidationError(
                f"value {value!r} not in enum {schema['enum']!r}", path, f"{spath}/enum"
            )
        if "const" in schema and value != schema["const"]:
            yield SchemaValidationError(
                f"value {value!r} != const {schema['const']!r}", path, f"{spath}/const"
            )

    def _check_combinators(self, value, schema, path, spath):
        if "allOf" in schema:
            for i, sub in enumerate(schema["allOf"]):
                yield from self._validate(value, sub, path, f"{spath}/allOf/{i}")
        if "anyOf" in schema:
            subs = schema["anyOf"]
            if all(list(self._validate(value, sub, path, f"{spath}/anyOf/{i}"))
                   for i, sub in enumerate(subs)):
                yield SchemaValidationError(
                    "value does not satisfy any subschema of anyOf", path, f"{spath}/anyOf"
                )
        if "oneOf" in schema:
            subs = schema["oneOf"]
            matches = sum(
                not list(self._validate(value, sub, path, f"{spath}/oneOf/{i}"))
                for i, sub in enumerate(subs)
            )
            if matches != 1:
                yield SchemaValidationError(
                    f"value satisfies {matches} subschemas of oneOf (need exactly 1)",
                    path,
                    f"{spath}/oneOf",
                )
        if "not" in schema:
            if not list(self._validate(value, schema["not"], path, f"{spath}/not")):
                yield SchemaValidationError(
                    "value must not satisfy the 'not' subschema", path, f"{spath}/not"
                )

    def _check_object(self, value: Mapping, schema, path, spath):
        properties = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in value:
                yield SchemaValidationError(
                    f"missing required property {name!r}", path, f"{spath}/required"
                )
        for name, sub in properties.items():
            if name in value:
                yield from self._validate(
                    value[name], sub, f"{path}.{name}", f"{spath}/properties/{name}"
                )
        additional = schema.get("additionalProperties", True)
        if additional is False:
            extra = [k for k in value if k not in properties]
            if extra:
                yield SchemaValidationError(
                    f"additional properties not allowed: {sorted(extra)!r}",
                    path,
                    f"{spath}/additionalProperties",
                )
        elif isinstance(additional, Mapping):
            for k, v in value.items():
                if k not in properties:
                    yield from self._validate(
                        v, additional, f"{path}.{k}", f"{spath}/additionalProperties"
                    )

    def _check_array(self, value: Sequence, schema, path, spath):
        if "minItems" in schema and len(value) < schema["minItems"]:
            yield SchemaValidationError(
                f"array has {len(value)} items, minimum is {schema['minItems']}",
                path,
                f"{spath}/minItems",
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield SchemaValidationError(
                f"array has {len(value)} items, maximum is {schema['maxItems']}",
                path,
                f"{spath}/maxItems",
            )
        items = schema.get("items")
        if items is not None:
            if isinstance(items, Mapping) or items in (True, False):
                for i, element in enumerate(value):
                    yield from self._validate(
                        element, items, f"{path}[{i}]", f"{spath}/items"
                    )
            else:  # positional tuple validation
                for i, (element, sub) in enumerate(zip(value, items)):
                    yield from self._validate(
                        element, sub, f"{path}[{i}]", f"{spath}/items/{i}"
                    )

    def _check_string(self, value: str, schema, path, spath):
        if "minLength" in schema and len(value) < schema["minLength"]:
            yield SchemaValidationError(
                f"string shorter than minLength {schema['minLength']}",
                path,
                f"{spath}/minLength",
            )
        if "maxLength" in schema and len(value) > schema["maxLength"]:
            yield SchemaValidationError(
                f"string longer than maxLength {schema['maxLength']}",
                path,
                f"{spath}/maxLength",
            )
        if "pattern" in schema and not re.search(schema["pattern"], value):
            yield SchemaValidationError(
                f"string does not match pattern {schema['pattern']!r}",
                path,
                f"{spath}/pattern",
            )

    def _check_number(self, value, schema, path, spath):
        if "minimum" in schema and value < schema["minimum"]:
            yield SchemaValidationError(
                f"value {value} below minimum {schema['minimum']}",
                path,
                f"{spath}/minimum",
            )
        if "maximum" in schema and value > schema["maximum"]:
            yield SchemaValidationError(
                f"value {value} above maximum {schema['maximum']}",
                path,
                f"{spath}/maximum",
            )
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield SchemaValidationError(
                f"value {value} not above exclusiveMinimum {schema['exclusiveMinimum']}",
                path,
                f"{spath}/exclusiveMinimum",
            )
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            yield SchemaValidationError(
                f"value {value} not below exclusiveMaximum {schema['exclusiveMaximum']}",
                path,
                f"{spath}/exclusiveMaximum",
            )


# -- the Circuit.append oracle --------------------------------------------------------
#
# ``Circuit.append`` and its two check helpers as they were before the leaner
# body, kept verbatim (only lifted to module functions) as the oracle: every
# fault must raise the same error, in the same order, and every accepted call
# must append the same instruction.


def _old_check_qubits(self, qubits: Sequence[int]) -> Tuple[int, ...]:
    qs = tuple(int(q) for q in qubits)
    if len(set(qs)) != len(qs):
        raise SimulationError(f"duplicate qubits in {qs}")
    for q in qs:
        if not 0 <= q < self.num_qubits:
            raise SimulationError(
                f"qubit {q} out of range for a {self.num_qubits}-qubit circuit"
            )
    return qs


def _old_check_clbits(self, clbits: Sequence[int]) -> Tuple[int, ...]:
    cs = tuple(int(c) for c in clbits)
    for c in cs:
        if not 0 <= c < self.num_clbits:
            raise SimulationError(
                f"clbit {c} out of range for a circuit with {self.num_clbits} clbits"
            )
    return cs


def old_circuit_append(
    self: Circuit,
    name: str,
    qubits: Sequence[int],
    params: Sequence[float] = (),
    clbits: Sequence[int] = (),
    label: Optional[str] = None,
) -> Circuit:
    """Append an instruction by name, validating arity against the library."""
    qs = _old_check_qubits(self, qubits)
    cs = _old_check_clbits(self, clbits)
    if name not in _NON_GATE_OPS:
        definition = get_gate(name)
        if definition.num_qubits != len(qs):
            raise SimulationError(
                f"gate {name!r} acts on {definition.num_qubits} qubits, got {len(qs)}"
            )
        if definition.num_params != len(params):
            raise SimulationError(
                f"gate {name!r} takes {definition.num_params} params, got {len(params)}"
            )
    self.instructions.append(
        Instruction(name, qs, tuple(float(p) for p in params), cs, label)
    )
    return self
