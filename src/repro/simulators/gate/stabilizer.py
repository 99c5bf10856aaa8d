"""Compile-once Aaronson–Gottesman stabilizer engine for Clifford circuits.

The state-vector engines cap out near a dozen qubits; QEC workloads
(repetition/surface-code cycles) need hundreds.  For Clifford circuits the
Aaronson–Gottesman tableau representation tracks the state in ``O(n^2)`` bits
instead of ``2^n`` amplitudes: binary matrices ``x`` and ``z`` of shape
``(2n, n)`` hold the Pauli letter of every (de)stabilizer generator on every
qubit (rows ``0..n-1`` are destabilizers, rows ``n..2n-1`` stabilizers), and a
sign vector records each generator's sign.

Compile once, sample one affine map
-----------------------------------
Conjugating the generators by a Pauli error never changes their ``x``/``z``
bits — only their signs.  Gate updates, rowsum ``i``-exponents, each
measurement's random-or-deterministic branch and the rows a Pauli flips
depend **only** on the bits, so every trajectory shares them.  The compile
(:func:`~repro.simulators.gate.fusion.compile_stabilizer_program`) therefore
runs the program once on a :class:`StabilizerTableau` and records a *phase
program* of :class:`PauliFlips` and :class:`MeasureFlips` ops.  Row ``i``'s
true sign on a shot is ``R[i] XOR c[i]``, with ``c`` the compile-time
tableau's sign vector and ``R`` a per-shot sign column starting at zero:

* gate phase rules change ``c`` only, so gates cost nothing at run time;
* a Pauli error flips its anticommuting rows of ``R``;
* a deterministic measurement reads the XOR of named rows of ``R`` and a
  constant bit; a random one applies its rowsum to ``R`` and writes one
  fresh random bit into the pivot row;
* a reset then flips the rows of its conditional X when it read 1;
* a readout error flips a recorded outcome.

Every op is affine over GF(2), so the whole phase program is one map from
the events that fire on a shot (a Pauli kind of a noise op, a random
measurement's bit, a readout flip) to its outcome bits: ``bits = c XOR M e``,
the error-to-outcome map Stim samples from (Gidney, *Quantum* 5, 497
(2021)).  The compile folds the phase program into ``M``, stored by column,
and its constant row; the run kernel :func:`execute_stabilizer_program_segments`
draws the fired events and XORs their columns into per-shot rows.  Run-time
cost is the draws plus the nonzeros of the fired columns — per fired event,
not per op.  Sampling is exact (``M`` comes from the full tableau algorithm,
not an approximate Pauli-frame propagation) and has the per-op phase
program's distribution; the draws themselves are the kernel's own (see its
docstring), not those of a per-shot tableau run.

Primitive gate set: ``x``, ``y``, ``z``, ``h``, ``s``, ``sdg``, ``cx``,
``cz``, ``swap`` (the compile path in
:mod:`~repro.simulators.gate.fusion` lowers the wider Clifford library onto
these and rejects non-Clifford gates with a typed
:class:`~repro.core.errors.UnsupportedGateError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ...core.errors import SimulationError

__all__ = [
    "StabilizerTableau",
    "PauliFlips",
    "MeasureFlips",
    "PRIMITIVE_GATES",
    "execute_stabilizer_program_segments",
]

#: Primitive Clifford gates the tableau applies directly (the stabilizer
#: compile path lowers everything else onto these).
PRIMITIVE_GATES = ("id", "x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap")


class StabilizerTableau:
    """One stabilizer state: the bit tableau plus a ``(2n,)`` sign vector.

    The compile runs each stabilizer program once on this class; a gate's
    phase rule is one XOR of a ``(2n,)`` row mask into the sign vector ``r``.

    Parameters
    ----------
    num_qubits:
        Width of the register (no upper cap; memory is quadratic in the
        width).
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise SimulationError("stabilizer tableau needs at least one qubit")
        n = num_qubits
        self.num_qubits = n
        # Rows 0..n-1: destabilizers (X_i); rows n..2n-1: stabilizers (Z_i).
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[n + np.arange(n), np.arange(n)] = 1

    # -- single-qubit gates ----------------------------------------------------------
    def h(self, q: int) -> None:
        """Hadamard: swap the X and Z letters, sign flip on Y rows."""
        self.r ^= self.x[:, q] & self.z[:, q]
        column = self.x[:, q].copy()
        self.x[:, q] = self.z[:, q]
        self.z[:, q] = column

    def s(self, q: int) -> None:
        """Phase gate: X -> Y, Y -> -X, Z -> Z."""
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        """Inverse phase gate: X -> -Y, Y -> X, Z -> Z."""
        self.r ^= self.x[:, q] & (1 ^ self.z[:, q])
        self.z[:, q] ^= self.x[:, q]

    def apply_x(self, q: int) -> None:
        """Pauli X: flip the Z and Y rows."""
        self.r ^= self.z[:, q]

    def apply_z(self, q: int) -> None:
        """Pauli Z: flip the X and Y rows."""
        self.r ^= self.x[:, q]

    def apply_y(self, q: int) -> None:
        """Pauli Y: flip the X and Z rows."""
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def pauli_rows(self, q: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows an X, a Y and a Z error on *q* flip (the anticommuting ones)."""
        x, z = self.x[:, q].copy(), self.z[:, q].copy()
        return z.nonzero()[0], (x ^ z).nonzero()[0], x.nonzero()[0]

    # -- two-qubit gates -------------------------------------------------------------
    def cx(self, control: int, target: int) -> None:
        """Controlled-X with the standard Aaronson–Gottesman phase rule."""
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self.r ^= xc & zt & (xt ^ zc ^ 1)
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
        if name not in PRIMITIVE_GATES:
            raise SimulationError(f"{name!r} is not a primitive stabilizer gate")
        if name != "id":  # the Paulis are apply_*: x and z name the bit matrices
            getattr(self, f"apply_{name}" if name in ("x", "y", "z") else name)(*qubits)

    # -- row arithmetic --------------------------------------------------------------
    def _rowsum_many(self, rows: np.ndarray, other: int) -> None:
        """Multiply row *other* onto every row in *rows* (vectorised rowsum).

        Each product of two commuting Pauli strings has a real sign, so its
        ``i``-exponent ``e`` is 0 or 2 mod 4 and the new sign is
        ``r_h ^ r_other ^ (e == 2)``.  ``e`` is the Aaronson–Gottesman ``g``
        summed over columns, by popcounts: with ``P = i^{x.z} X^x Z^z``,
        moving ``Z^{z1}`` past ``X^{x2}`` gives ``P1 P2 = i^e P3`` where
        ``e = x1.z1 + x2.z2 + 2 z1.x2 - x3.z3`` (row *other* is ``P1``).
        """
        if rows.size == 0:
            return
        x1, z1, x2, z2 = self.x[other], self.z[other], self.x[rows], self.z[rows]
        count = np.count_nonzero
        e = count(x1 & z1) + count(x2 & z2, axis=1) + 2 * count(z1 & x2, axis=1)
        e -= count((x1 ^ x2) & (z1 ^ z2), axis=1)
        self.r[rows] ^= self.r[other] ^ (e % 4 == 2).astype(np.uint8)
        self.x[rows] ^= self.x[other]
        self.z[rows] ^= self.z[other]

    def _deterministic_phase(self, qubit: int) -> Tuple[np.ndarray, int]:
        """The stabilizer rows whose product is ``±Z_qubit``, and its sign bit.

        Stabilizer row ``n + i`` enters the product exactly when destabilizer
        ``i`` has an X letter on *qubit* (the scratch-row construction of the
        Aaronson–Gottesman measurement).  The sign is the XOR of the rows'
        signs, flipped when the ordered product's ``i``-exponent is 2.  Each
        row multiplies, as the left factor, onto the product of the rows
        before it; summed over the rows, the product rule of
        :meth:`_rowsum_many` telescopes to ``sum(x.z) + 2 sum(z_k.acc_k)``
        (``acc_k`` the running product's X bits), because the running product
        starts at the identity and ends at ``±Z_qubit``, which has no Y letter.
        """
        n = self.num_qubits
        rows = n + self.x[:n, qubit].nonzero()[0]
        exponent = np.count_nonzero(self.x[rows] & self.z[rows])
        acc_x = np.zeros(n, dtype=np.uint8)
        for row in rows:
            exponent += 2 * np.count_nonzero(self.z[row] & acc_x)
            acc_x ^= self.x[row]
        sign = int(np.bitwise_xor.reduce(self.r[rows])) ^ int(exponent % 4 == 2)
        return rows, sign

    # -- measurement -----------------------------------------------------------------
    def measurement_probabilities(self, qubit: int) -> float:
        """Probability of measuring 1 on *qubit* — exactly 0, 0.5 or 1.

        Does not modify the state: a stabilizer state's single-qubit Z
        marginal is either uniformly random (some stabilizer anticommutes
        with ``Z_q``) or deterministic (``Z_q`` is itself in the group, up to
        sign).
        """
        n = self.num_qubits
        if self.x[n:, qubit].any():
            return 0.5
        return float(self._deterministic_phase(qubit)[1])

    def measure(self, qubit: int, outcome: int = 0) -> Tuple[int, np.ndarray, Optional[int]]:
        """Projectively measure *qubit* in the Z basis and collapse the state.

        Returns ``(outcome, rows, pivot)``.  When a stabilizer anticommutes
        with ``Z_q`` the outcome is random and takes the given *outcome*:
        stabilizer row ``pivot`` is multiplied onto the other anticommuting
        rows ``rows`` (the rowsum targets), moves to its destabilizer slot,
        and is replaced by ``(-1)^outcome Z_q``.  Otherwise the outcome is the
        sign of the product of stabilizer rows ``rows``, the state does not
        change, and ``pivot`` is ``None``.
        """
        n = self.num_qubits
        pivots = self.x[n:, qubit].nonzero()[0]
        if pivots.size == 0:
            rows, sign = self._deterministic_phase(qubit)
            return sign, rows, None
        pivot = n + int(pivots[0])
        others = self.x[:, qubit].nonzero()[0]
        others = others[others != pivot]
        self._rowsum_many(others, pivot)
        self.x[pivot - n] = self.x[pivot]
        self.z[pivot - n] = self.z[pivot]
        self.r[pivot - n] = self.r[pivot]
        self.x[pivot] = 0
        self.z[pivot] = 0
        self.z[pivot, qubit] = 1
        self.r[pivot] = outcome
        return outcome, others, pivot

    def reset(self, qubit: int) -> None:
        """Measure *qubit*, then flip it back to ``|0>`` if it read 1."""
        if self.measure(qubit)[0]:
            self.apply_x(qubit)

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


# -- the phase program -----------------------------------------------------------------
#
# The compile-time record of one tableau pass; the compile folds it into the
# affine map the kernel samples, and the verifier checks both.


@dataclass(frozen=True)
class PauliFlips:
    """One noise qubit of a Pauli channel: the sign rows each error flips.

    Each shot is struck with probability ``rate``; a struck shot draws X, Y
    or Z uniformly and flips ``rows[0]``, ``rows[1]`` or ``rows[2]`` — the
    generators anticommuting with that error on ``qubit``.
    """

    qubit: int
    rate: float
    rows: Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MeasureFlips:
    """One Z measurement of ``qubit``: its sign-row update and its outcome.

    Deterministic when ``pivot`` is ``None``: the outcome is the XOR of sign
    rows ``rows`` and the bit ``constant``.  Random otherwise: ``rows`` are
    the rowsum targets of stabilizer row ``pivot``, whose sign moves to its
    destabilizer slot and is replaced by one fresh random bit per shot, the
    outcome.  The outcome goes to ``clbit`` — or, for a reset
    (``clbit == -1``), flips sign rows ``flips`` on the shots that read 1.
    """

    qubit: int
    clbit: int
    rows: np.ndarray
    pivot: Optional[int]
    constant: int
    flips: np.ndarray


# -- the affine sampler ----------------------------------------------------------------

#: Most fired cells one draw block holds.  Fired events grow with rate x ops
#: x shots, so blocks keep the sampler's transient arrays a fixed size at any
#: noise rate (a module constant of the engine revision, not a knob: changing
#: it changes seeded counts).
_EVENT_BLOCK = 1 << 14


def _fired_cells(gen: np.random.Generator, cells: int, rate: float):
    """Yield the fired cells of a ``cells``-long Bernoulli(*rate*) grid, in blocks.

    Each block is the next run of fired positions, ascending, from one
    ``gen.geometric`` draw of gaps: at most :data:`_EVENT_BLOCK`, sized from
    the expected count left so that one block usually ends the grid.  The
    grid is skipped, with no draw, when it is empty or the rate is zero.
    """
    start = 0
    while start < cells and rate > 0.0:
        expected = (cells - start) * rate
        size = min(_EVENT_BLOCK, int(expected + 4.0 * math.sqrt(expected)) + 16)
        hits = start - 1 + np.cumsum(gen.geometric(rate, size))
        if hits[-1] >= cells:
            yield hits[: np.searchsorted(hits, cells)]
            return
        start = int(hits[-1]) + 1
        yield hits


def _xor_events(flat: np.ndarray, program, events: np.ndarray, starts: np.ndarray) -> None:
    """XOR the columns of M of fired *events* into the flat bit rows at *starts*.

    *flat* is the ``(batch * bits_width,)`` view of the bit rows and
    ``starts[k]`` the offset of the row event ``k`` fired on.  M is stored by
    column (``event_offsets``/``event_outputs``), so a fired event costs its
    column's nonzeros and nothing else.
    """
    first = program.event_offsets[events]
    counts = program.event_offsets[events + 1] - first
    ends = np.cumsum(counts)
    if not events.size or not ends[-1]:
        return
    nonzeros = np.arange(ends[-1]) + np.repeat(first - ends + counts, counts)
    np.bitwise_xor.at(flat, np.repeat(starts, counts) + program.event_outputs[nonzeros], 1)


def execute_stabilizer_program_segments(program, segments, noise_model=None) -> np.ndarray:
    """Run one super-chunk of trajectories through a compiled stabilizer program.

    The stabilizer engine's segment kernel, used for every chunk the
    simulator executes (a solo run is a merged group of one).  It samples the
    program's compiled affine map, bits = c XOR M e: it draws which events
    fire and XORs their columns of M into their shots' rows, then XORs in the
    constant row; the Clifford structure and every measurement's rowsums ran
    once, at compile time.

    Each ``(size, generator)`` segment draws, in this fixed order:

    1. for each distinct noise rate, ascending: the fired cells of its
       ``(op, shot)`` grid (op-major, ops in phase order) by geometric gaps,
       in blocks of at most :data:`_EVENT_BLOCK` cells, each block followed
       by one ``integers(0, 3)`` draw of its cells' Pauli kinds (X, Y, Z);
    2. the random-measurement bits, as the fired cells of the ``(measurement,
       shot)`` grid at rate 1/2, in the same blocks;
    3. when the readout error is nonzero, the readout flips, as the fired
       cells of the ``(measurement, shot)`` grid at that rate.

    Parameters
    ----------
    program:
        A :class:`~repro.simulators.gate.fusion.StabilizerProgram` (immutable,
        shared across chunks and threads).
    segments:
        ``(size, generator)`` pairs partitioning the batch axis; each pair is
        one standalone chunk of one job with that chunk's own seeded
        generator.  Every draw is pulled per segment, in the order above and
        at that segment's size, so slicing the returned rows back per segment
        reproduces each chunk bit for bit at every grouping.
    noise_model:
        Optional :class:`~repro.simulators.gate.noise.NoiseModel`; only its
        readout error is consulted here — gate noise was already lowered into
        the program's Pauli channels at compile time.  It applies to
        mid-circuit and explicit terminal measurements, not to resets or the
        implicit terminal measurement.

    Returns
    -------
    numpy.ndarray
        ``(sum(sizes), bits_width)`` ``uint8`` classical-bit rows in segment
        order.  Terminal measurements are sampled jointly (sequential tableau
        collapse is the chain rule of the joint outcome distribution),
        honouring the implicit-terminal-measurement contract.
    """
    width = program.bits_width
    total = sum(size for size, _ in segments)
    bits = np.zeros((total, width), dtype=np.uint8)
    flat = bits.reshape(-1)
    # The map has no readout columns under an implicit terminal sample.
    readout = 0.0 if noise_model is None else noise_model.readout_error
    rates, members = np.unique(program.noise_rates, return_inverse=True)
    noise = [(rate, np.flatnonzero(members == k)) for k, rate in enumerate(rates.tolist())]
    random_base = 3 * program.noise_rates.size
    readout_base = random_base + program.num_random
    offset = 0
    for size, gen in segments:
        for rate, ops in noise:
            for cells in _fired_cells(gen, ops.size * size, rate):
                kinds = gen.integers(0, 3, size=cells.size)
                events = 3 * ops[cells // size] + kinds
                _xor_events(flat, program, events, (offset + cells % size) * width)
        for base, count, rate in (
            (random_base, program.num_random, 0.5),
            (readout_base, program.num_readout, readout),
        ):
            for cells in _fired_cells(gen, count * size, rate):
                _xor_events(flat, program, base + cells // size, (offset + cells % size) * width)
        offset += size
    if program.outcome_constant.any():
        bits ^= program.outcome_constant
    return bits
