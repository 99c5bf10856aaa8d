"""Batched state-vector evolution: many trajectories in one tensor.

:class:`BatchedStatevector` carries ``batch_size`` independent n-qubit pure
states in a single C-contiguous tensor of shape ``(2, ..., 2, batch)`` —
qubit ``i`` on axis ``i`` (the same axis convention as the single-shot
:class:`~repro.simulators.gate.statevector.Statevector`) with the shot index
on the **trailing** axis.  Every operation (gate application, projective
measurement, reset, stochastic Pauli/unitary noise) advances *all*
trajectories simultaneously with vectorized NumPy, so the per-shot Python
interpreter cost of a trajectory loop is paid once per instruction instead
of once per instruction per shot.

Why batch-last?  Any axis prefix of the tensor reshapes for free into
``(A, 2, B)`` with the shot dimension folded into the *contiguous* tail
``B >= batch``.  Dense single-qubit gates therefore become a single
broadcast GEMM into a pre-allocated scratch buffer (double buffering), and
the structure-aware slice kernels of :mod:`~repro.simulators.gate.kernels`
apply unchanged (qubit ``i`` at axis ``i``, trailing axes broadcast through)
with long contiguous inner runs instead of stride-2 pathologies.

Depolarizing noise has one path: per step, the struck columns are gathered
into a compact buffer once, each sampled error operator is applied to its
shots with the same slice kernels, and the buffer is scattered back
(:meth:`BatchedStatevector.apply_noise_events`).  The cost scales with the
number of struck shots, which is small at the NISQ rates the engine serves.

Precision: the tensor dtype is a constructor knob.  ``complex64`` halves the
memory traffic of this bandwidth-bound engine and is ample for sampling
workloads (the default trajectory engine uses it); ``complex128`` (the class
default) matches the single-shot
:class:`~repro.simulators.gate.statevector.Statevector` to float64 rounding.

The RNG consumption pattern differs from a per-shot loop (vector draws
instead of scalar draws; the tests keep one as the reference), so for a
given seed the two produce *distribution-equivalent*, not bit-identical,
samples.

Threading: an instance owns its tensor and scratch buffer and is **confined
to one thread at a time** — the simulator's ``trajectory_workers`` pool
parallelises across *instances* (one per shot chunk, each with its own
spawned RNG stream), never within one.

Segmented draws
---------------
Every stochastic method (:meth:`BatchedStatevector.measure`,
:meth:`BatchedStatevector.reset`,
:meth:`BatchedStatevector.apply_noise_events`,
:meth:`BatchedStatevector.sample_all`) takes one *draws* argument: a
sequence of ``(size, generator)`` pairs partitioning the batch axis into
contiguous runs that each draw from their **own** generator, in segment
order, with exactly the per-call vector sizes a standalone chunk of that
width would draw.  A bare generator is the single whole-batch segment
(:func:`~repro.simulators.gate.noise.as_segments`), so there is one draw
path.  This is what lets the simulator run every job as part of a merged
plan: N jobs concatenate their standalone shot chunks on the batch axis (one
shared tensor evolution), and because every per-segment generator sees the
same call sequence it would see standalone, each job's seeded outcomes are
bit-identical to running it alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...core.errors import SimulationError
from .gates import cached_gate_matrix, cached_gate_plan
from .kernels import MatrixPlan, apply_diagonal_columns, apply_plan_inplace, build_plan
from .noise import as_segments
from .statevector import MAX_SIMULATED_QUBITS, Statevector

__all__ = ["BatchedStatevector"]


class BatchedStatevector:
    """``batch_size`` trajectories of an n-qubit state, evolved in lock-step."""

    def __init__(self, num_qubits: int, batch_size: int, dtype: np.dtype = np.complex128):
        if num_qubits < 1:
            raise SimulationError("batched statevector needs at least one qubit")
        if num_qubits > MAX_SIMULATED_QUBITS:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the simulator limit of {MAX_SIMULATED_QUBITS}"
            )
        if batch_size < 1:
            raise SimulationError("batch_size must be positive")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise SimulationError(f"unsupported batched dtype {dtype}")
        self.num_qubits = int(num_qubits)
        self.batch_size = int(batch_size)
        self.dim = 1 << num_qubits
        self.dtype = dtype
        self._tensor = np.zeros((2,) * num_qubits + (batch_size,), dtype=dtype)
        self._tensor.reshape(self.dim, batch_size)[0, :] = 1.0
        self._scratch = np.empty_like(self._tensor)

    # -- accessors ---------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """Per-trajectory flat amplitudes, shape ``(batch, 2**n)`` (a copy)."""
        return np.ascontiguousarray(self._tensor.reshape(self.dim, self.batch_size).T)

    def extract(self, shot: int) -> Statevector:
        """A copy of one trajectory as a standalone :class:`Statevector`."""
        amplitudes = np.array(
            self._tensor.reshape(self.dim, self.batch_size)[:, shot], dtype=np.complex128
        )
        return Statevector(self.num_qubits, data=amplitudes)

    def norms(self) -> np.ndarray:
        """Per-trajectory 2-norms (should all be ~1)."""
        flat = self._tensor.reshape(self.dim, self.batch_size)
        return np.sqrt((np.abs(flat) ** 2).sum(axis=0, dtype=np.float64))

    # -- gate application -------------------------------------------------------
    def apply_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "BatchedStatevector":
        """Apply a named library gate to every trajectory."""
        return self.apply_matrix(
            cached_gate_matrix(name, params), qubits, plan=cached_gate_plan(name, params)
        )

    def apply_matrix(
        self,
        matrix: np.ndarray,
        qubits: Sequence[int],
        plan: Optional[MatrixPlan] = None,
    ) -> "BatchedStatevector":
        """Apply a ``2^m x 2^m`` unitary to the given qubits (first = MSB)."""
        qubits = [int(q) for q in qubits]
        m = len(qubits)
        if matrix.shape != (1 << m, 1 << m):
            raise SimulationError(
                f"matrix shape {matrix.shape} does not match {m} target qubits"
            )
        if len(set(qubits)) != m:
            raise SimulationError(f"duplicate qubits in {tuple(qubits)}")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise SimulationError(f"qubit {q} out of range")
        if plan is None:
            plan = build_plan(matrix)
        if plan.is_dense_1q:
            self._apply_dense_1q(matrix, qubits[0])
        elif (
            plan.dim == 4
            and not plan.is_diagonal
            and len(plan.rows) >= 3
            and abs(qubits[0] - qubits[1]) == 1
        ):
            self._apply_dense_2q_adjacent(matrix, qubits[0], qubits[1])
        else:
            apply_plan_inplace(self._tensor, plan, qubits)
        return self

    def _apply_dense_1q(self, matrix: np.ndarray, qubit: int) -> None:
        """Dense 2x2 via one broadcast GEMM into the scratch buffer."""
        outer = 1 << qubit
        inner = (1 << (self.num_qubits - qubit - 1)) * self.batch_size
        view = self._tensor.reshape(outer, 2, inner)
        out = self._scratch.reshape(outer, 2, inner)
        np.matmul(matrix.astype(self.dtype, copy=False), view, out=out)
        self._tensor, self._scratch = self._scratch, self._tensor

    def _apply_dense_2q_adjacent(self, matrix: np.ndarray, qubit_a: int, qubit_b: int) -> None:
        """Dense 4x4 on axis-adjacent qubits via one broadcast GEMM.

        The two qubit axes are contiguous, so they reshape (for free) into a
        single length-4 axis.  When the gate's first qubit is the *later*
        axis, the matrix is conjugated by SWAP to match the axis bit order.
        """
        if qubit_a > qubit_b:
            swap = cached_gate_matrix("swap")
            matrix = swap @ matrix @ swap
        lo = min(qubit_a, qubit_b)
        outer = 1 << lo
        inner = (1 << (self.num_qubits - lo - 2)) * self.batch_size
        view = self._tensor.reshape(outer, 4, inner)
        out = self._scratch.reshape(outer, 4, inner)
        np.matmul(matrix.astype(self.dtype, copy=False), view, out=out)
        self._tensor, self._scratch = self._scratch, self._tensor

    # -- parameter-sweep (per-column) operations --------------------------------
    def fill_uniform(self) -> "BatchedStatevector":
        """Set every trajectory to the uniform superposition ``|+>^n``.

        One assignment instead of ``n`` Hadamard traversals — the state-
        preparation step of a batched variational sweep, where every column
        starts from the same ``PREP_UNIFORM`` state.
        """
        self._tensor[...] = self.dim ** -0.5
        return self

    def apply_diagonal_columns(
        self, diag: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedStatevector":
        """Apply a **per-column** diagonal gate to the given qubits.

        *diag* has shape ``(2**m, batch)``: column ``c`` is the diagonal of
        the gate applied to trajectory ``c`` (bit ``p`` of the row index
        addresses ``qubits[p]``, first = MSB).  This is how a parameter-grid
        sweep evolves a *different* ``rz``/``rzz`` angle on every column in
        one broadcast multiply; for column-independent diagonals use
        :meth:`apply_matrix` with a diagonal plan instead.
        """
        qubits = [int(q) for q in qubits]
        m = len(qubits)
        diag = np.asarray(diag, dtype=self.dtype)
        if diag.shape != (1 << m, self.batch_size):
            raise SimulationError(
                f"column diagonal shape {diag.shape} does not match "
                f"({1 << m}, {self.batch_size})"
            )
        if len(set(qubits)) != m:
            raise SimulationError(f"duplicate qubits in {tuple(qubits)}")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise SimulationError(f"qubit {q} out of range")
        apply_diagonal_columns(self._tensor, diag, qubits)
        return self

    def apply_1q_columns(self, matrices: np.ndarray, qubit: int) -> "BatchedStatevector":
        """Apply a **per-column** dense 2x2 gate to *qubit*.

        *matrices* has shape ``(2, 2, batch)``: slice ``[:, :, c]`` is the
        gate applied to trajectory ``c``.  Used by parameter sweeps for
        non-diagonal rotations (an ``rx`` mixer with a different angle per
        column).  Implemented as broadcast elementwise multiplies/adds —
        never a GEMM — so results are bit-identical for every chunking of
        the batch axis (BLAS kernels may round differently per shape;
        elementwise IEEE arithmetic cannot).
        """
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        matrices = np.asarray(matrices, dtype=self.dtype)
        if matrices.shape != (2, 2, self.batch_size):
            raise SimulationError(
                f"column matrices shape {matrices.shape} does not match "
                f"(2, 2, {self.batch_size})"
            )
        view = self._split_view(qubit)
        v0, v1 = view[:, 0], view[:, 1]
        new0 = matrices[0, 0] * v0 + matrices[0, 1] * v1
        new1 = matrices[1, 0] * v0 + matrices[1, 1] * v1
        view[:, 0] = new0
        view[:, 1] = new1
        return self

    @staticmethod
    def _marginal_columns(probs: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        """Sum the given axes out of *probs* one axis at a time.

        A fused multi-axis reduction lets NumPy pick an addition pairing
        that varies with the trailing batch extent (a 1-ulp wobble between
        chunk sizes); reducing axis by axis keeps every addition a
        sequential slice-add whose order is independent of the batch width,
        so per-column marginals are bit-identical under any chunking.
        """
        for axis in sorted(axes, reverse=True):
            probs = probs.sum(axis=axis, dtype=np.float64)
        return probs

    def probabilities_columns(self) -> np.ndarray:
        """Elementwise ``|amplitude|^2``, shape ``(2, ..., 2, batch)`` (a copy).

        Callers evaluating many observables on one state (e.g. every edge of
        an Ising energy) should compute this once and pass it to the
        ``expectation_*_columns`` methods, instead of paying one full-tensor
        traversal per term.
        """
        return np.abs(self._tensor) ** 2

    def expectation_z_columns(
        self, qubit: int, probs: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-trajectory ``<Z>`` on *qubit* as a float64 ``(batch,)`` array.

        Pass a precomputed :meth:`probabilities_columns` tensor as *probs*
        to share one traversal across many observable terms.
        """
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        if probs is None:
            probs = self.probabilities_columns()
        axes = tuple(a for a in range(self.num_qubits) if a != qubit)
        marginal = self._marginal_columns(probs, axes)
        return marginal[0] - marginal[1]

    def expectation_zz_columns(
        self, qubit_a: int, qubit_b: int, probs: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-trajectory ``<Z_a Z_b>`` as a float64 ``(batch,)`` array.

        Pass a precomputed :meth:`probabilities_columns` tensor as *probs*
        to share one traversal across many observable terms.
        """
        for q in (qubit_a, qubit_b):
            if not 0 <= q < self.num_qubits:
                raise SimulationError(f"qubit {q} out of range")
        if qubit_a == qubit_b:
            return np.ones(self.batch_size, dtype=np.float64)
        if probs is None:
            probs = self.probabilities_columns()
        axes = tuple(
            a for a in range(self.num_qubits) if a not in (qubit_a, qubit_b)
        )
        marginal = self._marginal_columns(probs, axes)
        # Axes survive in ascending order; the ZZ sign pattern is symmetric.
        return marginal[0, 0] + marginal[1, 1] - marginal[0, 1] - marginal[1, 0]

    # -- measurement / reset ----------------------------------------------------
    def _split_view(self, qubit: int) -> np.ndarray:
        """Contiguous reshape isolating *qubit*: ``(A, 2, B, batch)``."""
        outer = 1 << qubit
        inner = 1 << (self.num_qubits - qubit - 1)
        return self._tensor.reshape(outer, 2, inner, self.batch_size)

    def probability_one(self, qubit: int) -> np.ndarray:
        """Per-trajectory marginal probability of measuring *qubit* as 1."""
        view = self._split_view(qubit)
        p1 = (np.abs(view[:, 1]) ** 2).sum(axis=(0, 1), dtype=np.float64)
        return np.clip(p1, 0.0, 1.0)

    # -- segmented draw helpers -----------------------------------------------------
    def _segment_uniform(self, draws) -> np.ndarray:
        """One uniform vector over the batch, drawn segment by segment.

        Each ``(size, generator)`` segment makes the ``generator.random(size)``
        call a standalone chunk of that width would make, and the draws
        concatenate in segment order.
        """
        return np.concatenate(
            [gen.random(size) for size, gen in as_segments(draws, self.batch_size)]
        )

    def _draw_noise_event(self, event, draws):
        """One event's ``(struck, choice)`` draw with per-segment consumption.

        Preserves the standalone consumption pattern *per generator*: one
        uniform strike vector always, one integer operator-choice vector
        only when that generator's sub-batch was struck at all.  Unstruck
        segments contribute zero placeholders to *choice* (never read —
        application masks on *struck*).  Returns ``(struck, None)`` when no
        trajectory was struck.
        """
        segments = as_segments(draws, self.batch_size)
        strikes = [gen.random(size) < event.rate for size, gen in segments]
        struck = np.concatenate(strikes)
        if not struck.any():
            return struck, None
        choice = np.concatenate(
            [
                gen.integers(0, len(event.operators), size=size)
                if sub.any()
                else np.zeros(size, dtype=np.int64)
                for (size, gen), sub in zip(segments, strikes)
            ]
        )
        return struck, choice

    def measure(self, qubit: int, draws) -> np.ndarray:
        """Projectively measure *qubit* on every trajectory (collapse in place).

        Returns a ``(batch,)`` uint8 array of outcomes.  Collapse and
        renormalisation are fused into one broadcast multiply per shot by
        ``keep / sqrt(P(outcome))``.  *draws* is a generator or a segment
        list (see the module docstring); collapse itself is per-column
        arithmetic either way.
        """
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        p1 = self.probability_one(qubit)
        outcomes = (self._segment_uniform(draws) < p1).astype(np.uint8)
        chosen = np.where(outcomes, p1, 1.0 - p1)
        if np.any(chosen <= 0.0):
            raise SimulationError("measurement produced a zero-norm state")
        scale = np.zeros((2, self.batch_size), dtype=np.float64)
        scale[outcomes, np.arange(self.batch_size)] = 1.0 / np.sqrt(chosen)
        self._split_view(qubit)[...] *= scale.reshape(1, 2, 1, self.batch_size)
        return outcomes

    def reset(self, qubit: int, draws) -> np.ndarray:
        """Measure *qubit*, then flip the trajectories that read 1 back to 0.

        The conditional flip streams as two broadcast multiplies: after the
        measurement collapse, outcome-1 shots have an empty ``|0>`` branch,
        so ``v0 += o * v1; v1 *= 1 - o`` moves their amplitude down without
        gathering columns.  *draws* forwards to :meth:`measure`.
        """
        outcomes = self.measure(qubit, draws)
        if outcomes.any():
            view = self._split_view(qubit)
            # Match the tensor's precision (float32 for complex64, float64
            # for complex128) so no lower-precision operand enters the
            # complex128 path.  The weights are exact 0/1 either way.
            real_dtype = np.float32 if self.dtype == np.dtype(np.complex64) else np.float64
            weights = outcomes.astype(real_dtype).reshape(1, 1, self.batch_size)
            view[:, 0] += weights * view[:, 1]
            view[:, 1] *= 1.0 - weights
        return outcomes

    # -- per-shot noise ----------------------------------------------------------
    def apply_noise_events(self, events, draws) -> None:
        """Sample and apply a step's depolarizing-error events in order.

        Each event independently strikes every trajectory with its rate and
        draws one of its equiprobable operators (a ``(matrix, plan)`` pair
        acting on ``event.qubits``).  One shot's amplitudes form a *strided
        column* of the batch-last tensor, so all struck columns of the step
        are gathered into a small contiguous buffer *once*, every event
        transforms its own (tiny, compact) sub-selection in program order
        with the ordinary slice kernels, and the union is scattered back —
        two strided passes per step instead of two per event.  *draws* is a
        generator or a segment list: every segment draws one strike vector
        per event and a choice vector only when it was struck (the
        standalone consumption pattern); application on the concatenated
        batch is per-column either way.
        """
        sampled = []
        union: Optional[np.ndarray] = None
        for event in events:
            struck, choice = self._draw_noise_event(event, draws)
            if choice is None:
                continue
            sampled.append((event, struck, choice))
            union = struck.copy() if union is None else (union | struck)
        if union is None:
            return
        selected = np.flatnonzero(union)
        flat = self._tensor.reshape(self.dim, self.batch_size)
        compact = flat[:, selected]  # (dim, nsel) gather
        for event, struck, choice in sampled:
            sub = struck[selected]
            branch = choice[selected]
            for k in range(len(event.operators)):
                pick = sub & (branch == k)
                if not pick.any():
                    continue
                picked = compact[:, pick]
                tensor = picked.reshape((2,) * self.num_qubits + (-1,))
                apply_plan_inplace(tensor, event.operators[k][1], event.qubits)
                compact[:, pick] = picked
        flat[:, selected] = compact  # scatter back

    # -- terminal sampling ------------------------------------------------------
    def sample_all(self, draws) -> np.ndarray:
        """Draw one full computational-basis outcome per trajectory.

        Returns a ``(batch,)`` array of flat basis indices (qubit 0 is the
        most significant bit), sampled by per-shot cumulative-probability
        inversion.  The state is *not* collapsed.  *draws* is a generator
        or a segment list; the inversion is per-column arithmetic, so each
        segment's outcomes match a standalone chunk bit for bit.
        """
        probs = np.abs(self._tensor.reshape(self.dim, self.batch_size)) ** 2
        shots = np.arange(self.batch_size)
        if self.dim <= 64:
            cumulative = np.cumsum(probs, axis=0, dtype=np.float64)
            uniform = self._segment_uniform(draws) * cumulative[-1]
            return np.minimum((cumulative < uniform[None, :]).sum(axis=0), self.dim - 1)
        # Hierarchical inversion: a full cumulative sum over the strided
        # basis axis costs one cache miss per element.  Instead reduce to
        # per-block sums, pick a block per shot, then resolve the offset
        # inside the (tiny) gathered block.
        blocks = 64
        width = self.dim // blocks
        block_sums = probs.reshape(blocks, width, self.batch_size).sum(axis=1, dtype=np.float64)
        block_cum = np.cumsum(block_sums, axis=0)
        uniform = self._segment_uniform(draws) * block_cum[-1]
        block = np.minimum((block_cum < uniform[None, :]).sum(axis=0), blocks - 1)
        previous = np.where(block > 0, block_cum[np.maximum(block - 1, 0), shots], 0.0)
        residual = uniform - previous
        inside = probs.reshape(blocks, width, self.batch_size)[block, :, shots]  # (batch, width)
        inside_cum = np.cumsum(inside, axis=1, dtype=np.float64)
        offset = np.minimum((inside_cum < residual[:, None]).sum(axis=1), width - 1)
        return block * width + offset
