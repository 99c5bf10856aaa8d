"""NumPy state-vector simulation engine (the Aer stand-in).

Two entry points:

* :class:`Statevector` — an n-qubit state with gate application, probability
  extraction and expectation values; useful on its own for exact reference
  results in tests and benchmarks.
* :class:`StatevectorSimulator` — shot-based execution of a
  :class:`~repro.simulators.gate.circuit.Circuit`, returning a
  :class:`~repro.results.counts.Counts` histogram.

Execution paths
---------------
Every run is a group of ``(shots, seed)`` jobs on one circuit: a solo
:meth:`StatevectorSimulator.run` is the group of one, and
:meth:`StatevectorSimulator.run_merged` runs coalesced jobs together.  The
simulator picks one path per group:

* **exact** — circuits whose measurements are all terminal (and noiseless
  runs without reset) evolve the state once and sample each job's shots from
  the exact distribution with the job's own generator;
* **chunked trajectories** (default for everything else) — noisy circuits
  and circuits with mid-circuit measurement or reset advance all shots of a
  chunk simultaneously, on either the batched amplitude engine
  (:class:`~repro.simulators.gate.batched.BatchedStatevector`, trailing shot
  axis, layout ``(2, ..., 2, batch)``) or, for Clifford circuits, the
  compile-once stabilizer tableau (:mod:`~repro.simulators.gate.stabilizer`).
  Both run through **one plan and one executor**.  The plan splits each
  job's shots into the standalone chunks the ``max_batch_memory`` byte
  budget admits, gives chunk ``i`` the ``i``-th
  ``SeedSequence(seed).spawn`` stream, and first-fit packs the chunks into
  *super-chunks* of ``(job, chunk_id, size, stream)`` segments (for a single
  job the super-chunks are exactly its standalone chunks).  The executor
  runs each super-chunk serially, on a ``trajectory_workers`` thread pool or,
  with ``trajectory_executor="process"``, on the persistent worker-process
  pool of :mod:`~repro.simulators.gate.procpool`, through the engine's one
  segment kernel (:func:`execute_program_segments` or
  :func:`~repro.simulators.gate.stabilizer.execute_stabilizer_program_segments`),
  which draws every random number per segment in standalone order and size.
  Seeded counts are therefore bit-identical for every worker count, both
  executors and any grouping.  An engine contributes only its compiler, its
  bytes per shot and its kernel; planning, execution, reassembly and result
  metadata are shared.

``trajectory_engine="density"`` routes the whole run through the exact
:class:`~repro.simulators.gate.density.DensityMatrixSimulator` oracle, which
computes the outcome distribution in closed form (noise applied as CPTP maps)
instead of sampling trajectories at all.  ``trajectory_engine="stabilizer"``
lifts the width cap for Clifford circuits (hundreds of qubits for QEC
cycles) and raises :class:`~repro.core.errors.UnsupportedGateError` on
non-Clifford gates; ``trajectory_engine="auto"`` picks the stabilizer engine
for Clifford circuits and the batched engine otherwise.  The density engine
has no batch axis, so it runs a group job by job.

State layout
------------
A single state is stored as a tensor of shape ``(2,) * n`` where axis ``i``
is qubit ``i``.  In flattened (C-order) indices qubit 0 therefore varies
slowest; the helper :func:`index_to_bits` converts a flat index to the
bitstring whose character ``i`` is the value of qubit ``i`` — the same
convention used by the middle layer's counts and result schemas.  The batched
engine uses the identical qubit-axis layout with a trailing shot axis.

Single- and two-qubit gates are applied through fused axis-sliced kernels
(:mod:`~repro.simulators.gate.kernels`) with an LRU gate-matrix cache; only
three-qubit-and-wider unitaries take the generic
``moveaxis -> reshape -> matmul`` route.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...core.errors import SimulationError
from ...results.counts import Counts
from .circuit import Circuit
from .gates import cached_gate_matrix, cached_gate_plan
from .kernels import apply_matrix_inplace
from .noise import NoiseModel

__all__ = [
    "index_to_bits",
    "bits_to_index",
    "Statevector",
    "SimulationResult",
    "StatevectorSimulator",
    "execute_program_segments",
    "DEFAULT_MAX_BATCH_MEMORY",
]

MAX_SIMULATED_QUBITS = 24

#: Default cap on the batched engine's working set (state + scratch buffer),
#: in bytes.  The engine is memory-bandwidth bound, so the sweet spot is the
#: largest chunk that stays cache-friendly, not the largest that fits RAM —
#: 16 MiB admits 256 simultaneous complex64 trajectories at 12 qubits and
#: measured fastest across chunk sizes on a single-core x86 host.
DEFAULT_MAX_BATCH_MEMORY = 16 * 1024 * 1024


def index_to_bits(index: int, num_qubits: int) -> str:
    """Flat tensor index -> bitstring with character ``i`` = qubit ``i``."""
    return format(index, f"0{num_qubits}b")


def bits_to_index(bits: str) -> int:
    """Inverse of :func:`index_to_bits`."""
    return int(bits, 2)


class Statevector:
    """An n-qubit pure state with in-place gate application."""

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        if num_qubits < 1:
            raise SimulationError("statevector needs at least one qubit")
        if num_qubits > MAX_SIMULATED_QUBITS:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the simulator limit of {MAX_SIMULATED_QUBITS}"
            )
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if data is None:
            tensor = np.zeros(dim, dtype=np.complex128)
            tensor[0] = 1.0
        else:
            tensor = np.asarray(data, dtype=np.complex128).reshape(dim).copy()
            norm = np.linalg.norm(tensor)
            if norm == 0:
                raise SimulationError("cannot build a statevector from the zero vector")
            tensor = tensor / norm
        self._tensor = tensor.reshape((2,) * num_qubits)

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_bitstring(cls, bits: str) -> "Statevector":
        """Computational basis state; character ``i`` is qubit ``i``."""
        state = cls(len(bits))
        state._tensor[...] = 0
        state._tensor[tuple(int(c) for c in bits)] = 1.0
        return state

    # -- accessors ---------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """Flat complex amplitudes (C-order over qubit axes 0..n-1)."""
        return self._tensor.reshape(-1)

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the basis state given as a qubit-order bitstring."""
        if len(bits) != self.num_qubits:
            raise SimulationError("bitstring width does not match the statevector")
        return complex(self._tensor[tuple(int(c) for c in bits)])

    def probabilities(self) -> np.ndarray:
        """Flat probability vector (C-order over qubit axes)."""
        return np.abs(self.data) ** 2

    def probability_dict(self, threshold: float = 1e-12) -> Dict[str, float]:
        """Bitstring -> probability for every outcome above *threshold*."""
        probs = self.probabilities()
        return {
            index_to_bits(i, self.num_qubits): float(p)
            for i, p in enumerate(probs)
            if p > threshold
        }

    def fidelity(self, other: "Statevector") -> float:
        """|<self|other>|^2."""
        if other.num_qubits != self.num_qubits:
            raise SimulationError("fidelity requires states of equal width")
        return float(abs(np.vdot(self.data, other.data)) ** 2)

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli Z on *qubit*."""
        probs = np.abs(self._tensor) ** 2
        axes = tuple(a for a in range(self.num_qubits) if a != qubit)
        marginal = probs.sum(axis=axes) if axes else probs
        return float(marginal[0] - marginal[1])

    def expectation_zz(self, qubit_a: int, qubit_b: int) -> float:
        """Expectation value of Z_a Z_b."""
        if qubit_a == qubit_b:
            return 1.0
        probs = np.abs(self._tensor) ** 2
        axes = tuple(a for a in range(self.num_qubits) if a not in (qubit_a, qubit_b))
        marginal = probs.sum(axis=axes) if axes else probs
        if qubit_a > qubit_b:
            marginal = marginal.T
        return float(marginal[0, 0] + marginal[1, 1] - marginal[0, 1] - marginal[1, 0])

    def expectation(self, observable) -> float:
        """Exact ``<psi| O |psi>`` of a Hermitian observable on this pure state.

        *observable* is either a full ``2^n x 2^n`` matrix or a Pauli
        specification (a string like ``"ZZI"`` with character ``i`` acting on
        qubit ``i``, a mapping of Pauli strings to coefficients, or
        ``(string, coefficient)`` pairs) — the same contract as
        :meth:`DensityMatrix.expectation
        <repro.simulators.gate.density.DensityMatrix.expectation>`, so the
        density oracle and the pure-state engines are directly comparable.
        """
        from .density import pauli_terms  # local: density imports this module
        from .gates import cached_gate_plan
        from .kernels import apply_plan_inplace

        if isinstance(observable, np.ndarray):
            dim = 1 << self.num_qubits
            if observable.shape != (dim, dim):
                raise SimulationError(
                    f"observable shape {observable.shape} does not match dimension {dim}"
                )
            psi = self.data
            return float(np.real(np.vdot(psi, observable @ psi)))
        total = 0.0
        for coeff, string in pauli_terms(observable, self.num_qubits):
            work = self._tensor.copy()
            for qubit, char in enumerate(string):
                if char != "I":
                    apply_plan_inplace(work, cached_gate_plan(char.lower()), [qubit])
            total += coeff * float(np.real(np.vdot(self.data, work.reshape(-1))))
        return total

    # -- evolution ------------------------------------------------------------------
    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int], plan=None
    ) -> "Statevector":
        """Apply a ``2^m x 2^m`` unitary to the given qubits (first = MSB).

        One- and two-qubit matrices go through the fused axis-sliced kernels
        (pass a cached *plan* to skip the structure analysis); wider
        unitaries fall back to the generic transpose/matmul route.
        """
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
        if m <= 2:
            apply_matrix_inplace(self._tensor, matrix, qubits, plan=plan)
            return self
        tensor = np.moveaxis(self._tensor, qubits, range(m))
        shape = tensor.shape
        tensor = tensor.reshape(1 << m, -1)
        tensor = matrix @ tensor
        tensor = tensor.reshape(shape)
        self._tensor = np.moveaxis(tensor, range(m), qubits)
        return self

    def apply_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "Statevector":
        """Apply a named gate from the library (matrices served from the LRU cache)."""
        matrix = cached_gate_matrix(name, params)
        if len(qubits) <= 2:
            return self.apply_matrix(matrix, qubits, plan=cached_gate_plan(name, params))
        return self.apply_matrix(matrix, qubits)

    def evolve(self, circuit: Circuit, *, fuse: bool = True) -> "Statevector":
        """Apply every unitary gate of *circuit* to this state, in place.

        Parameters
        ----------
        circuit:
            A purely unitary :class:`~repro.simulators.gate.circuit.Circuit`
            of the same width as this state.  Measure and reset instructions
            are rejected (use :meth:`StatevectorSimulator.run` for those);
            barriers are ignored.
        fuse:
            When true (the default) the circuit is first compiled through the
            :func:`~repro.simulators.gate.fusion.compile_trajectory_program`
            fusion compiler, so consecutive single-qubit gates cost one fused
            traversal and adjacent pending 1q runs are absorbed into
            following two-qubit gates — typically 2-3x fewer state
            traversals on transpiled circuits.  ``fuse=False`` applies the
            instructions one by one and is kept as the executable
            specification the fused path is tested against.

        Returns
        -------
        Statevector
            ``self``, for chaining.  Both paths produce the same state up to
            float rounding (fused matrix products are accumulated in
            ``complex128``).
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width does not match the statevector")
        for inst in circuit.instructions:
            if inst.name != "barrier" and not inst.is_gate:
                raise SimulationError(
                    "Statevector.evolve only supports unitary circuits; "
                    "use StatevectorSimulator.run for measurements"
                )
        if fuse:
            from .fusion import compile_trajectory_program_cached  # local: import cycle

            program = compile_trajectory_program_cached(circuit)
            for step in program.steps:
                self.apply_matrix(step.matrix, step.qubits, plan=step.plan)
            return self
        for inst in circuit.instructions:
            if inst.name == "barrier":
                continue
            self.apply_gate(inst.name, inst.qubits, inst.params)
        return self

    # -- measurement -----------------------------------------------------------------
    def measure_qubit(self, qubit: int, rng: np.random.Generator) -> int:
        """Projectively measure one qubit, collapsing the state in place."""
        probs = np.abs(self._tensor) ** 2
        axes = tuple(a for a in range(self.num_qubits) if a != qubit)
        marginal = probs.sum(axis=axes) if axes else probs
        p1 = float(marginal[1])
        outcome = 1 if rng.random() < p1 else 0
        projector_index = [slice(None)] * self.num_qubits
        projector_index[qubit] = 1 - outcome
        self._tensor[tuple(projector_index)] = 0.0
        norm = np.linalg.norm(self._tensor)
        if norm == 0:
            raise SimulationError("measurement produced a zero-norm state")
        self._tensor /= norm
        return outcome

    def reset_qubit(self, qubit: int, rng: np.random.Generator) -> None:
        """Measure then flip-to-zero a single qubit."""
        outcome = self.measure_qubit(qubit, rng)
        if outcome == 1:
            self.apply_gate("x", [qubit])

    def sample_counts(
        self, shots: int, rng: np.random.Generator, qubits: Optional[Sequence[int]] = None
    ) -> Counts:
        """Sample *shots* outcomes of the given qubits (default all)."""
        n = self.num_qubits
        qubits = range(n) if qubits is None else qubits
        if any(not 0 <= q < n for q in qubits):
            raise SimulationError(f"sampled qubits {list(qubits)} out of range for {n} qubits")
        return self._sample_bits(shots, rng, [n - 1 - q for q in qubits])

    def _sample_bits(self, shots: int, rng: np.random.Generator, shifts: Sequence[int]) -> Counts:
        """Sample *shots* basis indices; key column ``j`` is bit ``shifts[j]``.

        One ``np.unique`` over the sampled indices, one ``(distinct,
        columns)`` bit matrix built by shifts (a shift of ``num_qubits``
        reads a constant 0), then :meth:`Counts.from_array` with the
        multiplicities.
        """
        probs = self.probabilities()
        outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
        indices, multiplicities = np.unique(outcomes, return_counts=True)
        bits = (indices[:, None] >> np.asarray(shifts, dtype=np.int64)) & 1
        return Counts.from_array(bits, multiplicities)


@dataclass
class SimulationResult:
    """Output of one :class:`StatevectorSimulator` run."""

    counts: Counts
    statevector: Optional[Statevector] = None
    shots: int = 0
    seed: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def get_counts(self) -> Counts:
        """Qiskit-style accessor."""
        return self.counts


class StatevectorSimulator:
    """Shot-based execution of circuits on the exact state vector.

    Parameters
    ----------
    noise_model:
        Optional :class:`NoiseModel`; any nonzero rate forces the trajectory
        path.
    max_batch_memory:
        Byte budget for the batched trajectory engine's working set (state
        tensor plus scratch buffer).  Shots are chunked so that
        ``batch x 2^n`` states fit; ``None`` disables chunking and runs every
        shot in one batch.
    trajectory_engine:
        ``"batched"`` (default) compiles the circuit once (1q-run fusion,
        noise pushing, terminal-measurement batching — see
        :mod:`~repro.simulators.gate.fusion`) and advances all shots of a
        chunk simultaneously.
        ``"density"`` routes **every** run through the exact
        :class:`~repro.simulators.gate.density.DensityMatrixSimulator`
        oracle: outcome probabilities are computed in closed form (noise as
        CPTP maps, readout as an exact bit-flip channel) and counts carry no
        sampling error beyond the chosen ``density_sampling`` conversion.
        Width is capped at
        :data:`~repro.simulators.gate.density.MAX_DENSITY_QUBITS` qubits.
        ``"stabilizer"`` samples trajectories on the compile-once
        Aaronson–Gottesman tableau of
        :mod:`~repro.simulators.gate.stabilizer` — Clifford circuits only
        (non-Clifford gates raise
        :class:`~repro.core.errors.UnsupportedGateError`), with no width
        cap, the same per-chunk ``SeedSequence`` streams as the batched
        engine (seeded counts bit-identical at every worker count), and
        gate noise lowered to per-gate Pauli channels at compile time.
        ``"auto"`` resolves per run: the stabilizer engine when every gate
        of the circuit is Clifford, the batched engine otherwise.
    density_sampling:
        How the density engine converts exact probabilities to integer
        counts: ``"multinomial"`` (default) draws shots from the exact
        distribution with the run's seed; ``"deterministic"`` apportions
        ``p * shots`` by largest remainder with no RNG at all.  Ignored by
        the other engines.
    trajectory_dtype:
        ``"complex64"`` (default) or ``"complex128"`` for the batched
        engine's state tensor.  The engine is memory-bandwidth bound, and
        single precision halves the traffic; ~1e-7 amplitude rounding is
        far below the sampling noise of any realistic shot count.  The
        exact path always uses ``complex128``.
    trajectory_workers:
        Number of workers that execute shot chunks (``int >= 1``, or
        ``"auto"`` for the host CPU count; default ``1``).  The batched and
        stabilizer engines share one chunk executor; its workers are
        threads, or processes under ``trajectory_executor="process"``.
        The chunks produced by ``max_batch_memory`` are independent, NumPy's
        kernels release the GIL, and every chunk draws from its own
        :class:`numpy.random.SeedSequence`-spawned stream, so seeded counts
        are **bit-identical for every worker count** and chunk decomposition
        never depends on this knob.  The density engine and the exact path
        ignore this option.  With more than one worker, the host BLAS/OpenMP
        pools are capped at ``max(1, cores // workers)`` threads while the
        chunks run (:func:`~repro.simulators.gate.threads.limit_blas_threads`),
        so the workers do not oversubscribe the cores; the cap never
        changes sampled counts.
        Interacts with ``max_batch_memory``: there must be at least as many
        chunks as workers for full utilisation (shrink the byte budget or
        raise the shot count if ``num_batches`` in the result metadata is
        below ``trajectory_workers``), and because up to ``workers`` chunks
        are live at once, the peak working set is about
        ``trajectory_workers x max_batch_memory`` bytes.
    trajectory_executor:
        ``"thread"`` (default) or ``"process"``: how the batched and
        stabilizer engines' shot chunks are dispatched across
        ``trajectory_workers``.  ``"thread"`` keeps the in-process pool
        (zero startup cost, GIL-bound between kernels).  ``"process"``
        executes the chunk groups on the persistent forkserver worker pool
        of :mod:`~repro.simulators.gate.procpool`: the workers compile
        through their own warm caches (a parameter re-bind after a
        structure's first run), run the same segment kernel as the thread
        path, and chunk ``i`` always consumes
        the ``i``-th ``SeedSequence``-spawned stream — so seeded counts are
        **bit-identical** across both executors and every worker count.
        The density and exact paths ignore this option.
    fault_plan:
        Deterministic fault-injection schedule
        (:class:`~repro.simulators.gate.faults.FaultPlan`, a JSON-safe dict
        spec, or ``None``; default ``None``).  Faults fire immediately
        before a chunk task executes, keyed on ``(chunk_id, attempt)``:
        ``"raise"`` raises the transient
        :class:`~repro.core.errors.TransientExecutionError`, ``"hang"``
        stalls the task for a bounded interval, ``"kill"`` hard-exits the
        worker process under ``trajectory_executor="process"`` (a
        documented no-op on the thread executor).  Killed workers are
        recovered in-run: the pool is rebuilt and only the lost chunk
        groups re-dispatch with their original ``SeedSequence`` streams,
        so recovered seeded counts are **bit-identical** to an uncrashed
        run.  ``None`` (production) costs one attribute check per run.
    verify_compiled:
        ``bool`` (default ``False``).  When enabled, every run verifies its
        compiled artifacts through the static IR verifier
        (:mod:`~repro.simulators.gate.analysis`): the bound trajectory
        program (rules IR001-IR006), its structural template including the
        IR008 cache-key soundness probe, and the result's contractual
        metadata (IR007).  A violation raises
        :class:`~repro.simulators.gate.analysis.IRVerificationError` instead
        of returning a result.  The disabled path costs one attribute check
        per run and never touches the hot loops.
    """

    def __init__(
        self,
        *,
        noise_model: Optional[NoiseModel] = None,
        max_batch_memory: Optional[int] = DEFAULT_MAX_BATCH_MEMORY,
        trajectory_engine: str = "batched",
        trajectory_executor: str = "thread",
        trajectory_dtype: str = "complex64",
        trajectory_workers: Union[int, str] = 1,
        density_sampling: str = "multinomial",
        fault_plan=None,
        verify_compiled: bool = False,
    ):
        if trajectory_engine not in ("batched", "density", "stabilizer", "auto"):
            raise SimulationError(
                f"unknown trajectory engine {trajectory_engine!r}; expected "
                "'batched', 'density', 'stabilizer' or 'auto'"
            )
        if trajectory_executor not in ("thread", "process"):
            raise SimulationError(
                f"unknown trajectory executor {trajectory_executor!r}; "
                "expected 'thread' or 'process'"
            )
        if density_sampling not in ("multinomial", "deterministic"):
            raise SimulationError(
                f"unknown density sampling mode {density_sampling!r}; "
                "expected 'multinomial' or 'deterministic'"
            )
        if trajectory_dtype not in ("complex64", "complex128"):
            raise SimulationError(
                f"unknown trajectory dtype {trajectory_dtype!r}; "
                "expected 'complex64' or 'complex128'"
            )
        if max_batch_memory is not None and (
            not isinstance(max_batch_memory, int)
            or isinstance(max_batch_memory, bool)
            or max_batch_memory <= 0
        ):
            raise SimulationError(
                f"max_batch_memory must be a positive int (or None), got {max_batch_memory!r}"
            )
        if trajectory_workers == "auto":
            trajectory_workers = os.cpu_count() or 1
        if not isinstance(trajectory_workers, int) or isinstance(trajectory_workers, bool):
            raise SimulationError(
                f"trajectory_workers must be a positive int or 'auto', "
                f"got {trajectory_workers!r}"
            )
        if trajectory_workers < 1:
            raise SimulationError("trajectory_workers must be >= 1")
        if not isinstance(verify_compiled, bool):
            raise SimulationError(
                f"verify_compiled must be a bool, got {verify_compiled!r}"
            )
        from .faults import FaultPlan  # local: keeps the import graph flat

        fault_plan = FaultPlan.coerce(fault_plan)
        self.noise_model = noise_model
        self.max_batch_memory = max_batch_memory
        self.trajectory_engine = trajectory_engine
        self.trajectory_executor = trajectory_executor
        self.trajectory_dtype = trajectory_dtype
        self.trajectory_workers = trajectory_workers
        self.density_sampling = density_sampling
        self.fault_plan = fault_plan
        self.verify_compiled = verify_compiled

    def run(
        self,
        circuit: Circuit,
        *,
        shots: int = 1024,
        seed: Optional[int] = None,
        return_statevector: bool = False,
    ) -> SimulationResult:
        """Execute *circuit* and return counts over its classical bits.

        A solo run is the merged group of one: this is
        ``run_merged(circuit, [(shots, seed)])[0]`` plus the statevector the
        contract below describes.

        Measurement contract
        --------------------
        Circuits **with** measure instructions yield counts keyed over their
        classical bits (character ``c`` = clbit ``c``).  Circuits **without**
        any measure instruction and ``shots > 0`` are measured implicitly at
        the end: counts are keyed over *all qubits* in qubit order and
        ``metadata["implicit_measurement"]`` is ``True``.  (The middle layer
        never relies on this — lowered circuits always carry explicit
        measurements — but interactive callers get the documented behaviour
        instead of silently empty counts.)  ``shots == 0`` always returns
        empty counts.

        Statevector contract
        --------------------
        With ``return_statevector=True`` the result carries
        ``metadata["statevector_kind"]`` naming what you got:

        * exact path: ``"pre_measurement"`` — the full final superposition;
          terminal measurements are sampled, never collapsed.
        * trajectory path (either engine), explicit measurements:
          ``"final_trajectory"`` — the collapsed post-measurement state of
          the *last* shot.
        * trajectory path, measurement-free (implicit) circuits:
          ``"pre_measurement"`` — the last shot's final state; the implicit
          sampling never collapses (mid-circuit noise/resets are applied).
        * density engine: a mixed state has no statevector, so the result's
          ``statevector`` is always ``None`` and the kind is ``"none"``.
        * stabilizer engine: tableaus have no amplitude representation, so
          the result's ``statevector`` is always ``None`` and the kind is
          ``"none"`` (the engine runs far beyond the amplitude width cap).

        A zero-shot trajectory run has no last shot, so its ``statevector``
        is ``None``.
        """
        return self._run_group(circuit, [(shots, seed)], keep_state=return_statevector)[0]

    def run_merged(
        self,
        circuit: Circuit,
        specs: Sequence[Tuple[int, Optional[int]]],
    ) -> List[SimulationResult]:
        """Execute several jobs of one circuit as a single merged run.

        *specs* is a sequence of ``(shots, seed)`` pairs, one per job.  The
        jobs share one compiled program and one batched tensor evolution: the
        batch axis is partitioned into *segments* — one per standalone chunk
        per job — and every random draw is pulled from that chunk's own
        ``SeedSequence``-spawned generator, in standalone order and size.
        The contract is strict: each returned result's seeded counts are
        **bit-identical** to ``run(circuit, shots=..., seed=...)`` alone, and
        its metadata equals the solo run's plus, for groups of two or more,
        ``metadata["merged"] = {"group_size", "position", "merged_chunks"}``.
        The density engine has no batch axis to merge on, so it runs the jobs
        one by one.
        """
        return self._run_group(circuit, specs, keep_state=False)

    def _run_group(
        self, circuit: Circuit, specs: Sequence[Tuple[int, Optional[int]]], keep_state: bool
    ) -> List[SimulationResult]:
        """The one execution path behind :meth:`run` and :meth:`run_merged`."""
        specs = [(int(shots), seed) for shots, seed in specs]
        if any(shots < 0 for shots, _ in specs):
            raise SimulationError("shots must be non-negative")
        engine = self.trajectory_engine
        if engine == "auto":
            from .fusion import is_clifford_circuit  # local: import cycle

            engine = "stabilizer" if is_clifford_circuit(circuit) else "batched"
        if engine == "density":
            # The exact oracle handles every construct (noise, mid-circuit
            # measurement, reset) in closed form, so it owns the whole run.
            from .density import DensityMatrixSimulator  # local: import cycle

            oracle = DensityMatrixSimulator(
                noise_model=self.noise_model,
                sampling=self.density_sampling,
                verify_compiled=self.verify_compiled,
            )
            return [oracle.run(circuit, shots=s, seed=sd) for s, sd in specs]
        if engine == "stabilizer":
            # The tableau engine owns the whole run: it has no exact-path
            # analogue (no amplitudes) and no width cap to fall back under.
            results = self._run_chunked(_StabilizerEngine(self), circuit, specs, keep_state)
        elif not (
            _active_noise(self.noise_model) is not None
            or not circuit.measurements_are_terminal()
            or any(inst.name == "reset" for inst in circuit.instructions)
        ):
            results = self._run_exact(circuit, specs, keep_state)
        else:
            results = self._run_chunked(_AmplitudeEngine(self), circuit, specs, keep_state)
        if self.verify_compiled:
            from .analysis import verify_result  # local: import cycle

            for result in results:
                verify_result(result).raise_if_failed()
        return results

    # -- chunk plan and executor ----------------------------------------------------
    @staticmethod
    def _standalone_chunk_sizes(batch_size: int, shots: int) -> List[int]:
        """The chunk decomposition a standalone run of *shots* would use."""
        if shots == 0:
            return []
        sizes = [batch_size] * (shots // batch_size)
        if shots % batch_size:
            sizes.append(shots % batch_size)
        return sizes

    @staticmethod
    def _pack_merged_chunks(job_plans, cap: Optional[int]) -> List[List[tuple]]:
        """First-fit pack standalone chunks into super-chunks.

        *job_plans* maps job index -> list of ``(size, stream)`` standalone
        chunks.  Chunks are never split — each keeps its standalone size and
        stream, so per-segment draws are untouched; the packing only decides
        which chunks share one tensor.  *cap* is the super-chunk capacity in
        shots (``None`` = unbounded), the byte-budget-derived cap that sized
        the standalone chunks, so peak memory per super-chunk matches a
        standalone chunk's.  A size-1 chunk never shares a super-chunk: a
        dense GEMM at batch width 1 rounds differently from the same column
        in a wider batch, so it runs at width 1 exactly as it does alone.
        For a single job every chunk fills its own super-chunk, so the
        super-chunks (and the fault-plan chunk ids keyed on them) are the
        standalone chunks.  Deterministic and independent of worker count.
        Returns super-chunks as lists of ``(job, chunk_id, size, stream)``.
        """
        limit = float("inf") if cap is None else cap
        out: List[List[tuple]] = []
        remaining: List[float] = []
        for job, plan in enumerate(job_plans):
            for chunk_id, (size, stream) in enumerate(plan):
                entry = (job, chunk_id, size, stream)
                fit = next(
                    (i for i, room in enumerate(remaining) if size > 1 and room >= size),
                    None,
                )
                if fit is None:
                    out.append([entry])
                    remaining.append(limit - size if size > 1 else 0)
                else:
                    out[fit].append(entry)
                    remaining[fit] -= size
        return out

    def _run_chunked(
        self, engine, circuit: Circuit, specs: List[Tuple[int, Optional[int]]], keep_state: bool
    ) -> List[SimulationResult]:
        """Plan, execute and reassemble a group of jobs on a chunked engine.

        The circuit compiles once.  Each job's shot axis splits into
        standalone chunks of at most ``cap`` shots, the largest batch whose
        working set (the engine's bytes per shot) fits ``max_batch_memory``
        — a decomposition that depends only on the budget, the engine, the
        width and the shot count, never on ``trajectory_workers``.  Every
        chunk draws from its own ``SeedSequence(seed).spawn`` stream;
        :meth:`_pack_merged_chunks` packs the chunks into super-chunks and
        :meth:`_execute_plan` runs every super-chunk through the engine's
        segment kernel.  Slicing the rows
        back per ``(job, chunk_id)`` gives each job exactly its standalone
        bits.  *keep_state* (single-job runs only) returns the last shot's
        statevector.
        """
        program = None
        if any(shots for shots, _ in specs):
            program = engine.compile(circuit, verify=self.verify_compiled)
        cap = None
        if self.max_batch_memory is not None and program is not None:
            cap = max(1, self.max_batch_memory // engine.bytes_per_shot(program))
        plans, batch_sizes = [], []
        for shots, seed in specs:
            batch_size = shots if cap is None else min(shots, cap)
            sizes = self._standalone_chunk_sizes(batch_size, shots)
            plans.append(list(zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes)))))
            batch_sizes.append(batch_size)
        plan = self._pack_merged_chunks(plans, cap)
        rows, final_state, recovery = self._execute_plan(
            engine, circuit, program, plan, keep_state
        )
        chunks: List[Dict[int, np.ndarray]] = [{} for _ in specs]
        for job, chunk_id, bits in rows:
            chunks[job][chunk_id] = bits
        terminal = program.terminal if program is not None else None
        implicit = terminal is not None and terminal.implicit
        results: List[SimulationResult] = []
        for job, (shots, seed) in enumerate(specs):
            ran = shots > 0
            metadata: Dict[str, object] = {
                "method": "trajectories",
                "statevector_kind": engine.statevector_kinds[implicit and ran],
                **engine.stamp,
                "trajectory_workers": self.trajectory_workers,
                "trajectory_executor": self.trajectory_executor,
                "implicit_measurement": implicit and ran,
                "num_batches": len(plans[job]),
                "batch_size": batch_sizes[job],
            }
            counts = Counts({})
            if ran:
                metadata["compiled_steps"] = len(program.steps)
                if recovery is not None:
                    metadata["executor_recovery"] = recovery
                counts = Counts.from_array(
                    np.concatenate([chunks[job][c] for c in range(len(plans[job]))], axis=0)
                )
            results.append(
                SimulationResult(
                    counts=counts,
                    statevector=final_state,
                    shots=shots,
                    seed=seed,
                    metadata=metadata,
                )
            )
        _stamp_merged(results, len(plan))
        return results

    def _execute_plan(
        self, engine, circuit: Circuit, program, plan: List[List[tuple]], keep_state: bool
    ):
        """Run every super-chunk serially, on the thread pool or on the process pool.

        Returns ``(rows, final_state, recovery)``: the ``(job, chunk_id,
        bits)`` row block of every segment, the last super-chunk's final
        single-trajectory state when *keep_state* (else ``None``; only that
        one super-chunk keeps its state, so peak memory stays at about
        ``workers x max_batch_memory``), and the process pool's per-run
        crash-recovery counters (``None`` on the thread executor).
        """
        if not plan:
            return [], None, None
        workers = min(self.trajectory_workers, len(plan))
        # Cap BLAS at cores-per-worker: without the cap every worker's GEMMs
        # spawn a full OpenMP team and the workers x cores oversubscription
        # erases the parallel speedup.
        blas_threads = max(1, (os.cpu_count() or 1) // workers) if workers > 1 else None
        state_chunk = len(plan) - 1 if keep_state else None
        recovery = None
        if self.trajectory_executor == "process":
            from .procpool import run_chunks

            outputs, recovery = run_chunks(
                engine,
                circuit,
                plan,
                workers=workers,
                blas_threads=blas_threads,
                state_chunk=state_chunk,
                fault_plan=self.fault_plan,
            )
        else:

            def run_one(index: int):
                return run_super_chunk(
                    engine, program, index, plan[index], index == state_chunk, self.fault_plan
                )

            if workers <= 1:
                outputs = [run_one(index) for index in range(len(plan))]
            else:
                from .threads import limit_blas_threads

                with limit_blas_threads(blas_threads):
                    with ThreadPoolExecutor(max_workers=workers) as pool:
                        outputs = list(pool.map(run_one, range(len(plan))))
        rows = [row for chunk_rows, _ in outputs for row in chunk_rows]
        return rows, outputs[-1][1], recovery

    # -- exact path -------------------------------------------------------------
    def _run_exact(
        self, circuit: Circuit, specs: List[Tuple[int, Optional[int]]], keep_state: bool
    ) -> List[SimulationResult]:
        """Evolve once through the fused program, then sample each job's shots.

        The gates are compiled through the parametric template cache (the
        circuit is noiseless here, and any gates appearing after a terminal
        measurement act on *other* qubits and commute with it), so repeated
        structurally identical circuits — a variational optimisation loop —
        skip the fusion analysis and only re-bind the fused matrices.  The
        path consumes no RNG before sampling, so one shared evolution and a
        fresh per-job generator give every job exactly its standalone draws.
        """
        from .fusion import compile_trajectory_program_cached  # local: import cycle

        state = Statevector(circuit.num_qubits)
        measure_map: Dict[int, int] = {}
        gates_only = Circuit(circuit.num_qubits, name=circuit.name)
        for inst in circuit.instructions:
            if inst.name == "barrier":
                continue
            if inst.name == "measure":
                measure_map[inst.clbits[0]] = inst.qubits[0]
                continue
            gates_only.instructions.append(inst)
        if gates_only.instructions:
            program = compile_trajectory_program_cached(gates_only)
            if self.verify_compiled:
                _verify_trajectory_artifacts(gates_only, program)
            for step in program.steps:
                state.apply_matrix(step.matrix, step.qubits, plan=step.plan)
        results = []
        for shots, seed in specs:
            counts, implicit = self._sample_exact(
                state, measure_map, circuit, shots, np.random.default_rng(seed)
            )
            results.append(
                SimulationResult(
                    counts=counts,
                    statevector=state if keep_state else None,
                    shots=shots,
                    seed=seed,
                    metadata={
                        "method": "exact",
                        "statevector_kind": "pre_measurement",
                        "implicit_measurement": implicit,
                    },
                )
            )
        _stamp_merged(results, 1)
        return results

    @staticmethod
    def _sample_exact(
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
            return state.sample_counts(shots, rng), True

        n = circuit.num_qubits
        shifts = [n] * circuit.num_clbits  # an unmeasured clbit reads 0
        for clbit, qubit in measure_map.items():
            shifts[clbit] = n - 1 - qubit
        return state._sample_bits(shots, rng, shifts), False


def _active_noise(noise_model: Optional[NoiseModel]) -> Optional[NoiseModel]:
    """The model the compilers and kernels see: ``None`` when noiseless."""
    if noise_model is None or noise_model.is_noiseless:
        return None
    return noise_model


def _stamp_merged(results: List[SimulationResult], merged_chunks: int) -> None:
    """Add ``metadata["merged"]`` to the results of a group of two or more."""
    if len(results) < 2:
        return
    for position, result in enumerate(results):
        result.metadata["merged"] = {
            "group_size": len(results),
            "position": position,
            "merged_chunks": merged_chunks,
        }


def _verify_trajectory_artifacts(circuit: Circuit, program) -> None:
    """``verify_compiled`` knob path: verify one run's compiled artifacts.

    Verifies the bound :class:`~repro.simulators.gate.fusion.TrajectoryProgram`
    (IR001-IR006) and the structural template of *circuit* including the
    IR008 cache-key soundness probe.  Only called when the knob is on; the
    off path never reaches this function.
    """
    from .analysis import verify_program, verify_template  # local: import cycle
    from .fusion import compile_parametric_template

    verify_template(compile_parametric_template(circuit), circuit).raise_if_failed()
    verify_program(program).raise_if_failed()


def _collapse_terminal(
    state: Statevector, pairs: Tuple[Tuple[int, int], ...], index: int
) -> None:
    """Project *state* onto the sampled outcomes of the terminal measures.

    Equals collapsing each measured qubit in turn, which is what the
    ``"final_trajectory"`` statevector contract describes.
    """
    n = state.num_qubits
    for qubit, _ in pairs:
        bit = (index >> (n - 1 - qubit)) & 1
        projector = [slice(None)] * n
        projector[qubit] = 1 - bit
        state._tensor[tuple(projector)] = 0.0
    norm = np.linalg.norm(state.data)
    if norm == 0:
        raise SimulationError("terminal collapse produced a zero-norm state")
    state._tensor /= norm


# -- engines: what the batched and stabilizer engines do differently ------------------
#
# The planner, executor and reassembly above never branch on the engine.  An
# engine contributes exactly three things — how it compiles, what one shot
# costs in bytes, and its segment kernel — plus the metadata it stamps.
# Engines are small picklable values: the process executor ships one with
# the circuit in every chunk group, and the worker compiles with it.


class _AmplitudeEngine:
    """The batched state-vector engine (``trajectory_engine="batched"``)."""

    statevector_kinds = ("final_trajectory", "pre_measurement")  # by implicit

    def __init__(self, simulator: StatevectorSimulator):
        self.noise_model = _active_noise(simulator.noise_model)
        self.dtype = simulator.trajectory_dtype
        self.stamp = {"trajectory_engine": "batched", "trajectory_dtype": self.dtype}

    def compile(self, circuit: Circuit, verify: bool):
        """Compile through the structure-keyed trajectory program cache."""
        from .fusion import compile_trajectory_program_cached  # local: import cycle

        program = compile_trajectory_program_cached(circuit, self.noise_model)
        if verify:
            _verify_trajectory_artifacts(circuit, program)
        return program

    def bytes_per_shot(self, program) -> int:
        """State tensor plus the scratch buffer of the double-buffered GEMMs."""
        return 2 * np.dtype(self.dtype).itemsize * (1 << program.num_qubits)

    def execute(self, program, segments, keep_state: bool):
        """One super-chunk: ``(bits, last trajectory's state or None)``."""
        return execute_program_segments(
            program,
            segments,
            noise_model=self.noise_model,
            dtype=self.dtype,
            keep_state=keep_state,
        )


class _StabilizerEngine:
    """The compile-once stabilizer-tableau engine (``trajectory_engine="stabilizer"``).

    Compiles through the Clifford lowering table (non-Clifford gates raise
    :class:`~repro.core.errors.UnsupportedGateError`); results never carry a
    statevector (``statevector_kind="none"``).
    """

    statevector_kinds = ("none", "none")

    def __init__(self, simulator: StatevectorSimulator):
        self.noise_model = _active_noise(simulator.noise_model)
        self.stamp = {"trajectory_engine": "stabilizer"}

    def compile(self, circuit: Circuit, verify: bool):
        """Compile through the structure- and noise-keyed stabilizer cache."""
        from .fusion import compile_stabilizer_program_cached  # local: import cycle

        program = compile_stabilizer_program_cached(circuit, self.noise_model)
        if verify:
            from .analysis import verify_stabilizer_program  # local: import cycle

            verify_stabilizer_program(program).raise_if_failed()
        return program

    def bytes_per_shot(self, program) -> int:
        """``2 n`` phase bytes plus ``bits_width`` outcome bytes.

        The kernel holds no bit matrices (the structure is compiled once), so
        the byte budget that admits hundreds of amplitude trajectories admits
        hundreds of thousands of tableau trajectories.
        """
        return 2 * program.num_qubits + program.bits_width

    def execute(self, program, segments, keep_state: bool):
        """One super-chunk: ``(bits, None)`` — tableaus carry no statevector."""
        from .stabilizer import execute_stabilizer_program_segments

        return execute_stabilizer_program_segments(program, segments, self.noise_model), None


def run_super_chunk(engine, program, index: int, segs, keep_state: bool, fault_plan,
                    attempt: int = 0, executor: str = "thread"):
    """Run super-chunk *index* of a plan through *engine*'s segment kernel.

    The one chunk body shared by the serial, thread and process executors:
    fires the fault seam (keyed on ``(index, attempt)``), rebuilds each
    segment's generator from its ``SeedSequence`` stream, runs the kernel
    once over the concatenated batch axis and slices the bit rows back per
    segment.  Returns ``(rows, state)`` with *rows* the ``(job, chunk_id,
    bits)`` triples and *state* the last trajectory's statevector when
    *keep_state* (else ``None``).
    """
    if fault_plan is not None:
        fault_plan.fire(index, attempt, executor=executor)
    segments = [(size, np.random.default_rng(stream)) for _, _, size, stream in segs]
    bits, state = engine.execute(program, segments, keep_state)
    rows = []
    offset = 0
    for job, chunk_id, size, _ in segs:
        rows.append((job, chunk_id, bits[offset : offset + size]))
        offset += size
    return rows, state


def execute_program_segments(
    program,
    segments,
    *,
    noise_model: Optional[NoiseModel],
    dtype,
    keep_state: bool = False,
):
    """Advance one super-chunk of trajectories through a compiled program.

    The batched engine's segment kernel, used for every chunk the simulator
    executes (a solo run is a merged group of one).  *segments* is a
    sequence of ``(size, generator)`` pairs partitioning the batch axis; each
    pair is one standalone chunk of one job, carrying that chunk's own
    ``SeedSequence``-spawned generator.  The shared tensor evolution is
    per-column pure (dense broadcast GEMMs produce bit-identical columns at
    every batch width >= 2; width-1 chunks never share a super-chunk), and
    every random draw (noise events, mid-circuit measurements, terminal
    sampling, readout flips) is pulled per segment in standalone order and
    size.  Slicing the returned rows back per segment therefore reproduces
    each chunk bit for bit at every grouping.

    Returns ``(bits, state)``: the concatenated ``(sum(sizes), bits_width)``
    classical-bit rows and, with *keep_state*, the last trajectory's final
    :class:`Statevector` (collapsed onto its sampled terminal outcome unless
    the terminal measurement is implicit), else ``None``.
    """
    from .batched import BatchedStatevector  # local import: cycle with batched.py
    from .fusion import GateStep, MeasureStep, ResetStep

    total = sum(size for size, _ in segments)
    state = BatchedStatevector(program.num_qubits, total, dtype=np.dtype(dtype))
    noise = noise_model
    bits = np.zeros((total, program.bits_width), dtype=np.uint8)
    for step in program.steps:
        if isinstance(step, GateStep):
            state.apply_matrix(step.matrix, step.qubits, plan=step.plan)
            if step.noise:
                state.apply_noise_events(step.noise, segments)
        elif isinstance(step, MeasureStep):
            outcomes = state.measure(step.qubit, segments)
            if noise is not None:
                outcomes = noise.apply_readout_error_segmented(outcomes, segments)
            bits[:, step.clbit] = outcomes
        elif isinstance(step, ResetStep):
            state.reset(step.qubit, segments)
    terminal = program.terminal
    if terminal is not None:
        indices = state.sample_all(segments)
        n = program.num_qubits
        for qubit, clbit in terminal.pairs:
            column = ((indices >> (n - 1 - qubit)) & 1).astype(np.uint8)
            if noise is not None and not terminal.implicit:
                column = noise.apply_readout_error_segmented(column, segments)
            bits[:, clbit] = column
    if not keep_state:
        return bits, None
    final = state.extract(-1)
    if terminal is not None and not terminal.implicit:
        _collapse_terminal(final, terminal.pairs, int(indices[-1]))
    return bits, final
