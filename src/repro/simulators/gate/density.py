"""Exact density-matrix simulation: the trajectory stack's cross-validation oracle.

The trajectory engines (:mod:`~repro.simulators.gate.batched` and the
stabilizer tableau) *sample* noisy circuits; this module *solves* them.  A
:class:`DensityMatrix` evolves the full mixed state ``rho`` through the same
compiled :class:`~repro.simulators.gate.fusion.TrajectoryProgram` the batched
engine executes — every fused unitary block is applied as the superoperator
conjugation ``U rho U^dagger`` (the block's cached
:class:`~repro.simulators.gate.kernels.MatrixPlan` on the row axes, its
:func:`~repro.simulators.gate.kernels.conjugate_plan` on the column axes), and
every per-shot depolarizing opportunity becomes the exact CPTP map

.. math:: \\rho \\mapsto (1 - p)\\,\\rho + \\frac{p}{3}\\sum_{k} E_k \\rho E_k^\\dagger

with the *same* (possibly conjugated-through-fusion) operators ``E_k`` the
trajectory engines draw stochastically.  Readout errors are applied as exact
classical bit-flip channels on the outcome distribution.  The result is the
closed-form probability of every outcome bitstring — a ground truth that the
differential test harness validates both trajectory engines against, and a new
workload class on its own: exact expectation values and noisy fidelities
without sampling error.

Mid-circuit measurement and reset are handled without approximation by
tracking a *branch ensemble*: a map from recorded classical bits to the
unnormalised conditional state ``rho_b`` (trace = branch probability).  A
:class:`~repro.simulators.gate.fusion.MeasureStep` splits each branch through
the two projectors (mixing the projections when readout error makes the record
unreliable); a :class:`~repro.simulators.gate.fusion.ResetStep` applies the
non-branching channel ``rho -> P0 rho P0 + X P1 rho P1 X``.  Branch count is
bounded by ``2^#(mid-circuit measurements)`` and capped at
:data:`MAX_DENSITY_BRANCHES`.

State layout mirrors the pure-state engines: the tensor has shape
``(2, ..., 2, 2, ..., 2)`` with row (ket) qubit ``i`` on axis ``i`` and column
(bra) qubit ``i`` on axis ``n + i``, so the slice kernels of
:mod:`~repro.simulators.gate.kernels` apply unchanged on either side.  Memory
is ``16^n`` bytes per ``complex128`` state, so widths are capped at
:data:`MAX_DENSITY_QUBITS` qubits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ...core.errors import SimulationError
from ...results.counts import Counts
from .circuit import Circuit
from .fusion import (
    GateStep,
    MeasureStep,
    NoiseEvent,
    ResetStep,
    TrajectoryProgram,
    compile_trajectory_program_cached,
)
from .gates import cached_gate_matrix, cached_gate_plan
from .kernels import MatrixPlan, apply_plan_inplace, build_plan, conjugate_plan
from .noise import NoiseModel
from .statevector import SimulationResult, Statevector

__all__ = [
    "DensityMatrix",
    "DensityMatrixSimulator",
    "pauli_terms",
    "MAX_DENSITY_QUBITS",
    "MAX_DENSITY_BRANCHES",
]

#: Width cap for exact density simulation: a ``complex128`` state costs
#: ``16^n`` bytes (16 MiB at 10 qubits), and every gate traverses all of it.
MAX_DENSITY_QUBITS = 10

#: Cap on simultaneously tracked measurement branches.  Each mid-circuit
#: measurement at most doubles the ensemble; circuits that legitimately need
#: more than this many *distinct recorded-bit histories* are outside the
#: oracle's intended scope (use the trajectory engines).
MAX_DENSITY_BRANCHES = 256

_PAULI_CHARS = "IXYZ"

#: Observable specification accepted by the ``expectation`` APIs: a Pauli
#: string (character ``i`` = qubit ``i``), a mapping of Pauli strings to real
#: coefficients, or a sequence of ``(pauli_string, coefficient)`` pairs.
PauliObservable = Union[str, Mapping[str, float], Sequence[Tuple[str, float]]]


def pauli_terms(
    observable: PauliObservable, num_qubits: int
) -> Tuple[Tuple[float, str], ...]:
    """Normalise an observable spec into ``(coefficient, pauli-string)`` terms.

    Accepts a single Pauli string (``"ZZI"``; character ``i`` acts on qubit
    ``i``, matching the bitstring convention), a mapping from Pauli strings to
    real coefficients, or a sequence of ``(pauli_string, coefficient)`` pairs.
    Strings are case-insensitive and must be exactly *num_qubits* wide over
    the alphabet ``IXYZ``.
    """
    try:
        if isinstance(observable, str):
            raw: List[Tuple[str, float]] = [(observable, 1.0)]
        elif isinstance(observable, Mapping):
            raw = [(str(key), float(value)) for key, value in observable.items()]
        else:
            raw = [(str(key), float(value)) for key, value in observable]
    except (TypeError, ValueError):
        raise SimulationError(
            "observable must be a Pauli string, a mapping of Pauli strings "
            f"to real coefficients, or (string, coefficient) pairs; got {observable!r}"
        ) from None
    if not raw:
        raise SimulationError("observable has no terms")
    terms: List[Tuple[float, str]] = []
    for string, coeff in raw:
        string = string.upper()
        if len(string) != num_qubits:
            raise SimulationError(
                f"Pauli string {string!r} has width {len(string)}, "
                f"expected {num_qubits}"
            )
        if any(c not in _PAULI_CHARS for c in string):
            raise SimulationError(
                f"Pauli string {string!r} contains characters outside 'IXYZ'"
            )
        terms.append((coeff, string))
    return tuple(terms)


# -- tensor-level channel primitives ------------------------------------------------
# These operate on raw ``(2,)*2n`` tensors so the simulator's branch ensemble
# can share them with the DensityMatrix wrapper without per-step object churn.


# Plans are frozen (hashable) dataclasses and one program applies the same
# plan once per branch per step, so memoise the conjugation instead of
# rebuilding coefficient tuples steps x branches x operators times per run.
_conjugate_plan = lru_cache(maxsize=1024)(conjugate_plan)


def _apply_unitary(
    tensor: np.ndarray, plan: MatrixPlan, qubits: Sequence[int], num_qubits: int
) -> None:
    """``rho -> U rho U^dagger`` in place: plan on row axes, conjugate on column axes."""
    apply_plan_inplace(tensor, plan, list(qubits))
    apply_plan_inplace(
        tensor, _conjugate_plan(plan), [num_qubits + q for q in qubits]
    )


def _apply_noise_event(
    tensor: np.ndarray, event: NoiseEvent, num_qubits: int
) -> np.ndarray:
    """The exact CPTP form of one stochastic error opportunity.

    Returns ``(1 - rate) rho + (rate / K) sum_k E_k rho E_k^dagger`` for the
    event's ``K`` equiprobable operators — the ensemble average of the
    trajectory engines' per-shot draw.
    """
    if event.rate <= 0.0:
        return tensor
    accumulated = (1.0 - event.rate) * tensor
    share = event.rate / len(event.operators)
    for _, plan in event.operators:
        branch = tensor.copy()
        _apply_unitary(branch, plan, event.qubits, num_qubits)
        accumulated += share * branch
    return accumulated


def _project(
    tensor: np.ndarray, qubit: int, num_qubits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalised projections ``(P0 rho P0, P1 rho P1)`` onto a qubit's outcomes."""
    projections = []
    for outcome in (0, 1):
        index: List[object] = [slice(None)] * (2 * num_qubits)
        index[qubit] = outcome
        index[num_qubits + qubit] = outcome
        projected = np.zeros_like(tensor)
        projected[tuple(index)] = tensor[tuple(index)]
        projections.append(projected)
    return projections[0], projections[1]


def _reset_qubit(tensor: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """The reset channel ``rho -> P0 rho P0 + X P1 rho P1 X`` (measure, flip to 0)."""
    zero, one = _project(tensor, qubit, num_qubits)
    index0: List[object] = [slice(None)] * (2 * num_qubits)
    index1: List[object] = [slice(None)] * (2 * num_qubits)
    index0[qubit] = 0
    index0[num_qubits + qubit] = 0
    index1[qubit] = 1
    index1[num_qubits + qubit] = 1
    zero[tuple(index0)] += one[tuple(index1)]
    return zero


def _trace(tensor: np.ndarray, num_qubits: int) -> float:
    """Real trace of a ``(2,)*2n`` density tensor."""
    dim = 1 << num_qubits
    return float(np.trace(tensor.reshape(dim, dim)).real)


class DensityMatrix:
    """An n-qubit mixed state with in-place channel application.

    The tensor layout is ``(2, ..., 2, 2, ..., 2)``: row (ket) qubit ``i`` on
    axis ``i``, column (bra) qubit ``i`` on axis ``n + i``.  All mutating
    operations are exact linear-algebra maps — nothing is sampled.
    """

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        if num_qubits < 1:
            raise SimulationError("density matrix needs at least one qubit")
        if num_qubits > MAX_DENSITY_QUBITS:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the density-matrix limit of "
                f"{MAX_DENSITY_QUBITS}"
            )
        self.num_qubits = int(num_qubits)
        self.dim = 1 << num_qubits
        if data is None:
            matrix = np.zeros((self.dim, self.dim), dtype=np.complex128)
            matrix[0, 0] = 1.0
        else:
            matrix = np.asarray(data, dtype=np.complex128).reshape(self.dim, self.dim).copy()
            if not np.allclose(matrix, matrix.conj().T, atol=1e-9):
                raise SimulationError("density matrix must be Hermitian")
            trace = float(np.trace(matrix).real)
            if trace <= 0.0:
                raise SimulationError("density matrix must have positive trace")
            matrix /= trace
        self._tensor = matrix.reshape((2,) * (2 * self.num_qubits))

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        """The pure state ``|psi><psi|`` of an existing :class:`Statevector`."""
        psi = state.data
        return cls(state.num_qubits, data=np.outer(psi, psi.conj()))

    @classmethod
    def _from_tensor(cls, num_qubits: int, tensor: np.ndarray) -> "DensityMatrix":
        """Wrap a raw (possibly unnormalised) tensor without validation."""
        instance = cls.__new__(cls)
        instance.num_qubits = num_qubits
        instance.dim = 1 << num_qubits
        instance._tensor = tensor
        return instance

    # -- accessors ---------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The ``2^n x 2^n`` matrix form (a view onto the live tensor)."""
        return self._tensor.reshape(self.dim, self.dim)

    def trace(self) -> float:
        """``tr(rho)`` — 1 for a normalised state, branch weight otherwise."""
        return _trace(self._tensor, self.num_qubits)

    def purity(self) -> float:
        """``tr(rho^2)`` — 1 for pure states, ``1/2^n`` at the fully mixed state."""
        matrix = self.matrix
        return float(np.real(np.einsum("ij,ji->", matrix, matrix)))

    def probabilities(self) -> np.ndarray:
        """Exact computational-basis probabilities: the (clipped) real diagonal."""
        return np.clip(np.diagonal(self.matrix).real, 0.0, None)

    def probability_dict(self, threshold: float = 1e-12) -> Dict[str, float]:
        """Bitstring -> probability for every outcome above *threshold*."""
        from .statevector import index_to_bits  # local: avoid re-export confusion

        probs = self.probabilities()
        return {
            index_to_bits(i, self.num_qubits): float(p)
            for i, p in enumerate(probs)
            if p > threshold
        }

    def fidelity(self, state: Statevector) -> float:
        """``<psi| rho |psi>`` — the exact fidelity against a pure target."""
        if state.num_qubits != self.num_qubits:
            raise SimulationError("fidelity requires states of equal width")
        psi = state.data
        return float(np.real(np.vdot(psi, self.matrix @ psi)))

    # -- evolution ------------------------------------------------------------------
    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int], plan: Optional[MatrixPlan] = None
    ) -> "DensityMatrix":
        """Conjugate by a ``2^m x 2^m`` unitary: ``rho -> U rho U^dagger``."""
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
        _apply_unitary(
            self._tensor, plan if plan is not None else build_plan(matrix), qubits, self.num_qubits
        )
        return self

    def apply_gate(
        self, name: str, qubits: Sequence[int], params: Sequence[float] = ()
    ) -> "DensityMatrix":
        """Conjugate by a named library gate (cached matrix and plan)."""
        return self.apply_matrix(
            cached_gate_matrix(name, params), qubits, plan=cached_gate_plan(name, params)
        )

    def evolve(self, circuit: Circuit, *, noise_model: Optional[NoiseModel] = None) -> "DensityMatrix":
        """Evolve through a unitary circuit, with optional exact depolarizing noise.

        Compiles *circuit* through the fusion compiler (the same program the
        batched engine runs) and applies each fused block as a conjugation and
        each noise opportunity as its exact CPTP map.  Measure and reset are
        rejected — branch-resolved execution lives in
        :class:`DensityMatrixSimulator`.
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width does not match the density matrix")
        for inst in circuit.instructions:
            if inst.name != "barrier" and not inst.is_gate:
                raise SimulationError(
                    "DensityMatrix.evolve only supports unitary circuits; "
                    "use DensityMatrixSimulator.run for measurements"
                )
        if noise_model is not None and noise_model.is_noiseless:
            noise_model = None
        program = compile_trajectory_program_cached(circuit, noise_model)
        for step in program.steps:
            # Unitary-only circuits compile to GateStep exclusively.
            _apply_unitary(self._tensor, step.plan, step.qubits, self.num_qubits)
            for event in step.noise:
                self._tensor = _apply_noise_event(self._tensor, event, self.num_qubits)
        return self

    def apply_noise_event(self, event: NoiseEvent) -> "DensityMatrix":
        """Apply one compiled error opportunity as its exact CPTP map."""
        self._tensor = _apply_noise_event(self._tensor, event, self.num_qubits)
        return self

    def depolarize(self, qubit: int, rate: float) -> "DensityMatrix":
        """The exact single-qubit depolarizing channel at probability *rate*."""
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        if not 0.0 <= rate <= 1.0:
            raise SimulationError(f"depolarizing rate must lie in [0, 1], got {rate}")
        operators = tuple(
            (cached_gate_matrix(name), cached_gate_plan(name)) for name in ("x", "y", "z")
        )
        return self.apply_noise_event(NoiseEvent((qubit,), rate, operators))

    def reset(self, qubit: int) -> "DensityMatrix":
        """The reset channel: measure *qubit* and flip outcome 1 back to 0."""
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        self._tensor = _reset_qubit(self._tensor, qubit, self.num_qubits)
        return self

    def project(self, qubit: int) -> Tuple["DensityMatrix", "DensityMatrix"]:
        """Unnormalised post-measurement branches ``(P0 rho P0, P1 rho P1)``.

        The traces of the two returned (unnormalised) states are the outcome
        probabilities; the caller decides whether to renormalise.
        """
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        zero, one = _project(self._tensor, qubit, self.num_qubits)
        return (
            DensityMatrix._from_tensor(self.num_qubits, zero),
            DensityMatrix._from_tensor(self.num_qubits, one),
        )

    # -- observables -----------------------------------------------------------------
    def expectation(self, observable: Union[PauliObservable, np.ndarray]) -> float:
        """Exact expectation value ``tr(O rho)`` of a Hermitian observable.

        *observable* is either a full ``2^n x 2^n`` matrix or a Pauli
        specification (see :func:`pauli_terms`): a string like ``"ZZI"``
        (character ``i`` acts on qubit ``i``), a mapping of Pauli strings to
        coefficients, or ``(string, coefficient)`` pairs.
        """
        if isinstance(observable, np.ndarray):
            if observable.shape != (self.dim, self.dim):
                raise SimulationError(
                    f"observable shape {observable.shape} does not match "
                    f"dimension {self.dim}"
                )
            return float(np.real(np.einsum("ij,ji->", observable, self.matrix)))
        total = 0.0
        for coeff, string in pauli_terms(observable, self.num_qubits):
            work = self._tensor.copy()
            for qubit, char in enumerate(string):
                if char != "I":
                    apply_plan_inplace(work, cached_gate_plan(char.lower()), [qubit])
            total += coeff * _trace(work, self.num_qubits)
        return total


class DensityMatrixSimulator:
    """Exact execution of circuits on the full density matrix.

    The drop-in oracle counterpart of
    :class:`~repro.simulators.gate.statevector.StatevectorSimulator`: the same
    circuit IR, the same compiled program, the same
    :class:`~repro.results.counts.Counts` result contract — but outcome
    probabilities are computed in closed form instead of sampled, so the
    output distribution carries **no sampling error** regardless of the shot
    count.  Also exposed through the gate backend / exec-policy as
    ``trajectory_engine="density"``.

    Parameters
    ----------
    noise_model:
        Optional :class:`~repro.simulators.gate.noise.NoiseModel`; depolarizing
        rates become exact CPTP maps and readout error an exact classical
        bit-flip channel on the outcome distribution.
    sampling:
        How exact probabilities become integer counts.  ``"multinomial"``
        (default) draws ``shots`` outcomes from the exact distribution with
        the run's seed — statistically indistinguishable from hardware with
        that exact behaviour.  ``"deterministic"`` apportions
        ``round(p * shots)`` counts by largest remainder — reproducible
        without any RNG, useful for regression baselines.
    verify_compiled:
        ``bool`` (default ``False``).  When enabled, every compiled program
        and every result's contractual metadata is checked through the
        static IR verifier (:mod:`~repro.simulators.gate.analysis`); a
        violation raises
        :class:`~repro.simulators.gate.analysis.IRVerificationError`.
    """

    def __init__(
        self,
        *,
        noise_model: Optional[NoiseModel] = None,
        sampling: str = "multinomial",
        verify_compiled: bool = False,
    ):
        if sampling not in ("multinomial", "deterministic"):
            raise SimulationError(
                f"unknown density sampling mode {sampling!r}; "
                "expected 'multinomial' or 'deterministic'"
            )
        if not isinstance(verify_compiled, bool):
            raise SimulationError(
                f"verify_compiled must be a bool, got {verify_compiled!r}"
            )
        self.noise_model = noise_model
        self.sampling = sampling
        self.verify_compiled = verify_compiled

    # -- public API -------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        *,
        shots: int = 1024,
        seed: Optional[int] = None,
        return_statevector: bool = False,
    ) -> SimulationResult:
        """Execute *circuit* exactly and return counts over its classical bits.

        The exact outcome distribution is computed first (see
        :meth:`probabilities`), then converted to integer counts by the
        constructor's *sampling* mode.  The measurement contract matches the
        trajectory engines: explicit measurements key counts over classical
        bits; measurement-free circuits are measured implicitly over all
        qubits with ``metadata["implicit_measurement"] = True``; ``shots == 0``
        returns empty counts.

        A mixed state has no statevector, so the result's ``statevector`` is
        always ``None`` and ``metadata["statevector_kind"]`` is ``"none"``
        regardless of *return_statevector*.  Metadata also records
        ``method="density"``, the branch count, the compiled step count, and
        the sampling mode.
        """
        del return_statevector  # accepted for API parity; a mixed state has no |psi>
        if shots < 0:
            raise SimulationError("shots must be non-negative")
        program, noise = self._compile(circuit)
        if shots == 0:
            # Match the trajectory engines: no state work for an empty run.
            branches: Dict[Tuple[int, ...], np.ndarray] = {}
            distribution: Dict[str, float] = {}
        else:
            branches = self._evolve(program, noise)
            distribution = self._distribution(program, noise, branches)
        counts = self._sample_counts(distribution, shots, seed)
        metadata: Dict[str, object] = {
            "method": "density",
            "statevector_kind": "none",
            "trajectory_engine": "density",
            # shots == 0 reports False, matching the trajectory engines'
            # empty-run contract.
            "implicit_measurement": bool(
                shots > 0 and program.terminal is not None and program.terminal.implicit
            ),
            "num_branches": len(branches),
            "compiled_steps": len(program.steps),
            "density_sampling": self.sampling,
            "distribution_size": len(distribution),
        }
        result = SimulationResult(
            counts=counts, statevector=None, shots=shots, seed=seed, metadata=metadata
        )
        if self.verify_compiled:
            from .analysis import verify_result  # local: import cycle

            verify_result(result).raise_if_failed()
        return result

    def probabilities(self, circuit: Circuit) -> Dict[str, float]:
        """The exact outcome distribution of *circuit* under this noise model.

        Keys follow the counts contract (character ``c`` = classical bit
        ``c``; qubit-ordered keys over all qubits for measurement-free
        circuits); values sum to 1.  This is the oracle the differential test
        harness checks the trajectory engines' empirical histograms against.
        """
        program, noise = self._compile(circuit)
        branches = self._evolve(program, noise)
        return self._distribution(program, noise, branches)

    def expectation(self, circuit: Circuit, observable: Union[PauliObservable, np.ndarray]) -> float:
        """Exact ``tr(O rho_final)`` for the noisy final state of *circuit*.

        The state is the ensemble over all measurement branches *before* any
        terminal sampling (terminal measurements never collapse the state, so
        purely-terminal circuits get the pre-measurement expectation, matching
        :meth:`Statevector.expectation <repro.simulators.gate.statevector.Statevector.expectation>`
        on noiseless runs).  Readout error does not enter — it is a classical
        channel on records, not on the state.
        """
        program, noise = self._compile(circuit)
        branches = self._evolve(program, noise)
        ensemble = sum(branches.values())
        total = _trace(ensemble, program.num_qubits)
        if total <= 0.0:
            raise SimulationError("evolution produced a zero-trace ensemble")
        state = DensityMatrix._from_tensor(program.num_qubits, ensemble / total)
        return state.expectation(observable)

    # -- internals ------------------------------------------------------------
    def _compile(self, circuit: Circuit) -> Tuple[TrajectoryProgram, Optional[NoiseModel]]:
        """Compile once through the shared fusion compiler (noiseless -> None)."""
        if circuit.num_qubits > MAX_DENSITY_QUBITS:
            raise SimulationError(
                f"{circuit.num_qubits} qubits exceeds the density-matrix limit "
                f"of {MAX_DENSITY_QUBITS}"
            )
        noise = self.noise_model
        if noise is not None and noise.is_noiseless:
            noise = None
        program = compile_trajectory_program_cached(circuit, noise)
        if self.verify_compiled:
            from .analysis import verify_program  # local: import cycle

            verify_program(program).raise_if_failed()
        return program, noise

    def _evolve(
        self, program: TrajectoryProgram, noise: Optional[NoiseModel]
    ) -> Dict[Tuple[int, ...], np.ndarray]:
        """Advance the branch ensemble through a compiled program.

        Returns recorded-bits tuple -> unnormalised ``(2,)*2n`` tensor whose
        trace is that branch's probability.  Gate steps and resets act on
        every branch in place; measure steps split (and, under readout error,
        mix) branches, merging any that share a record.
        """
        n = program.num_qubits
        initial = np.zeros((2,) * (2 * n), dtype=np.complex128)
        initial[(0,) * (2 * n)] = 1.0
        branches: Dict[Tuple[int, ...], np.ndarray] = {
            (0,) * program.bits_width: initial
        }
        readout = noise.readout_error if noise is not None else 0.0
        for step in program.steps:
            if isinstance(step, GateStep):
                for bits, tensor in branches.items():
                    _apply_unitary(tensor, step.plan, step.qubits, n)
                    for event in step.noise:
                        tensor = _apply_noise_event(tensor, event, n)
                    branches[bits] = tensor
            elif isinstance(step, MeasureStep):
                split: Dict[Tuple[int, ...], np.ndarray] = {}
                for bits, tensor in branches.items():
                    zero, one = _project(tensor, step.qubit, n)
                    if readout > 0.0:
                        # The record misreads the physical outcome with
                        # probability r, so the record-b branch is a mixture
                        # of both projections.
                        recorded = (
                            (1.0 - readout) * zero + readout * one,
                            readout * zero + (1.0 - readout) * one,
                        )
                    else:
                        recorded = (zero, one)
                    for outcome, branch in enumerate(recorded):
                        if _trace(branch, n) <= 1e-15:
                            continue
                        key = bits[: step.clbit] + (outcome,) + bits[step.clbit + 1 :]
                        if key in split:
                            split[key] = split[key] + branch
                        else:
                            split[key] = branch
                if not split:
                    raise SimulationError("measurement produced a zero-trace ensemble")
                if len(split) > MAX_DENSITY_BRANCHES:
                    raise SimulationError(
                        f"mid-circuit measurements produced {len(split)} branches, "
                        f"exceeding the density-engine cap of {MAX_DENSITY_BRANCHES}"
                    )
                branches = split
            elif isinstance(step, ResetStep):
                for bits, tensor in branches.items():
                    branches[bits] = _reset_qubit(tensor, step.qubit, n)
        return branches

    def _distribution(
        self,
        program: TrajectoryProgram,
        noise: Optional[NoiseModel],
        branches: Dict[Tuple[int, ...], np.ndarray],
    ) -> Dict[str, float]:
        """Exact clbit-string distribution from the final branch ensemble.

        Terminal pairs are deduplicated per classical bit (last write wins,
        matching the trajectory engines' overwrite order), marginal outcome
        probabilities come from each branch's diagonal, and readout error on
        terminal records is applied as an independent bit-flip channel per
        recorded pair.
        """
        n = program.num_qubits
        terminal = program.terminal
        distribution: Dict[str, float] = {}
        if terminal is None:
            for bits, tensor in branches.items():
                key = "".join(map(str, bits))
                distribution[key] = distribution.get(key, 0.0) + _trace(tensor, n)
        else:
            seen: set = set()
            pairs: List[Tuple[int, int]] = []
            for qubit, clbit in reversed(terminal.pairs):
                if clbit not in seen:
                    seen.add(clbit)
                    pairs.append((qubit, clbit))
            pairs.reverse()
            measured = sorted({qubit for qubit, _ in pairs})
            axis_of = {qubit: axis for axis, qubit in enumerate(measured)}
            readout = (
                noise.readout_error
                if noise is not None and not terminal.implicit
                else 0.0
            )
            num_pairs = len(pairs)
            for bits, tensor in branches.items():
                diagonal = np.clip(
                    np.diagonal(tensor.reshape(1 << n, 1 << n)).real, 0.0, None
                ).reshape((2,) * n)
                # Marginalise onto the measured qubits (axes stay in ascending
                # qubit order).
                unmeasured = tuple(axis for axis in range(n) if axis not in measured)
                marginal = diagonal.sum(axis=unmeasured) if unmeasured else diagonal
                # Scatter qubit-outcome mass into recorded-pair space: each
                # pair's bit equals its qubit's bit (duplicate-qubit pairs are
                # perfectly correlated pre-readout).
                grids = np.indices(marginal.shape)
                pair_space = np.zeros((2,) * num_pairs)
                index = tuple(grids[axis_of[qubit]] for qubit, _ in pairs)
                np.add.at(pair_space, index, marginal)
                if readout > 0.0:
                    for axis in range(num_pairs):
                        pair_space = (1.0 - readout) * pair_space + readout * np.flip(
                            pair_space, axis=axis
                        )
                flat = pair_space.reshape(-1)
                for outcome in np.flatnonzero(flat > 1e-16):
                    row = list(bits)
                    for position, (_, clbit) in enumerate(pairs):
                        row[clbit] = (int(outcome) >> (num_pairs - 1 - position)) & 1
                    key = "".join(map(str, row))
                    distribution[key] = distribution.get(key, 0.0) + float(flat[outcome])
        total = sum(distribution.values())
        if total <= 0.0:
            raise SimulationError("exact distribution has zero total probability")
        return {key: value / total for key, value in distribution.items()}

    def _sample_counts(
        self, distribution: Dict[str, float], shots: int, seed: Optional[int]
    ) -> Counts:
        """Convert exact probabilities to integer counts per the sampling mode."""
        if shots == 0 or not distribution:
            return Counts({})
        keys = sorted(distribution)
        probs = np.array([distribution[key] for key in keys], dtype=np.float64)
        probs = probs / probs.sum()
        if self.sampling == "deterministic":
            exact = probs * shots
            counts = np.floor(exact).astype(np.int64)
            remainder = shots - int(counts.sum())
            if remainder:
                order = np.argsort(-(exact - counts), kind="stable")
                counts[order[:remainder]] += 1
        else:
            counts = np.random.default_rng(seed).multinomial(shots, probs)
        return Counts(
            {key: int(count) for key, count in zip(keys, counts) if count}
        )
