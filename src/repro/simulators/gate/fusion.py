"""Trajectory program compilation: gate fusion, parametric templates, caching.

The batched trajectory engine is memory-bandwidth bound — every gate costs at
least one full traversal of the ``shots x 2^n`` state.  This module compiles
a :class:`~repro.simulators.gate.circuit.Circuit` once per run into a
:class:`TrajectoryProgram` that minimises traversals without changing the
sampled distribution:

* **1q-run fusion** — consecutive single-qubit gates on the same qubit (with
  no intervening operation touching it) are multiplied into one 2x2 matrix,
  so a transpiled ``rz–sx–rz`` chain costs one traversal instead of three.
  Reordering is safe because runs are only hoisted past operations on
  *disjoint* qubits, with which they commute.
* **2q absorption** — pending 1q runs are multiplied into a following
  non-diagonal two-qubit gate on *adjacent* qubits (``G2 (U_a ⊗ U_b)``),
  which the batched engine applies as a single contiguous-reshape GEMM.
* **same-pair 2q fusion** — consecutive two-qubit gates acting on the same
  qubit pair (in either order; SWAP-conjugated when reversed) collapse into
  one 4x4 product, so an ``rzz–cx`` cost-layer pair or a routed
  ``cx–cx–cx`` SWAP chain costs one traversal instead of two or three.
* **noise pushing** — with a depolarizing model active, the per-shot channel
  places an independent Pauli-error opportunity after *every* gate.  Fusion
  preserves that channel exactly: an error ``P`` striking after sub-gate
  ``u_i`` of a fused block is algebraically pushed past the rest of the
  block, ``P -> R P R^dagger`` with ``R`` the product of the sub-gates
  applied after ``u_i``, and applied as a small *subset* operation to only
  the struck shots.  Same-pair fusion pushes the earlier gate's (already
  conjugated) events through the later gate the same way.
* **terminal-measurement batching** — the trailing measurements (those whose
  qubit is never touched afterwards) commute with everything after them, so
  they are sampled *jointly* from the final per-shot distribution in one
  cumulative pass instead of one collapse per qubit.  Circuits with no
  measurements at all get the documented implicit terminal measurement over
  every qubit through the same mechanism.

Parametric compilation
----------------------
Variational workloads (QAOA optimisation, parameter-grid sweeps) execute the
*same circuit structure* hundreds of times with different rotation angles.
The compiler is therefore split into two phases — for noiseless **and**
noisy circuits alike:

* :func:`compile_parametric_template` performs the **structural** phase —
  which gates fuse into which step, absorption and same-pair decisions,
  terminal-measurement peeling — and records each fused step as a *recipe*
  over instruction indices instead of concrete matrices.  Each recipe also
  carries its *noise segments*: the provenance of every sub-block that was
  fused into the step, which is exactly the information needed to replay
  noise pushing (``E -> G E G†``) against concrete matrices later.  The
  phase depends only on the circuit's structure (names, qubits, clbits),
  never on the parameter values or the noise rates.
* :meth:`ParametricTemplate.bind` performs the **numeric** phase — it reads
  the concrete parameter values out of a structurally identical circuit and
  multiplies the (small, cached) gate matrices into the fused step matrices.
  With a ``noise_model`` it additionally replays the noise-pushing algebra
  segment by segment, producing the same conjugated
  :class:`NoiseEvent` streams the one-shot noisy compiler builds.

Two module-level LRUs memoise the phases:

* the **template cache**, keyed on circuit structure alone, skips the
  structural phase (a variational loop pays fusion analysis once per
  optimisation instead of once per evaluation);
* the **program cache**, keyed on structure + parameter values + effective
  noise rates, skips the numeric phase entirely — a noisy QAOA/QEC
  iteration that re-runs the *same bound circuit* (sweeps over seeds, shot
  counts, contexts) gets its compiled :class:`TrajectoryProgram` back as a
  dictionary hit.  A bound program holds only ``complex128`` matrices and
  plans, and the engines cast at apply time, so ``complex64`` and
  ``complex128`` runs share one entry.

:func:`compile_trajectory_program` is itself implemented as
``template + bind`` for every noise setting, so the cached and uncached
paths produce **bit-identical programs by construction**.  Cache sizes are
bounded (:func:`set_compile_cache_size`) and instrumented
(:func:`compile_cache_info`, :func:`clear_compile_caches`).

The compiled program is engine-agnostic data; execution lives in
:class:`~repro.simulators.gate.statevector.StatevectorSimulator`.  The same
compiler also serves noiseless unitary sweeps:
:meth:`~repro.simulators.gate.statevector.Statevector.evolve` and
:func:`~repro.simulators.gate.unitary.circuit_unitary` compile first (their
programs contain only :class:`GateStep`) and apply the fused steps directly.
A compiled program is immutable after compilation, so one program may be
executed by many shot chunks concurrently (``trajectory_workers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.errors import UnsupportedGateError
from .circuit import Circuit, Instruction
from .gates import cached_gate_matrix, cached_gate_plan
from .kernels import MatrixPlan, build_plan
from .lru import DEFAULT_CACHE_SIZE, BoundedLRU
from .noise import NoiseModel
from .stabilizer import MeasureFlips, PauliFlips, StabilizerTableau

__all__ = [
    "NoiseEvent",
    "GateStep",
    "MeasureStep",
    "ResetStep",
    "TerminalSample",
    "TrajectoryProgram",
    "StepRecipe",
    "ParametricTemplate",
    "CliffordStep",
    "PauliChannelStep",
    "StabilizerProgram",
    "CLIFFORD_GATES",
    "is_clifford_circuit",
    "compile_stabilizer_program",
    "compile_stabilizer_program_cached",
    "compile_parametric_template",
    "compile_parametric_template_cached",
    "structure_key",
    "compile_trajectory_program",
    "compile_trajectory_program_cached",
    "compile_cache_info",
    "clear_compile_caches",
    "set_compile_cache_size",
    "set_compile_verify_hooks",
    "DEFAULT_COMPILE_CACHE_SIZE",
]

_PAULI_NAMES = ("x", "y", "z")
_ID2 = np.eye(2, dtype=np.complex128)

# Verify-each hooks (``analysis.set_verify_each``).  ``None`` — the
# production default — costs one identity check per structural compile /
# bind; installed hooks receive every freshly produced artifact (cache
# misses only: cached templates and programs were verified when built).
_TEMPLATE_HOOK = None
_PROGRAM_HOOK = None
_STABILIZER_HOOK = None


def set_compile_verify_hooks(template_hook, program_hook, stabilizer_hook=None) -> None:
    """Install (or clear, with ``None``) the post-compile verification hooks.

    *template_hook* is called as ``hook(template, circuit)`` at the end of
    every uncached :func:`compile_parametric_template`; *program_hook* as
    ``hook(program, circuit)`` at the end of every
    :meth:`ParametricTemplate.bind`; *stabilizer_hook* as
    ``hook(program, circuit)`` at the end of every uncached
    :func:`compile_stabilizer_program`.  Installed by
    :func:`repro.simulators.gate.analysis.set_verify_each`; do not call
    directly unless you are building a custom verification collector.
    """
    global _TEMPLATE_HOOK, _PROGRAM_HOOK, _STABILIZER_HOOK
    _TEMPLATE_HOOK = template_hook
    _PROGRAM_HOOK = program_hook
    _STABILIZER_HOOK = stabilizer_hook


@dataclass(frozen=True)
class NoiseEvent:
    """One depolarizing-error opportunity (probability *rate* per shot).

    ``operators[k]`` is the ``(matrix, plan)`` to apply to the struck shots
    when Pauli ``k`` (x, y, z) is drawn — the raw Pauli for errors at the end
    of a step, or the Pauli conjugated through the remainder of a fused block
    (a 4x4 on *qubits* when the error was absorbed into a 2q gate).
    """

    qubits: Tuple[int, ...]
    rate: float
    operators: Tuple[Tuple[np.ndarray, MatrixPlan], ...]


@dataclass(frozen=True)
class GateStep:
    """One (possibly fused) unitary application plus its noise events."""

    matrix: np.ndarray
    qubits: Tuple[int, ...]
    plan: MatrixPlan
    noise: Tuple[NoiseEvent, ...] = ()


@dataclass(frozen=True)
class MeasureStep:
    """A mid-circuit projective measurement recorded into a classical bit."""

    qubit: int
    clbit: int


@dataclass(frozen=True)
class ResetStep:
    """Measure-and-zero of one qubit."""

    qubit: int


@dataclass(frozen=True)
class TerminalSample:
    """Joint sampling of the trailing measurements from the final state.

    ``pairs`` maps measured qubits to classical bits in original instruction
    order (so a clbit written twice keeps last-write-wins semantics).  When
    *implicit* is true the circuit had no measurements and every qubit is
    sampled into a counts key of width ``num_qubits`` (qubit order).
    """

    pairs: Tuple[Tuple[int, int], ...]
    implicit: bool = False


@dataclass
class TrajectoryProgram:
    """A compiled instruction stream for the batched trajectory engine."""

    num_qubits: int
    num_clbits: int
    steps: List[object] = field(default_factory=list)
    terminal: Optional[TerminalSample] = None

    @property
    def bits_width(self) -> int:
        """Width of the per-shot classical-bit rows the program produces."""
        if self.terminal is not None and self.terminal.implicit:
            return self.num_qubits
        return self.num_clbits


@dataclass(frozen=True)
class CliffordStep:
    """One primitive Clifford gate of a compiled stabilizer program.

    ``name`` is drawn from the tableau's primitive set
    (:data:`~repro.simulators.gate.stabilizer.PRIMITIVE_GATES`); wider
    library Cliffords are lowered onto sequences of these at compile time.
    """

    name: str
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class PauliChannelStep:
    """One gate's depolarizing channel, lowered to Pauli-frame form.

    Each qubit of ``qubits`` is struck independently with probability
    ``rate``; a struck trajectory applies a uniformly drawn X, Y or Z.  On a
    tableau this is pure phase (sign) information — a Pauli-frame twirl of
    the same per-qubit depolarizing channel the trajectory engines' conjugated
    :class:`NoiseEvent` streams encode (depolarizing is already a Pauli
    channel, so the twirl is exact, not an approximation).
    """

    qubits: Tuple[int, ...]
    rate: float


@dataclass
class StabilizerProgram:
    """A compiled instruction stream for the stabilizer tableau engine.

    Steps are :class:`CliffordStep`, :class:`PauliChannelStep`,
    :class:`MeasureStep` and :class:`ResetStep`; trailing measurements are
    peeled into the same :class:`TerminalSample` contract (implicit terminal
    measurement included) as :class:`TrajectoryProgram`, so the engines share
    one result-semantics contract.  ``phases``, what the run kernel
    executes, holds one ``PauliFlips`` per noise qubit and one
    ``MeasureFlips`` per measurement, reset and terminal pair, in source
    order (:mod:`~repro.simulators.gate.stabilizer`).  Immutable after
    compilation (phase index arrays are read-only) and safe to execute from
    many shot chunks concurrently.
    """

    num_qubits: int
    num_clbits: int
    steps: List[object] = field(default_factory=list)
    terminal: Optional[TerminalSample] = None
    phases: Optional[Tuple[object, ...]] = None

    @property
    def bits_width(self) -> int:
        """Width of the per-shot classical-bit rows the program produces."""
        if self.terminal is not None and self.terminal.implicit:
            return self.num_qubits
        return self.num_clbits


def _planned(matrix: np.ndarray) -> Tuple[np.ndarray, MatrixPlan]:
    return matrix, build_plan(matrix)


@lru_cache(maxsize=4096)
def _pauli_event(qubit: int, rate: float) -> NoiseEvent:
    """The raw (unconjugated) per-qubit Pauli error opportunity, memoised.

    Events are immutable and their operators come from the shared gate
    caches, so one instance per ``(qubit, rate)`` serves every compile.
    """
    operators = tuple(
        (cached_gate_matrix(name), cached_gate_plan(name)) for name in _PAULI_NAMES
    )
    return NoiseEvent((qubit,), rate, operators)


def _run_product(matrices: List[np.ndarray]) -> np.ndarray:
    product = matrices[0]
    for matrix in matrices[1:]:
        product = matrix @ product
    return product


def _run_conjugations(matrices: List[np.ndarray]) -> List[np.ndarray]:
    """``R_i`` (product of the sub-gates applied after sub-gate *i*) per sub-gate."""
    suffix = _ID2
    out: List[np.ndarray] = []
    for matrix in reversed(matrices):
        out.append(suffix)
        suffix = suffix @ matrix
    out.reverse()
    return out


def _pushed_1q_events(
    qubit: int, matrices: List[np.ndarray], rate: float
) -> List[NoiseEvent]:
    """Per-sub-gate error events for a fused 1q run, conjugated to the end."""
    events: List[NoiseEvent] = []
    for remainder in _run_conjugations(matrices):
        if remainder is _ID2:
            # The run's last sub-gate has nothing behind it: conjugating by
            # the identity is exact, so serve the shared raw-Pauli event
            # instead of multiplying it out and re-analysing the plans.
            events.append(_pauli_event(qubit, rate))
            continue
        operators = tuple(
            _planned(remainder @ cached_gate_matrix(name) @ remainder.conj().T)
            for name in _PAULI_NAMES
        )
        events.append(NoiseEvent((qubit,), rate, operators))
    return events


def _absorbed_events(
    events: List[NoiseEvent], side: int, gate: np.ndarray, qubits: Tuple[int, int]
) -> List[NoiseEvent]:
    """Push a run's 1q events through ``gate`` as 4x4 events on *qubits*.

    ``side`` is 0 when the run's qubit is the gate's first (most significant)
    qubit, 1 for the second: ``E -> G2 (E ⊗ I) G2†`` resp. ``G2 (I ⊗ E) G2†``.
    """
    gate_dag = gate.conj().T
    out: List[NoiseEvent] = []
    for event in events:
        operators = []
        for matrix, _ in event.operators:
            embedded = np.kron(matrix, _ID2) if side == 0 else np.kron(_ID2, matrix)
            operators.append(_planned(gate @ embedded @ gate_dag))
        out.append(NoiseEvent(qubits, event.rate, tuple(operators)))
    return out


def _pushed_pair_events(
    events: Tuple[NoiseEvent, ...], gate: np.ndarray, qubits: Tuple[int, int]
) -> List[NoiseEvent]:
    """Push an earlier same-pair step's events through the following 4x4 *gate*.

    *gate* is expressed in the *qubits* orientation (first qubit = MSB).  Each
    event operator is embedded into the pair's 4x4 space — ``kron`` for
    single-qubit operators, a SWAP conjugation for operators recorded in the
    opposite qubit order — and conjugated, ``E -> G E G†``, which is exact:
    ``G E rho E† G† = (G E G†) (G rho G†) (G E G†)†``.
    """
    swap = cached_gate_matrix("swap")
    gate_dag = gate.conj().T
    out: List[NoiseEvent] = []
    for event in events:
        operators = []
        for matrix, _ in event.operators:
            if event.qubits == qubits:
                embedded = matrix
            elif event.qubits == (qubits[1], qubits[0]):
                embedded = swap @ matrix @ swap
            elif event.qubits == (qubits[0],):
                embedded = np.kron(matrix, _ID2)
            elif event.qubits == (qubits[1],):
                embedded = np.kron(_ID2, matrix)
            else:  # pragma: no cover - compiler invariant
                raise ValueError(
                    f"cannot push event on {event.qubits} through pair {qubits}"
                )
            operators.append(_planned(gate @ embedded @ gate_dag))
        out.append(NoiseEvent(qubits, event.rate, tuple(operators)))
    return out


# -- parametric templates -----------------------------------------------------------


@dataclass(frozen=True)
class _GateFactor:
    """One source instruction's matrix (SWAP-conjugated when *swapped*)."""

    index: int
    swapped: bool = False


@dataclass(frozen=True)
class _KronFactor:
    """``kron(product(run_a), product(run_b))`` of two absorbed 1q runs.

    ``run_a`` / ``run_b`` are effective-instruction indices in application
    order; an empty run contributes the 2x2 identity.
    """

    run_a: Tuple[int, ...]
    run_b: Tuple[int, ...]


# -- noise segments ------------------------------------------------------------------
# One segment per sub-block fused into a step, in fusion order and in the
# sub-block's *original* qubit orientation.  Segments are the structural
# record the noisy bind replays: each knows how to rebuild its own matrix and
# its own error events from concrete instruction parameters, and the bind
# loop pushes earlier segments' events through later segments' matrices
# exactly the way the one-shot noisy compiler did.


@dataclass(frozen=True)
class _RunSegment:
    """A flushed run of consecutive 1q gates on one qubit."""

    qubits: Tuple[int, ...]
    run: Tuple[int, ...]


@dataclass(frozen=True)
class _AbsorbSegment:
    """A 2q gate that absorbed the pending 1q runs of its operands."""

    qubits: Tuple[int, int]
    run_a: Tuple[int, ...]
    run_b: Tuple[int, ...]
    index: int


@dataclass(frozen=True)
class _GateSegment:
    """A standalone multi-qubit gate (no absorption)."""

    qubits: Tuple[int, ...]
    index: int


@dataclass(frozen=True)
class StepRecipe:
    """How to rebuild one fused :class:`GateStep` from concrete parameters.

    ``factors`` are applied in sequence — the step matrix is
    ``F_k @ ... @ F_1`` — and reference the circuit's *effective*
    (barrier-free) instruction list by index, so a structurally identical
    circuit with different rotation angles can be re-bound without re-running
    the fusion analysis.  ``segments`` record the same step at sub-block
    granularity (which runs/absorptions/gates were fused, in which original
    orientation); the noisy bind replays them to rebuild the step's pushed
    :class:`NoiseEvent` stream for any noise rates.
    """

    qubits: Tuple[int, ...]
    factors: Tuple[object, ...]
    segments: Tuple[object, ...] = ()


@dataclass
class ParametricTemplate:
    """Structural compilation of one circuit shape, reusable across bindings.

    Produced by :func:`compile_parametric_template`; every entry of
    ``recipes`` is a :class:`StepRecipe`, :class:`MeasureStep` or
    :class:`ResetStep`.  Templates are immutable after construction and safe
    to bind from multiple threads.
    """

    num_qubits: int
    num_clbits: int
    recipes: List[object]
    terminal: Optional[TerminalSample]

    def bind(
        self, circuit: Circuit, noise_model: Optional[NoiseModel] = None
    ) -> TrajectoryProgram:
        """Produce the concrete :class:`TrajectoryProgram` for *circuit*.

        *circuit* must be structurally identical to the template's source
        (same gate names, qubits and clbits instruction by instruction,
        barriers excluded); only its parameter values are read.  Binding the
        source circuit itself reproduces the uncached compilation bit for
        bit — with or without noise.

        Parameters
        ----------
        noise_model:
            Optional :class:`~repro.simulators.gate.noise.NoiseModel`.  With
            nonzero depolarizing rates every gate step's noise segments are
            replayed into the conjugated-through :class:`NoiseEvent` stream
            of the full noisy compilation (readout error never enters the
            program; it is applied at execution time).

        Step matrices, plans and noise operators always stay ``complex128``;
        the engines cast at apply time, so one bound program serves every
        trajectory dtype.
        """
        instructions = _effective_instructions(circuit)
        if noise_model is not None and noise_model.is_noiseless:
            noise_model = None
        steps: List[object] = []
        for recipe in self.recipes:
            if isinstance(recipe, StepRecipe):
                if noise_model is not None:
                    step = _bind_step_noisy(
                        recipe,
                        instructions,
                        noise_model.oneq_error,
                        noise_model.twoq_error,
                    )
                else:
                    step = _bind_step(recipe, instructions)
                steps.append(step)
            else:
                steps.append(recipe)
        program = TrajectoryProgram(self.num_qubits, self.num_clbits, steps)
        program.terminal = self.terminal
        hook = _PROGRAM_HOOK
        if hook is not None:
            hook(program, circuit)
        return program


def _effective_instructions(circuit: Circuit) -> List[Instruction]:
    """The circuit's instruction list with barriers dropped."""
    return [inst for inst in circuit.instructions if inst.name != "barrier"]


def _factor_matrix(factor: object, instructions: List[Instruction]) -> np.ndarray:
    """Evaluate one recipe factor against concrete instruction parameters."""
    if isinstance(factor, _KronFactor):
        run_a = (
            _run_product([_matrix128(instructions[k]) for k in factor.run_a])
            if factor.run_a
            else _ID2
        )
        run_b = (
            _run_product([_matrix128(instructions[k]) for k in factor.run_b])
            if factor.run_b
            else _ID2
        )
        return np.kron(run_a, run_b)
    inst = instructions[factor.index]
    matrix = cached_gate_matrix(inst.name, inst.params)
    if factor.swapped:
        swap = cached_gate_matrix("swap")
        matrix = swap @ matrix @ swap
    return matrix


def _matrix128(inst: Instruction) -> np.ndarray:
    return np.asarray(cached_gate_matrix(inst.name, inst.params), dtype=np.complex128)


def _bind_step(recipe: StepRecipe, instructions: List[Instruction]) -> GateStep:
    """Materialise one :class:`GateStep` from a recipe and concrete params."""
    factors = recipe.factors
    first = factors[0]
    if len(factors) == 1 and isinstance(first, _GateFactor) and not first.swapped:
        inst = instructions[first.index]
        if len(inst.qubits) == len(recipe.qubits):
            # A standalone library gate: serve the shared cached matrix and
            # its memoised structure plan directly.
            return GateStep(
                cached_gate_matrix(inst.name, inst.params),
                recipe.qubits,
                cached_gate_plan(inst.name, inst.params),
            )
    matrix = np.asarray(_factor_matrix(first, instructions), dtype=np.complex128)
    for factor in factors[1:]:
        matrix = _factor_matrix(factor, instructions) @ matrix
    return GateStep(matrix, recipe.qubits, build_plan(matrix))


def _segment_matrix_events(
    segment: object,
    instructions: List[Instruction],
    oneq_rate: float,
    twoq_rate: float,
) -> Tuple[np.ndarray, MatrixPlan, List[NoiseEvent]]:
    """One segment's concrete ``(matrix, plan, own error events)``.

    The matrix is expressed in the segment's *original* qubit orientation;
    the plan is the one the segment would carry as a standalone step.  The
    arithmetic mirrors the one-shot noisy compiler operation for operation,
    so replaying segments reproduces its programs bit for bit.
    """
    if isinstance(segment, _RunSegment):
        matrices = [_matrix128(instructions[k]) for k in segment.run]
        product = _run_product(matrices)
        events = (
            _pushed_1q_events(segment.qubits[0], matrices, oneq_rate)
            if oneq_rate > 0.0
            else []
        )
        if len(matrices) == 1:
            # A one-gate run's product is the library matrix itself: serve
            # its memoised structure plan instead of re-analysing it.
            inst = instructions[segment.run[0]]
            return product, cached_gate_plan(inst.name, inst.params), events
        return product, build_plan(product), events
    if isinstance(segment, _AbsorbSegment):
        qa, qb = segment.qubits
        matrices_a = [_matrix128(instructions[k]) for k in segment.run_a]
        matrices_b = [_matrix128(instructions[k]) for k in segment.run_b]
        run_a = _run_product(matrices_a) if matrices_a else _ID2
        run_b = _run_product(matrices_b) if matrices_b else _ID2
        events_a = (
            _pushed_1q_events(qa, matrices_a, oneq_rate)
            if oneq_rate > 0.0 and matrices_a
            else []
        )
        events_b = (
            _pushed_1q_events(qb, matrices_b, oneq_rate)
            if oneq_rate > 0.0 and matrices_b
            else []
        )
        inst = instructions[segment.index]
        gate = cached_gate_matrix(inst.name, inst.params)
        fused = np.asarray(gate, dtype=np.complex128) @ np.kron(run_a, run_b)
        events: List[NoiseEvent] = []
        events.extend(_absorbed_events(events_a, 0, gate, (qa, qb)))
        events.extend(_absorbed_events(events_b, 1, gate, (qa, qb)))
        if twoq_rate > 0.0:
            events.extend(_pauli_event(q, twoq_rate) for q in (qa, qb))
        return fused, build_plan(fused), events
    inst = instructions[segment.index]
    matrix = cached_gate_matrix(inst.name, inst.params)
    events = (
        [_pauli_event(q, twoq_rate) for q in inst.qubits] if twoq_rate > 0.0 else []
    )
    return matrix, cached_gate_plan(inst.name, inst.params), events


def _bind_step_noisy(
    recipe: StepRecipe,
    instructions: List[Instruction],
    oneq_rate: float,
    twoq_rate: float,
) -> GateStep:
    """Materialise one noisy :class:`GateStep`: matrices *and* pushed events.

    Replays the recipe's segments in fusion order: the first segment seeds
    the step, every later segment's matrix is oriented to the step's qubit
    order (SWAP conjugation when reversed) and multiplied on, and the
    already-accumulated events are pushed through it (``E -> G E G†``)
    before the later segment's own events are appended — the exact ordering
    the unfused per-gate channel produces.
    """
    segments = recipe.segments
    matrix, plan, events = _segment_matrix_events(
        segments[0], instructions, oneq_rate, twoq_rate
    )
    for segment in segments[1:]:
        gate, _, own_events = _segment_matrix_events(
            segment, instructions, oneq_rate, twoq_rate
        )
        if segment.qubits == recipe.qubits:
            gate = np.asarray(gate, dtype=np.complex128)
        else:
            swap = cached_gate_matrix("swap")
            gate = swap @ gate @ swap
        matrix = gate @ matrix
        pushed = _pushed_pair_events(tuple(events), gate, recipe.qubits)
        events = pushed + list(own_events)
        plan = None
    if plan is None:
        plan = build_plan(matrix)
    return GateStep(matrix, recipe.qubits, plan, tuple(events))


def compile_parametric_template(circuit: Circuit) -> ParametricTemplate:
    """Run the structural (parameter-independent) compilation phase.

    Performs the full fusion analysis of :func:`compile_trajectory_program`
    for the **noiseless** case — 1q-run fusion, 2q absorption, same-pair 2q
    fusion, terminal-measurement peeling — but records each fused step as a
    :class:`StepRecipe` over instruction indices instead of a concrete
    matrix, so the result can be re-bound to any structurally identical
    circuit via :meth:`ParametricTemplate.bind`.

    The one parameter-dependent structural input is a two-qubit gate's
    diagonality (the 2q-absorption guard), which is evaluated at this
    circuit's parameter values; rotation families (``rzz``, ``crz``, ...)
    keep their diagonality for every angle, so generic variational circuits
    re-bind exactly.  Re-binding remains *correct* even when a degenerate
    angle (e.g. ``crx(0)``) would have changed the decision — only the
    chosen decomposition, never the product, depends on it.
    """
    instructions = _effective_instructions(circuit)
    recipes: List[object] = []
    pending: Dict[int, List[int]] = {}

    def flush(qubit: int) -> None:
        run = pending.pop(qubit, None)
        if run:
            recipes.append(
                StepRecipe(
                    (qubit,),
                    tuple(_GateFactor(k) for k in run),
                    (_RunSegment((qubit,), tuple(run)),),
                )
            )

    def append_gate(recipe: StepRecipe) -> None:
        """Append a gate recipe, fusing into a trailing same-pair 2q recipe."""
        if len(recipe.qubits) == 2 and recipes:
            prev = recipes[-1]
            if (
                isinstance(prev, StepRecipe)
                and len(prev.qubits) == 2
                and set(prev.qubits) == set(recipe.qubits)
            ):
                if recipe.qubits == prev.qubits:
                    extra = recipe.factors
                else:
                    extra = tuple(_swapped_factor(f) for f in recipe.factors)
                recipes[-1] = StepRecipe(
                    prev.qubits,
                    prev.factors + extra,
                    prev.segments + recipe.segments,
                )
                return
        recipes.append(recipe)

    for index, inst in enumerate(instructions):
        if inst.name == "measure":
            flush(inst.qubits[0])
            recipes.append(MeasureStep(inst.qubits[0], inst.clbits[0]))
            continue
        if inst.name == "reset":
            flush(inst.qubits[0])
            recipes.append(ResetStep(inst.qubits[0]))
            continue
        if inst.num_qubits == 1:
            pending.setdefault(inst.qubits[0], []).append(index)
            continue

        gate_plan = cached_gate_plan(inst.name, inst.params)
        qa, qb = (inst.qubits[0], inst.qubits[1]) if inst.num_qubits == 2 else (-1, -1)
        absorb = (
            inst.num_qubits == 2
            and abs(qa - qb) == 1
            and not gate_plan.is_diagonal
            and (qa in pending or qb in pending)
        )
        if absorb:
            run_a = tuple(pending.pop(qa, ()))
            run_b = tuple(pending.pop(qb, ()))
            append_gate(
                StepRecipe(
                    (qa, qb),
                    (_KronFactor(run_a, run_b), _GateFactor(index)),
                    (_AbsorbSegment((qa, qb), run_a, run_b, index),),
                )
            )
            continue

        for qubit in inst.qubits:
            flush(qubit)
        append_gate(
            StepRecipe(
                inst.qubits,
                (_GateFactor(index),),
                (_GateSegment(inst.qubits, index),),
            )
        )
    for qubit in sorted(pending):
        flush(qubit)

    recipes, terminal = _peel_terminal(recipes, circuit)
    template = ParametricTemplate(
        circuit.num_qubits, circuit.num_clbits, recipes, terminal
    )
    hook = _TEMPLATE_HOOK
    if hook is not None:
        hook(template, circuit)
    return template


def _swapped_factor(factor: object) -> object:
    """The factor conjugated by SWAP (reversing its qubit-pair orientation)."""
    if isinstance(factor, _KronFactor):
        # SWAP (A ⊗ B) SWAP = B ⊗ A: swap the runs instead of the matrix.
        return _KronFactor(factor.run_b, factor.run_a)
    return _GateFactor(factor.index, not factor.swapped)


def _peel_terminal(
    steps: List[object], circuit: Circuit
) -> Tuple[List[object], Optional[TerminalSample]]:
    """Peel trailing measurements that can be sampled jointly at the end.

    A measurement whose qubit is never touched afterwards commutes past
    everything behind it.  A measurement whose classical bit is rewritten by
    a *later* kept measurement must not be peeled either — sampling it at
    the end would invert the program's last-write-wins ordering on that
    clbit.  Works on both :class:`GateStep` streams and recipe streams.
    """
    touched: set = set()
    kept_clbits: set = set()
    terminal_positions: List[int] = []
    for position in range(len(steps) - 1, -1, -1):
        step = steps[position]
        if (
            isinstance(step, MeasureStep)
            and step.qubit not in touched
            and step.clbit not in kept_clbits
        ):
            terminal_positions.append(position)
            continue
        if isinstance(step, (GateStep, StepRecipe, CliffordStep, PauliChannelStep)):
            touched.update(step.qubits)
        elif isinstance(step, MeasureStep):
            touched.add(step.qubit)
            kept_clbits.add(step.clbit)
        elif isinstance(step, ResetStep):
            touched.add(step.qubit)
    if terminal_positions:
        terminal_positions.reverse()  # back to instruction order
        pairs = tuple((steps[p].qubit, steps[p].clbit) for p in terminal_positions)
        removed = set(terminal_positions)
        kept = [step for p, step in enumerate(steps) if p not in removed]
        return kept, TerminalSample(pairs)
    if not circuit.has_measurements():
        return steps, TerminalSample(
            tuple((q, q) for q in range(circuit.num_qubits)), implicit=True
        )
    return steps, None


# -- stabilizer compile path ---------------------------------------------------------

#: Clifford lowering table: library gate name -> tuple of primitive
#: ``(name, operand-index-tuple)`` emissions.  Operand indices select into the
#: instruction's qubit tuple, so ``cy`` on ``(c, t)`` lowers to
#: ``sdg(t), cx(c, t), s(t)``.  Gates outside this table (or any gate carrying
#: parameters) are non-Clifford for the tableau engine.
CLIFFORD_GATES: Dict[str, Tuple[Tuple[str, Tuple[int, ...]], ...]] = {
    "id": (),
    "x": (("x", (0,)),),
    "y": (("y", (0,)),),
    "z": (("z", (0,)),),
    "h": (("h", (0,)),),
    "s": (("s", (0,)),),
    "sdg": (("sdg", (0,)),),
    # SX = e^{i pi/4} S† H S† and SX† = e^{-i pi/4} S H S; global phase is
    # unobservable, so the lowering is exact for sampling.
    "sx": (("sdg", (0,)), ("h", (0,)), ("sdg", (0,))),
    "sxdg": (("s", (0,)), ("h", (0,)), ("s", (0,))),
    "cx": (("cx", (0, 1)),),
    "cz": (("cz", (0, 1)),),
    # CY = (I ⊗ S) CX (I ⊗ S†).
    "cy": (("sdg", (1,)), ("cx", (0, 1)), ("s", (1,))),
    # iSWAP = CZ (S ⊗ S) SWAP.
    "iswap": (("swap", (0, 1)), ("s", (0,)), ("s", (1,)), ("cz", (0, 1))),
    "swap": (("swap", (0, 1)),),
}


def is_clifford_circuit(circuit: Circuit) -> bool:
    """Whether every gate of *circuit* lowers onto the stabilizer tableau.

    True exactly when :func:`compile_stabilizer_program` would succeed:
    every effective (barrier-free) instruction is a measure, a reset, or a
    parameter-free gate in :data:`CLIFFORD_GATES`.  Used by the simulator's
    ``trajectory_engine="auto"`` resolution.
    """
    for inst in circuit.instructions:
        if inst.name in ("barrier", "measure", "reset"):
            continue
        if inst.params or inst.name not in CLIFFORD_GATES:
            return False
    return True


def compile_stabilizer_program(
    circuit: Circuit, noise_model: Optional[NoiseModel] = None
) -> StabilizerProgram:
    """Compile *circuit* (and optional noise) into a :class:`StabilizerProgram`.

    Classifies every gate as Clifford or non-Clifford: Cliffords are lowered
    onto the tableau primitive set via :data:`CLIFFORD_GATES`; a parametric
    gate or a name outside the table raises
    :class:`~repro.core.errors.UnsupportedGateError` carrying the offending
    gate name and its effective-instruction index (the hook the backend
    registry's auto-selection and the gate backend's fallback are built on).

    With a noise model, each source gate instruction is followed by one
    :class:`PauliChannelStep` over its qubits at the model's per-gate rate
    (``oneq_error`` / ``twoq_error``) — the Pauli-frame twirled form of the
    exact per-qubit depolarizing channel the trajectory engines apply, so the
    engines sample the same distribution on Clifford circuits.  Readout
    error never enters the program; it is applied at execution time.

    Trailing measurements are peeled into the shared :class:`TerminalSample`
    contract (implicit terminal measurement over every qubit for
    measurement-free circuits), identical to the trajectory compiler.
    Finally the steps run once on a batch-free tableau to record the
    program's ``phases``, so no run or chunk replays the Clifford structure.
    """
    if noise_model is not None and noise_model.is_noiseless:
        noise_model = None
    steps: List[object] = []
    for index, inst in enumerate(_effective_instructions(circuit)):
        if inst.name == "measure":
            steps.append(MeasureStep(inst.qubits[0], inst.clbits[0]))
            continue
        if inst.name == "reset":
            steps.append(ResetStep(inst.qubits[0]))
            continue
        if inst.params:
            raise UnsupportedGateError(
                inst.name, index, "parametric gates are not Clifford"
            )
        lowering = CLIFFORD_GATES.get(inst.name)
        if lowering is None:
            raise UnsupportedGateError(
                inst.name, index, "outside the Clifford lowering table"
            )
        for name, operands in lowering:
            steps.append(CliffordStep(name, tuple(inst.qubits[k] for k in operands)))
        if noise_model is not None:
            rate = (
                noise_model.oneq_error
                if inst.num_qubits == 1
                else noise_model.twoq_error
            )
            if rate > 0.0:
                steps.append(PauliChannelStep(inst.qubits, rate))
    steps, terminal = _peel_terminal(steps, circuit)
    program = StabilizerProgram(circuit.num_qubits, circuit.num_clbits, steps)
    program.terminal = terminal
    program.phases = _phase_program(program)
    hook = _STABILIZER_HOOK
    if hook is not None:
        hook(program, circuit)
    return program


def _read_only(rows: np.ndarray) -> np.ndarray:
    rows.flags.writeable = False
    return rows


def _phase_program(program: StabilizerProgram) -> Tuple[object, ...]:
    """Run *program*'s steps once on a tableau and record its phase program.

    The tableau's signs are the reference ``c`` of the kernel's ``R XOR c``
    split: gates change only them and emit no op.  A random measurement
    collapses the tableau to outcome 0; a reset (``clbit`` -1) also records
    the rows its conditional X flips, read after the collapse.
    """
    tableau = StabilizerTableau(program.num_qubits)
    phases: List[object] = []

    def measure(qubit: int, clbit: int) -> None:
        constant, rows, pivot = tableau.measure(qubit)
        flips = tableau.pauli_rows(qubit)[0] if clbit < 0 else np.empty(0, dtype=np.intp)
        phases.append(
            MeasureFlips(qubit, clbit, _read_only(rows), pivot, constant, _read_only(flips))
        )

    for step in program.steps:
        if isinstance(step, CliffordStep):
            tableau.apply_gate(step.name, step.qubits)
        elif isinstance(step, PauliChannelStep):
            for qubit in step.qubits:
                rows = tuple(map(_read_only, tableau.pauli_rows(qubit)))
                phases.append(PauliFlips(qubit, step.rate, rows))
        else:
            measure(step.qubit, getattr(step, "clbit", -1))
    for qubit, clbit in program.terminal.pairs if program.terminal else ():
        measure(qubit, clbit)
    return tuple(phases)


# -- template + program caches -------------------------------------------------------

#: Default bound on each compile cache (templates and bound programs alike);
#: change it with :func:`set_compile_cache_size`.
DEFAULT_COMPILE_CACHE_SIZE = DEFAULT_CACHE_SIZE

_TEMPLATE_CACHE = BoundedLRU(DEFAULT_COMPILE_CACHE_SIZE)
_PROGRAM_CACHE = BoundedLRU(DEFAULT_COMPILE_CACHE_SIZE)
_STABILIZER_CACHE = BoundedLRU(DEFAULT_COMPILE_CACHE_SIZE)


def _structure_key(circuit: Circuit) -> tuple:
    """Hashable key of the circuit's parameter-independent structure."""
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(
            (inst.name, inst.qubits, inst.clbits)
            for inst in circuit.instructions
            if inst.name != "barrier"
        ),
    )


def _params_key(circuit: Circuit) -> tuple:
    """Hashable tuple of every effective instruction's parameter values."""
    return tuple(
        inst.params for inst in circuit.instructions if inst.name != "barrier"
    )


def _noise_key(noise_model: Optional[NoiseModel]) -> Optional[Tuple[float, float]]:
    """The rates that enter a compiled program (readout error never does)."""
    if noise_model is None or noise_model.is_noiseless:
        return None
    return (noise_model.oneq_error, noise_model.twoq_error)


def structure_key(circuit: Circuit) -> tuple:
    """Public alias of the structure-keyed cache key.

    The serving queue coalesces structurally identical submissions on this
    key (same key ⇒ same fusion template ⇒ the batch shares one compile), so
    it is part of the module's contract, not an implementation detail.
    """
    return _structure_key(circuit)


def compile_parametric_template_cached(circuit: Circuit) -> ParametricTemplate:
    """Structural template of *circuit* through the template LRU cache."""
    structure = _structure_key(circuit)
    template = _TEMPLATE_CACHE.lookup(structure)
    if template is None:
        template = compile_parametric_template(circuit)
        _TEMPLATE_CACHE.store(structure, template)
    return template


def compile_trajectory_program_cached(
    circuit: Circuit, noise_model: Optional[NoiseModel] = None
) -> TrajectoryProgram:
    """Compile *circuit* through the two-level structure-keyed LRU caches.

    Level 1 — the **program cache**: an exact re-run (same structure, same
    parameter values, same effective noise rates) returns the previously bound, immutable :class:`TrajectoryProgram`
    without any numeric work; this is what makes warm noisy QAOA/QEC
    iterations cache-hit end to end.  Level 2 — the **template cache**: a
    structurally identical circuit with *different* parameters skips the
    fusion analysis and only re-binds matrices (and, for noisy models, the
    pushed error events).  Cached and uncached compilations produce
    bit-identical programs for every noise setting, because the uncached
    :func:`compile_trajectory_program` is the same ``template + bind``.
    """
    if noise_model is not None and noise_model.is_noiseless:
        noise_model = None
    structure = _structure_key(circuit)
    program_key = (structure, _params_key(circuit), _noise_key(noise_model))
    program = _PROGRAM_CACHE.lookup(program_key)
    if program is not None:
        return program
    template = compile_parametric_template_cached(circuit)
    program = template.bind(circuit, noise_model)
    _PROGRAM_CACHE.store(program_key, program)
    return program


def compile_stabilizer_program_cached(
    circuit: Circuit, noise_model: Optional[NoiseModel] = None
) -> StabilizerProgram:
    """Compile *circuit* for the tableau engine through a structure-keyed LRU.

    Stabilizer programs carry no parameters (parametric gates are
    non-Clifford by definition), so the cache key is the circuit structure
    plus the effective noise rates — a warm QEC cycle re-run (sweeps over
    seeds, shot counts, distances already compiled) is a dictionary hit.
    Cached and uncached compilations are the same object stream by
    construction; an :class:`~repro.core.errors.UnsupportedGateError` is
    never cached (the compile raises before storing).
    """
    if noise_model is not None and noise_model.is_noiseless:
        noise_model = None
    key = (_structure_key(circuit), _noise_key(noise_model))
    program = _STABILIZER_CACHE.lookup(key)
    if program is not None:
        return program
    program = compile_stabilizer_program(circuit, noise_model)
    _STABILIZER_CACHE.store(key, program)
    return program


def set_compile_cache_size(maxsize: int) -> None:
    """Bound the template, program and stabilizer LRUs (and the transpile cache) at *maxsize*.

    Entries beyond the new bound are evicted oldest-first immediately.  This
    is the one way to bound the compile caches, which are process-global;
    the default is :data:`DEFAULT_COMPILE_CACHE_SIZE`.
    """
    if not isinstance(maxsize, int) or isinstance(maxsize, bool) or maxsize < 1:
        raise ValueError(f"compile cache size must be a positive int, got {maxsize!r}")
    _TEMPLATE_CACHE.set_maxsize(maxsize)
    _PROGRAM_CACHE.set_maxsize(maxsize)
    _STABILIZER_CACHE.set_maxsize(maxsize)
    from .transpiler import cache as transpile_cache  # local: import cycle

    transpile_cache.set_transpile_cache_size(maxsize)


def compile_cache_info() -> Dict[str, Dict[str, int]]:
    """Hit/miss/entry counters of every compile-side cache.

    Returns a mapping with four sections: ``"template"`` (structural fusion
    templates), ``"program"`` (fully bound trajectory programs),
    ``"stabilizer"`` (compiled tableau programs) and ``"transpile"`` (the
    transpiler's structure-keyed routing templates).
    """
    info = {
        "template": _TEMPLATE_CACHE.info(),
        "program": _PROGRAM_CACHE.info(),
        "stabilizer": _STABILIZER_CACHE.info(),
    }
    from .transpiler import cache as transpile_cache  # local: import cycle

    info["transpile"] = transpile_cache.transpile_cache_info()
    return info


def clear_compile_caches() -> None:
    """Empty the template, program, stabilizer and transpile caches."""
    _TEMPLATE_CACHE.clear()
    _PROGRAM_CACHE.clear()
    _STABILIZER_CACHE.clear()
    _pauli_event.cache_clear()
    from .transpiler import cache as transpile_cache  # local: import cycle

    transpile_cache.clear_transpile_cache()


# A replaced gate definition invalidates every compiled artifact built from
# the old matrices; gates.register_gate fires this hook.
from .gates import register_cache_invalidation_hook as _register_invalidation

_register_invalidation(clear_compile_caches)


# -- full compilation ---------------------------------------------------------------


def compile_trajectory_program(
    circuit: Circuit, noise_model: Optional[NoiseModel] = None
) -> TrajectoryProgram:
    """Compile *circuit* (and optional noise) into a :class:`TrajectoryProgram`.

    Parameters
    ----------
    circuit:
        The circuit to compile.  Barriers are dropped; measure and reset
        instructions become :class:`MeasureStep` / :class:`ResetStep` (pure
        unitary callers such as ``Statevector.evolve`` validate their input
        first and get a program of :class:`GateStep` only).
    noise_model:
        Optional :class:`~repro.simulators.gate.noise.NoiseModel`.  With
        nonzero rates, every gate step carries the per-shot error events of
        the per-gate depolarizing channel, conjugated through fused blocks so
        fusion never changes the sampled distribution.  Default ``None``
        (also the effective value for a noiseless model).

    Returns
    -------
    TrajectoryProgram
        Immutable program data: the fused step list plus an optional
        :class:`TerminalSample` describing the jointly-sampled trailing
        measurements (implicit over all qubits for measurement-free
        circuits).  Safe to execute from multiple threads.

    Notes
    -----
    Every path — noiseless *and* noisy — is implemented as
    ``compile_parametric_template(circuit).bind(circuit, noise_model)``, so
    this function and the LRU-backed
    :func:`compile_trajectory_program_cached` produce identical programs by
    construction; the noisy bind replays the recorded noise segments into
    the same conjugated event streams the one-shot compiler used to build
    inline.
    """
    return compile_parametric_template(circuit).bind(circuit, noise_model)
