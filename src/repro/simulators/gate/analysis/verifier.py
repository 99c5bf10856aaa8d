"""Static verifier for the compiled trajectory IR (rules ``IR001``-``IR011``).

The fusion compiler's output — :class:`~repro.simulators.gate.fusion.ParametricTemplate`
(structural phase) and :class:`~repro.simulators.gate.fusion.TrajectoryProgram`
(bound phase) — is plain immutable data with a contract the engines rely on
but nothing previously checked.  This module makes that contract machine
checkable:

* ``IR001`` — qubit/clbit indices in bounds and (for gate operands) distinct;
* ``IR002`` — operator shapes, dtypes and :class:`MatrixPlan` consistent with
  the step (``2^m x 2^m`` ``complex128`` matrix, plan equal to
  ``build_plan(matrix)``);
* ``IR003`` — fused step matrices unitary within dtype tolerance;
* ``IR004`` — noise-event operator stacks complete and CPTP
  (three unitary Kraus branches,
  ``(1-r) I + (r/3) sum K_k^\\dagger K_k = I``);
* ``IR005`` — event rates are finite probabilities in ``[0, 1]``;
* ``IR006`` — terminal-sample contract (implicit sampling covers every qubit
  in order, pairs in bounds);
* ``IR007`` — result metadata contract (``implicit_measurement``,
  documented ``statevector_kind``, ``compiled_steps`` for trajectory runs);
* ``IR008`` — cache-key soundness: a template's structural decisions must be
  invariant under parameter substitution, verified by recompiling the source
  circuit with symbolically perturbed parameters and comparing recipes;
* ``IR009`` — stabilizer-program well-formedness: every Clifford step names a
  tableau primitive with the right operand count, Pauli-channel rates are
  probabilities, and measure/reset/terminal operands are in bounds;
* ``IR010`` — tableau symplectic invariant: executing the program's Clifford
  steps on a probe tableau preserves the binary symplectic commutation
  structure (checked after every step at verifier widths, once at the end
  for very wide programs);
* ``IR011`` — stabilizer phase program and outcome map well-formed: row
  indices in ``[0, 2n)``, deterministic reads and random-measurement pivots
  in the stabilizer half, pivots not among their targets, constant bits 0 or
  1, one op group per noise qubit, measurement, reset and terminal pair, in
  source order; and the affine map's event layout following those ops, its
  output indices in ``[0, bits_width)`` and its constant row bits.

Failures are :class:`~.diagnostics.IRDiagnostic` values with step provenance,
never bare asserts; see :mod:`~.diagnostics`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

import numpy as np

from ..circuit import Circuit, Instruction
from ..fusion import (
    CliffordStep,
    GateStep,
    MeasureStep,
    NoiseEvent,
    ParametricTemplate,
    PauliChannelStep,
    ResetStep,
    StabilizerProgram,
    StepRecipe,
    TerminalSample,
    TrajectoryProgram,
    compile_parametric_template,
)
from ..kernels import build_plan
from ..stabilizer import PRIMITIVE_GATES, MeasureFlips, PauliFlips, StabilizerTableau
from .diagnostics import VerificationReport

__all__ = [
    "IR_RULES",
    "verify_program",
    "verify_stabilizer_program",
    "verify_template",
    "verify_result",
    "verify_result_metadata",
    "verification_active",
]

#: Rule catalog: id -> one-line description (rendered in ``docs/static_analysis.md``).
IR_RULES = {
    "IR001": "qubit/clbit indices in bounds and gate operands distinct",
    "IR002": "operator shape, dtype and MatrixPlan consistent with the step",
    "IR003": "fused step matrix unitary within dtype tolerance",
    "IR004": "noise-event operator stack complete and CPTP after pushing",
    "IR005": "noise-event rates are finite probabilities in [0, 1]",
    "IR006": "terminal-sample contract (implicit covers all qubits in order)",
    "IR007": "result metadata contract (implicit_measurement / statevector_kind / compiled_steps)",
    "IR008": "structural cache key invariant under parameter substitution",
    "IR009": "stabilizer program well-formed (primitives, operands, Pauli-channel rates)",
    "IR010": "tableau symplectic invariant preserved by the compiled Clifford steps",
    "IR011": "stabilizer phase program and outcome map well-formed (rows, pivots, layout)",
}

#: Operand count of every tableau primitive (the IR009 arity table).
_PRIMITIVE_ARITY = {
    name: (2 if name in ("cx", "cz", "swap") else 1) for name in PRIMITIVE_GATES
}

#: Width bound for the IR010 per-step symplectic probe.  The Gram-matrix
#: check is O(n^3); beyond this width the probe checks once after the full
#: Clifford stream instead of after every step.
_SYMPLECTIC_STEPWISE_QUBITS = 24

#: ``statevector_kind`` values documented by ``StatevectorSimulator.run``.
STATEVECTOR_KINDS = ("pre_measurement", "final_trajectory", "none")

# Fused matrices are complex128 products of at most a few dozen 2x2/4x4
# unitaries; their unitarity residual is ~1e-13.  1e-9 leaves three orders
# of headroom without masking a genuinely wrong matrix.
_UNITARY_TOL = 1e-9
_CPTP_TOL = 1e-9

# Angle offset used by the IR008 symbolic rebind.  Irrational, so a perturbed
# parameter can only land on a structure-changing special angle (diagonality
# flip of a 2q rotation) if the original was deliberately degenerate.
_PERTURBATION = 0.6180339887498949

_GUARD = threading.local()


def verification_active() -> bool:
    """Whether a verification pass is running on this thread.

    The verify-each hooks consult this to break recursion: rule ``IR008``
    recompiles a perturbed circuit through
    :func:`~repro.simulators.gate.fusion.compile_parametric_template`, which
    would otherwise re-enter the template hook forever.
    """
    return bool(getattr(_GUARD, "active", False))


class _guarded:
    """Context manager marking this thread as inside a verification pass."""

    def __enter__(self):
        self._previous = verification_active()
        _GUARD.active = True
        return self

    def __exit__(self, *exc_info):
        _GUARD.active = self._previous
        return False


def _check_qubits(
    report: VerificationReport,
    qubits: Iterable[int],
    num_qubits: int,
    location: str,
) -> bool:
    """IR001 on a gate-operand tuple: bounds and distinctness."""
    qubits = tuple(qubits)
    ok = True
    for qubit in qubits:
        if not 0 <= int(qubit) < num_qubits:
            report.add(
                "IR001",
                location,
                f"qubit {qubit} out of range for {num_qubits} qubits",
            )
            ok = False
    if len(set(qubits)) != len(qubits):
        report.add("IR001", location, f"duplicate qubits in {qubits}")
        ok = False
    return ok


def _check_matrix(
    report: VerificationReport,
    matrix: np.ndarray,
    plan,
    num_operands: int,
    location: str,
    *,
    unitary_rule: str = "IR003",
) -> None:
    """IR002 (shape/dtype/plan) and IR003/IR004 (unitarity) on one operator."""
    dim = 2 ** num_operands
    if not isinstance(matrix, np.ndarray) or matrix.shape != (dim, dim):
        shape = getattr(matrix, "shape", None)
        report.add(
            "IR002",
            location,
            f"expected a ({dim}, {dim}) matrix for {num_operands} operand(s), "
            f"got shape {shape}",
        )
        return
    if matrix.dtype != np.complex128:
        report.add(
            "IR002",
            location,
            f"step operators must stay complex128 (engines cast at apply "
            f"time), got {matrix.dtype}",
        )
    if plan.dim != dim:
        report.add(
            "IR002",
            location,
            f"plan dimension {plan.dim} does not match matrix dimension {dim}",
        )
    elif build_plan(matrix) != plan:
        report.add(
            "IR002",
            location,
            "MatrixPlan is stale: it does not equal build_plan(matrix)",
        )
    residual = float(
        np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
    )
    if not np.isfinite(residual) or residual > _UNITARY_TOL:
        report.add(
            unitary_rule,
            location,
            f"matrix is not unitary: max |M^H M - I| = {residual:.3e} "
            f"(tolerance {_UNITARY_TOL:.0e})",
        )


def _check_noise_event(
    report: VerificationReport,
    event: NoiseEvent,
    num_qubits: int,
    location: str,
) -> None:
    """IR001/IR002/IR004/IR005 on one depolarizing noise event."""
    rate = event.rate
    if not (np.isfinite(rate) and 0.0 <= rate <= 1.0):
        report.add(
            "IR005",
            location,
            f"event rate {rate!r} is not a probability in [0, 1]",
        )
    if not _check_qubits(report, event.qubits, num_qubits, location):
        return
    dim = 2 ** len(event.qubits)
    if len(event.operators) != 3:
        report.add(
            "IR004",
            location,
            f"depolarizing event needs 3 Kraus branches (x, y, z), got "
            f"{len(event.operators)} — truncated operator stack",
        )
    shapes_ok = True
    for k, (matrix, plan) in enumerate(event.operators):
        branch = f"{location}.operators[{k}]"
        _check_matrix(
            report, matrix, plan, len(event.qubits), branch, unitary_rule="IR004"
        )
        if not (isinstance(matrix, np.ndarray) and matrix.shape == (dim, dim)):
            shapes_ok = False
    # CPTP completeness of the pushed channel: the unstruck branch keeps the
    # state with probability (1 - r) and each conjugated Pauli branch fires
    # with probability r/3, so sum_k p_k K_k^H K_k must be the identity.
    if shapes_ok and len(event.operators) == 3 and 0.0 <= rate <= 1.0:
        total = (1.0 - rate) * np.eye(dim, dtype=np.complex128)
        for matrix, _ in event.operators:
            total = total + (rate / 3.0) * (matrix.conj().T @ matrix)
        residual = float(np.max(np.abs(total - np.eye(dim))))
        if residual > _CPTP_TOL:
            report.add(
                "IR004",
                location,
                f"pushed channel is not CPTP: max |sum p_k K^H K - I| = "
                f"{residual:.3e}",
            )


def _check_terminal(
    report: VerificationReport,
    terminal: Optional[TerminalSample],
    num_qubits: int,
    num_clbits: int,
) -> None:
    """IR001/IR006 on the terminal-sample block (``None`` is always valid)."""
    if terminal is None:
        return
    width = num_qubits if terminal.implicit else num_clbits
    for k, (qubit, clbit) in enumerate(terminal.pairs):
        location = f"terminal.pairs[{k}]"
        if not 0 <= int(qubit) < num_qubits:
            report.add(
                "IR001",
                location,
                f"qubit {qubit} out of range for {num_qubits} qubits",
            )
        if not 0 <= int(clbit) < width:
            report.add(
                "IR001",
                location,
                f"clbit {clbit} out of range for bit width {width}",
            )
    if terminal.implicit:
        expected = tuple((qubit, qubit) for qubit in range(num_qubits))
        if tuple(terminal.pairs) != expected:
            report.add(
                "IR006",
                "terminal",
                f"implicit terminal sample must cover every qubit in order "
                f"({expected}), got {tuple(terminal.pairs)}",
            )


def verify_program(program: TrajectoryProgram) -> VerificationReport:
    """Verify one bound :class:`TrajectoryProgram` against rules IR001-IR006.

    Checks every step's operand bounds, matrix shape/dtype/plan consistency,
    unitarity, noise-event CPTP completeness and rate normalization, plus the
    terminal-sample contract.  Returns a data-first
    :class:`~.diagnostics.VerificationReport`; call ``raise_if_failed()`` to
    escalate.
    """
    report = VerificationReport("program")
    with _guarded():
        num_qubits = program.num_qubits
        width = program.bits_width
        for index, step in enumerate(program.steps):
            location = f"steps[{index}]"
            if isinstance(step, GateStep):
                if _check_qubits(report, step.qubits, num_qubits, location):
                    _check_matrix(
                        report, step.matrix, step.plan, len(step.qubits), location
                    )
                for j, event in enumerate(step.noise):
                    _check_noise_event(
                        report, event, num_qubits, f"{location}.noise[{j}]"
                    )
            elif isinstance(step, MeasureStep):
                if not 0 <= step.qubit < num_qubits:
                    report.add(
                        "IR001",
                        location,
                        f"measured qubit {step.qubit} out of range",
                    )
                if not 0 <= step.clbit < width:
                    report.add(
                        "IR001",
                        location,
                        f"clbit {step.clbit} out of range for bit width {width}",
                    )
            elif isinstance(step, ResetStep):
                if not 0 <= step.qubit < num_qubits:
                    report.add(
                        "IR001", location, f"reset qubit {step.qubit} out of range"
                    )
            else:
                report.add(
                    "IR002",
                    location,
                    f"unknown step kind {type(step).__name__}",
                )
        _check_terminal(report, program.terminal, num_qubits, program.num_clbits)
    return report


def _check_phase_program(report: VerificationReport, program: StabilizerProgram) -> None:
    """IR011 on the phase program the stabilizer kernel executes."""
    if program.phases is None:
        report.add("IR011", "phases", "no phase program: compile with compile_stabilizer_program")
        return
    n = program.num_qubits
    groups = []
    for index, op in enumerate(program.phases):
        location = f"phases[{index}]"
        if not isinstance(op, (PauliFlips, MeasureFlips)):
            report.add("IR011", location, f"unknown phase op {type(op).__name__}")
            continue
        noise = isinstance(op, PauliFlips)
        groups.append(("noise", op.qubit, op.rate) if noise else ("measure", op.qubit, op.clbit))
        rows = np.concatenate(op.rows if noise else (op.rows, op.flips))
        if rows.size and (rows.min() < 0 or rows.max() >= 2 * n):
            report.add("IR011", location, f"row index outside [0, {2 * n})")
        if noise:
            continue
        if op.pivot is None and op.rows.size and op.rows.min() < n:
            report.add("IR011", location, "deterministic measurement reads a destabilizer row")
        if op.pivot is not None and not (n <= op.pivot < 2 * n and op.pivot not in op.rows):
            report.add(
                "IR011",
                location,
                f"pivot {op.pivot} is outside the stabilizer half [{n}, {2 * n}) "
                f"or among its rowsum targets",
            )
        if op.constant not in (0, 1):
            report.add("IR011", location, f"constant bit {op.constant!r} is not 0 or 1")
    expected = []
    for step in program.steps:
        if isinstance(step, PauliChannelStep):
            expected += [("noise", qubit, step.rate) for qubit in step.qubits]
        elif isinstance(step, (MeasureStep, ResetStep)):
            expected.append(("measure", step.qubit, getattr(step, "clbit", -1)))
    if program.terminal is not None:
        expected += [("measure", qubit, clbit) for qubit, clbit in program.terminal.pairs]
    if groups != expected:
        report.add(
            "IR011",
            "phases",
            f"{len(groups)} op groups do not follow the {len(expected)} noise "
            f"qubits, measurements, resets and terminal pairs of the source, in order",
        )
    _check_outcome_map(report, program)


def _check_outcome_map(report: VerificationReport, program: StabilizerProgram) -> None:
    """IR011 on the affine map the stabilizer kernel samples.

    Its event layout must follow the phase program (three events per noise
    op, with that op's rate; one per random-branch measurement; one readout
    flip per clbit-writing measurement unless the terminal is implicit), its
    columns must be well formed with output indices in ``[0, bits_width)``,
    and its constant row must hold ``bits_width`` bits.
    """
    fields = ("noise_rates", "event_offsets", "event_outputs", "outcome_constant")
    if any(getattr(program, name) is None for name in fields):
        report.add("IR011", "outcome map", "no outcome map: compile the program first")
        return
    phases = [op for op in program.phases if isinstance(op, (PauliFlips, MeasureFlips))]
    rates = [op.rate for op in phases if isinstance(op, PauliFlips)]
    measures = [op for op in phases if isinstance(op, MeasureFlips)]
    random = sum(op.pivot is not None for op in measures)
    implicit = program.terminal is not None and program.terminal.implicit
    readout = 0 if implicit else sum(op.clbit >= 0 for op in measures)
    if not np.array_equal(program.noise_rates, rates):
        report.add("IR011", "noise_rates", f"noise rates do not follow the {len(rates)} noise ops")
    if (program.num_random, program.num_readout) != (random, readout):
        report.add(
            "IR011",
            "outcome map",
            f"{program.num_random} random and {program.num_readout} readout events for "
            f"{random} random-branch and {readout} clbit-writing measurements",
        )
    offsets, outputs = program.event_offsets, program.event_outputs
    events = 3 * len(rates) + random + readout
    if offsets.shape != (events + 1,):
        report.add("IR011", "event_offsets", f"{offsets.size - 1} columns for {events} events")
    elif offsets[0] != 0 or offsets[-1] != outputs.size or np.any(np.diff(offsets) < 0):
        report.add("IR011", "event_offsets", "column offsets are not a partition of event_outputs")
    width = program.bits_width
    if outputs.size and (outputs.min() < 0 or outputs.max() >= width):
        report.add("IR011", "event_outputs", f"output index outside [0, {width})")
    constant = program.outcome_constant
    if constant.shape != (width,) or np.any((constant != 0) & (constant != 1)):
        report.add("IR011", "outcome_constant", f"constant row is not {width} bits of 0 or 1")


def verify_stabilizer_program(program: StabilizerProgram) -> VerificationReport:
    """Verify one compiled :class:`StabilizerProgram` (IR001/IR006/IR009-IR011).

    Structural pass (IR009 plus the shared bounds/terminal rules): every
    :class:`~repro.simulators.gate.fusion.CliffordStep` must name a tableau
    primitive with the primitive's operand count and distinct in-bounds
    qubits; every
    :class:`~repro.simulators.gate.fusion.PauliChannelStep` rate must be a
    finite probability in ``[0, 1]`` over in-bounds qubits; measure, reset
    and terminal operands must be in bounds (implicit terminal sampling must
    cover every qubit in order, as for trajectory programs).

    Run only when the structural pass is clean: IR011 checks the phase
    program (row indices in ``[0, 2n)``, deterministic reads and random
    pivots in the stabilizer half ``[n, 2n)``, pivots not among their rowsum
    targets, constant bits 0 or 1, one op group per noise qubit,
    measurement, reset and terminal pair, in source order) and the affine
    map the kernel samples (its event count and rates against that layout,
    output indices in ``[0, bits_width)``, a constant row of
    ``bits_width`` bits).  IR010 executes
    the Clifford steps on a probe
    :class:`~repro.simulators.gate.stabilizer.StabilizerTableau` and checks
    the binary symplectic Gram invariant after every step (once at the end
    beyond ``24`` qubits, where the per-step cubic check would dominate),
    so a wrong tableau update rule cannot pass.  Pauli channels,
    measurements and resets never change the bit structure's symplectic
    property, so the gate stream alone decides the invariant.
    """
    report = VerificationReport("stabilizer program")
    with _guarded():
        num_qubits = program.num_qubits
        width = program.bits_width
        for index, step in enumerate(program.steps):
            location = f"steps[{index}]"
            if isinstance(step, CliffordStep):
                arity = _PRIMITIVE_ARITY.get(step.name)
                if arity is None:
                    report.add(
                        "IR009",
                        location,
                        f"{step.name!r} is not a tableau primitive "
                        f"{tuple(sorted(_PRIMITIVE_ARITY))}",
                    )
                    continue
                if len(step.qubits) != arity:
                    report.add(
                        "IR009",
                        location,
                        f"primitive {step.name!r} takes {arity} operand(s), "
                        f"got {step.qubits}",
                    )
                    continue
                _check_qubits(report, step.qubits, num_qubits, location)
            elif isinstance(step, PauliChannelStep):
                rate = step.rate
                if not (np.isfinite(rate) and 0.0 <= rate <= 1.0):
                    report.add(
                        "IR009",
                        location,
                        f"Pauli-channel rate {rate!r} is not a probability in [0, 1]",
                    )
                _check_qubits(report, step.qubits, num_qubits, location)
            elif isinstance(step, MeasureStep):
                if not 0 <= step.qubit < num_qubits:
                    report.add(
                        "IR001", location, f"measured qubit {step.qubit} out of range"
                    )
                if not 0 <= step.clbit < width:
                    report.add(
                        "IR001",
                        location,
                        f"clbit {step.clbit} out of range for bit width {width}",
                    )
            elif isinstance(step, ResetStep):
                if not 0 <= step.qubit < num_qubits:
                    report.add(
                        "IR001", location, f"reset qubit {step.qubit} out of range"
                    )
            else:
                report.add(
                    "IR009",
                    location,
                    f"unknown stabilizer step kind {type(step).__name__}",
                )
        _check_terminal(report, program.terminal, num_qubits, program.num_clbits)
        if report.ok:
            stepwise = num_qubits <= _SYMPLECTIC_STEPWISE_QUBITS
            probe = StabilizerTableau(num_qubits)
            checked_any = False
            for index, step in enumerate(program.steps):
                if not isinstance(step, CliffordStep):
                    continue
                probe.apply_gate(step.name, step.qubits)
                checked_any = True
                if stepwise and not probe.is_symplectic():
                    report.add(
                        "IR010",
                        f"steps[{index}]",
                        f"tableau lost the symplectic invariant after "
                        f"{step.name!r} on {step.qubits}",
                    )
                    break
            if report.ok and checked_any and not stepwise:
                if not probe.is_symplectic():
                    report.add(
                        "IR010",
                        "steps",
                        "tableau lost the symplectic invariant over the "
                        "Clifford stream",
                    )
            _check_phase_program(report, program)
    return report


def _perturb_parameters(circuit: Circuit) -> Circuit:
    """The IR008 probe: *circuit* with every gate parameter shifted.

    Adds an irrational offset to every parameter, preserving structure
    (names, qubits, clbits) exactly.  A sound structural cache key must
    compile this probe to identical recipes.
    """
    probe = Circuit(circuit.num_qubits, circuit.num_clbits, name=circuit.name)
    probe.metadata = dict(circuit.metadata)
    probe.instructions = [
        Instruction(
            inst.name,
            inst.qubits,
            tuple(float(value) + _PERTURBATION for value in inst.params),
            inst.clbits,
            inst.label,
        )
        for inst in circuit.instructions
    ]
    return probe


def _recipe_equal(left: object, right: object) -> bool:
    """Structural equality of two template entries (frozen dataclasses)."""
    return type(left) is type(right) and left == right


def verify_template(
    template: ParametricTemplate, circuit: Optional[Circuit] = None
) -> VerificationReport:
    """Verify one structural :class:`ParametricTemplate` (IR001/IR002/IR006/IR008).

    Checks recipe operand bounds and factor-index sanity, the terminal
    contract, and — when the source *circuit* is supplied — rule ``IR008``:
    the template is recompiled from a parameter-perturbed copy of the circuit
    and must produce identical recipes, proving the structure-keyed compile
    caches cannot serve this shape a stale plan for other parameter values.
    """
    report = VerificationReport("template")
    with _guarded():
        num_qubits = template.num_qubits
        num_effective = None
        if circuit is not None:
            num_effective = sum(
                1 for inst in circuit.instructions if inst.name != "barrier"
            )
        for index, recipe in enumerate(template.recipes):
            location = f"recipes[{index}]"
            if isinstance(recipe, StepRecipe):
                _check_qubits(report, recipe.qubits, num_qubits, location)
                for f, factor in enumerate(recipe.factors):
                    indices = []
                    if hasattr(factor, "index"):
                        indices.append(int(factor.index))
                    indices.extend(int(k) for k in getattr(factor, "run_a", ()))
                    indices.extend(int(k) for k in getattr(factor, "run_b", ()))
                    for k in indices:
                        if k < 0 or (num_effective is not None and k >= num_effective):
                            report.add(
                                "IR002",
                                f"{location}.factors[{f}]",
                                f"factor references effective instruction {k} "
                                f"outside the source circuit",
                            )
            elif isinstance(recipe, MeasureStep):
                if not 0 <= recipe.qubit < num_qubits:
                    report.add(
                        "IR001",
                        location,
                        f"measured qubit {recipe.qubit} out of range",
                    )
            elif isinstance(recipe, ResetStep):
                if not 0 <= recipe.qubit < num_qubits:
                    report.add(
                        "IR001", location, f"reset qubit {recipe.qubit} out of range"
                    )
            else:
                report.add(
                    "IR002",
                    location,
                    f"unknown recipe kind {type(recipe).__name__}",
                )
        _check_terminal(report, template.terminal, num_qubits, template.num_clbits)
        if circuit is not None:
            probe = compile_parametric_template(_perturb_parameters(circuit))
            if len(probe.recipes) != len(template.recipes):
                report.add(
                    "IR008",
                    "recipes",
                    f"structural key is parameter-dependent: perturbed "
                    f"parameters produce {len(probe.recipes)} recipes instead "
                    f"of {len(template.recipes)}",
                )
            else:
                for index, (ours, theirs) in enumerate(
                    zip(template.recipes, probe.recipes)
                ):
                    if not _recipe_equal(ours, theirs):
                        report.add(
                            "IR008",
                            f"recipes[{index}]",
                            "structural key is parameter-dependent: perturbed "
                            "parameters change this recipe (a degenerate angle "
                            "flipped a fusion decision)",
                        )
                        break
            if probe.terminal != template.terminal:
                report.add(
                    "IR008",
                    "terminal",
                    "structural key is parameter-dependent: perturbed "
                    "parameters change the terminal sample",
                )
    return report


def verify_result_metadata(
    metadata, *, shots: Optional[int] = None
) -> VerificationReport:
    """Verify the contractual metadata of one simulation result (IR007).

    Checks the keys every engine must stamp: a boolean
    ``implicit_measurement``, a ``statevector_kind`` drawn from the
    documented set, and — for trajectory/density runs that executed shots —
    the ``compiled_steps`` provenance counter.
    """
    report = VerificationReport("result metadata")
    if not isinstance(metadata, dict):
        report.add("IR007", "metadata", f"metadata is {type(metadata).__name__}, not a dict")
        return report
    if not isinstance(metadata.get("implicit_measurement"), bool):
        report.add(
            "IR007",
            "metadata.implicit_measurement",
            "contractual key missing or not a bool",
        )
    kind = metadata.get("statevector_kind")
    if kind not in STATEVECTOR_KINDS:
        report.add(
            "IR007",
            "metadata.statevector_kind",
            f"{kind!r} is not one of the documented kinds {STATEVECTOR_KINDS}",
        )
    method = metadata.get("method")
    if method not in ("exact", "trajectories", "density"):
        report.add(
            "IR007",
            "metadata.method",
            f"{method!r} is not a documented execution method",
        )
    ran_shots = shots is None or shots > 0
    if method in ("trajectories", "density") and ran_shots:
        if not isinstance(metadata.get("compiled_steps"), int):
            report.add(
                "IR007",
                "metadata.compiled_steps",
                "trajectory/density runs must record the compiled step count",
            )
    return report


def verify_result(result) -> VerificationReport:
    """Verify a :class:`SimulationResult`'s contractual metadata (IR007)."""
    return verify_result_metadata(
        result.metadata, shots=getattr(result, "shots", None)
    )
