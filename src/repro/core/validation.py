"""Cross-descriptor validation: the middle layer's "catch mismatches early".

Schema validation (per document) lives next to the schemas; this module
implements the *semantic* checks the paper assigns to the algorithmic
libraries (Section 4.4): quantum data type compatibility, non-interference
rules (no hidden measurement/reset), context/operator consistency, and the
width/index checks that make results decodable.

Two styles are offered:

* ``check_*`` functions raise on the first problem — for library code.
* :func:`verify` returns a :class:`ValidationReport` collecting every issue —
  for tooling and tests that want the full picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from .context import ContextDescriptor
from .errors import CompatibilityError, ContextError, DescriptorError
from .qdt import EncodingKind, QuantumDataType
from .qod import OperatorSequence, QuantumOperatorDescriptor

__all__ = [
    "ValidationIssue",
    "ValidationReport",
    "check_registers",
    "check_operator",
    "check_sequence",
    "check_context",
    "verify",
]


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found during verification."""

    severity: str  # "error" | "warning"
    location: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return f"[{self.severity}] {self.location}: {self.message}"


@dataclass
class ValidationReport:
    """Aggregated result of :func:`verify`."""

    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def errors(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no errors were found (warnings are allowed)."""
        return not self.errors

    def add_error(self, location: str, message: str) -> None:
        self.issues.append(ValidationIssue("error", location, message))

    def add_warning(self, location: str, message: str) -> None:
        self.issues.append(ValidationIssue("warning", location, message))

    def raise_if_failed(self) -> None:
        """Raise :class:`CompatibilityError` summarising all errors."""
        if not self.ok:
            summary = "; ".join(str(issue) for issue in self.errors)
            raise CompatibilityError(f"bundle validation failed: {summary}")


# -- raising checks -----------------------------------------------------------

def check_registers(qdts: Mapping[str, QuantumDataType]) -> None:
    """Check the register table itself: unique ids matching their keys."""
    for key, qdt in qdts.items():
        if key != qdt.id:
            raise DescriptorError(f"register table key {key!r} != descriptor id {qdt.id!r}")
        qdt.validate()


def check_operator(
    op: QuantumOperatorDescriptor, qdts: Mapping[str, QuantumDataType]
) -> None:
    """Check a single operator against the declared registers."""
    op.validate(qdts)
    # Width-sensitive parameter checks for the standard optimisation kinds.
    if op.rep_kind in ("ISING_COST_PHASE", "ISING_PROBLEM", "ISING_EVOLUTION"):
        width = qdts[op.primary_register].width
        edges = op.params.get("edges") or []
        for edge in edges:
            i, j = int(edge[0]), int(edge[1])
            if not (0 <= i < width and 0 <= j < width) or i == j:
                raise CompatibilityError(
                    f"operator {op.name!r}: edge ({i}, {j}) invalid for width-{width} register"
                )
        h = op.params.get("h")
        if h is not None and len(h) != width:
            raise CompatibilityError(
                f"operator {op.name!r}: |h| = {len(h)} does not match register width {width}"
            )
        J = op.params.get("J")
        if isinstance(J, Sequence) and not isinstance(J, Mapping):
            if len(J) != width or any(len(row) != width for row in J):
                raise CompatibilityError(
                    f"operator {op.name!r}: J must be a {width}x{width} matrix"
                )
    if op.rep_kind == "PREP_BASIS_STATE":
        qdt = qdts[op.primary_register]
        value = op.params.get("value")
        try:
            qdt.encode_value(value)
        except DescriptorError as exc:
            raise CompatibilityError(
                f"operator {op.name!r}: value {value!r} not encodable in register "
                f"{qdt.id!r}: {exc}"
            ) from exc
    if op.rep_kind == "MIXER_RX" or op.rep_kind == "ISING_COST_PHASE":
        for key in ("beta", "gamma"):
            if key in op.params and not isinstance(op.params[key], (int, float)):
                raise CompatibilityError(
                    f"operator {op.name!r}: parameter {key!r} must be numeric "
                    "(late binding must be resolved before validation)"
                )


def check_sequence(
    operators: Iterable[QuantumOperatorDescriptor],
    qdts: Mapping[str, QuantumDataType],
) -> None:
    """Check per-operator compatibility plus sequence-level interference rules."""
    seq = operators if isinstance(operators, OperatorSequence) else OperatorSequence(operators)
    check_registers(qdts)
    for op in seq:
        check_operator(op, qdts)
    seq.check_non_interference()


def check_context(
    context: Optional[ContextDescriptor],
    operators: Iterable[QuantumOperatorDescriptor],
    qdts: Mapping[str, QuantumDataType],
) -> None:
    """Check that the execution context can, in principle, serve the operators.

    The context stays orthogonal to semantics, but obvious mismatches are
    caught here: an annealing engine asked to run gate templates, a coupling
    map smaller than the widest register, QEC requested for an annealer.
    """
    if context is None:
        return
    context.validate()
    ops = list(operators)
    kinds = {op.rep_kind for op in ops}
    family = context.exec.engine_family
    problem_kinds = {"ISING_PROBLEM", "QUBO_PROBLEM"}
    if family == "anneal":
        non_problem = kinds - problem_kinds - {"MEASUREMENT", "BARRIER", "IDENTITY"}
        if non_problem:
            raise ContextError(
                f"annealing engine {context.engine!r} cannot realise gate templates "
                f"{sorted(non_problem)}"
            )
        if context.uses_qec:
            raise ContextError("QEC context is not applicable to annealing engines")
    if family == "gate":
        target = context.exec.target
        if target is not None and target.coupling_map is not None:
            needed = sum(q.width for q in qdts.values())
            available = (target.max_qubit() or -1) + 1
            if target.num_qubits is not None:
                available = max(available, target.num_qubits)
            if available < needed:
                raise ContextError(
                    f"target provides {available} qubits but the declared registers "
                    f"need {needed}"
                )


# -- aggregating verification ---------------------------------------------------

def verify(
    qdts: Mapping[str, QuantumDataType],
    operators: Iterable[QuantumOperatorDescriptor],
    context: Optional[ContextDescriptor] = None,
) -> ValidationReport:
    """Run every check, collecting issues instead of raising.

    Returns a :class:`ValidationReport`; call ``report.raise_if_failed()`` to
    convert it back into an exception.
    """
    report = ValidationReport()
    ops = list(operators)

    try:
        check_registers(qdts)
    except Exception as exc:  # noqa: BLE001 - collected into the report
        report.add_error("registers", str(exc))
        return report

    for index, op in enumerate(ops):
        try:
            check_operator(op, qdts)
        except Exception as exc:  # noqa: BLE001
            report.add_error(f"operators[{index}] ({op.name})", str(exc))

    try:
        OperatorSequence(ops).check_non_interference()
    except Exception as exc:  # noqa: BLE001
        report.add_error("sequence", str(exc))

    try:
        check_context(context, ops, qdts)
    except Exception as exc:  # noqa: BLE001
        report.add_error("context", str(exc))

    # Non-fatal advisory checks.
    if not any(op.is_measurement for op in ops) and not any(
        op.rep_kind in ("ISING_PROBLEM", "QUBO_PROBLEM") for op in ops
    ):
        report.add_warning(
            "sequence", "no measurement or problem descriptor present; results will be empty"
        )
    for index, op in enumerate(ops):
        if op.cost_hint is None and op.rep_kind not in ("MEASUREMENT", "BARRIER", "IDENTITY"):
            report.add_warning(
                f"operators[{index}] ({op.name})",
                "no cost_hint attached; schedulers cannot plan this operator",
            )
    spin_registers = [
        q.id for q in qdts.values() if q.encoding_kind is EncodingKind.ISING_SPIN
    ]
    if context is not None and context.exec.engine_family == "anneal" and not spin_registers:
        report.add_warning(
            "context",
            "annealing engine selected but no ISING_SPIN register is declared",
        )
    return report
