"""A minimal gate-level circuit intermediate representation.

:class:`Circuit` is the substrate-side IR that backends lower operator
descriptors into and that the transpiler and simulators consume.  It is a
flat list of :class:`Instruction` records over ``num_qubits`` qubits and
``num_clbits`` classical bits, with helpers for the structural properties the
middle layer cares about (depth, two-qubit count, measurement placement).

It deliberately mirrors the shape of Qiskit's ``QuantumCircuit`` closely
enough that the paper's Listing 1 translates line by line, while staying a
few hundred lines of NumPy-friendly Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...core.errors import SimulationError
from .gates import get_gate, has_gate, inverse_gate

__all__ = ["Instruction", "Circuit"]

_NON_GATE_OPS = ("measure", "reset", "barrier")
_EMPTY: tuple = ()  # the default of ``append``'s params and clbits: nothing to convert


@dataclass(frozen=True)
class Instruction:
    """One operation in a circuit."""

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    clbits: Tuple[int, ...] = ()
    label: Optional[str] = None

    @property
    def is_gate(self) -> bool:
        """True for unitary gates (not measure/reset/barrier)."""
        return self.name not in _NON_GATE_OPS

    @property
    def num_qubits(self) -> int:
        """Number of qubits the instruction acts on."""
        return len(self.qubits)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dict form (empty fields omitted)."""
        doc: Dict[str, Any] = {"name": self.name, "qubits": list(self.qubits)}
        if self.params:
            doc["params"] = [float(p) for p in self.params]
        if self.clbits:
            doc["clbits"] = list(self.clbits)
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Instruction":
        """Rebuild an :class:`Instruction` from its :meth:`to_dict` form."""
        return cls(
            name=doc["name"],
            qubits=tuple(doc["qubits"]),
            params=tuple(doc.get("params", ())),
            clbits=tuple(doc.get("clbits", ())),
            label=doc.get("label"),
        )


class Circuit:
    """A sequence of gate/measure/reset/barrier instructions."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, *, name: str = "circuit"):
        if num_qubits < 1:
            raise SimulationError("a circuit needs at least one qubit")
        if num_clbits < 0:
            raise SimulationError("num_clbits cannot be negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.name = name
        self.instructions: List[Instruction] = []
        self.metadata: Dict[str, Any] = {}

    # -- generic appends -----------------------------------------------------------
    def append(
        self,
        name: str,
        qubits: Sequence[int],
        params: Sequence[float] = _EMPTY,
        clbits: Sequence[int] = _EMPTY,
        label: Optional[str] = None,
    ) -> "Circuit":
        """Append an instruction by name, validating arity against the library."""
        qs = tuple(map(int, qubits))
        if len(qs) > 1 and len(set(qs)) != len(qs):
            raise SimulationError(f"duplicate qubits in {qs}")
        for q in qs:
            if not 0 <= q < self.num_qubits:
                raise SimulationError(
                    f"qubit {q} out of range for a {self.num_qubits}-qubit circuit"
                )
        cs = _EMPTY if clbits is _EMPTY else tuple(map(int, clbits))
        for c in cs:
            if not 0 <= c < self.num_clbits:
                raise SimulationError(
                    f"clbit {c} out of range for a circuit with {self.num_clbits} clbits"
                )
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
        self.instructions.append(Instruction(
            name, qs, _EMPTY if params is _EMPTY else tuple(map(float, params)), cs, label
        ))
        return self

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, ops={len(self.instructions)})"
        )

    # -- named gate helpers ---------------------------------------------------------
    def id(self, q: int) -> "Circuit":
        """Append a ``id`` (identity) gate; returns ``self`` for chaining."""
        return self.append("id", [q])

    def x(self, q: int) -> "Circuit":
        """Append a ``x`` (Pauli-X) gate; returns ``self`` for chaining."""
        return self.append("x", [q])

    def y(self, q: int) -> "Circuit":
        """Append a ``y`` (Pauli-Y) gate; returns ``self`` for chaining."""
        return self.append("y", [q])

    def z(self, q: int) -> "Circuit":
        """Append a ``z`` (Pauli-Z) gate; returns ``self`` for chaining."""
        return self.append("z", [q])

    def h(self, q: int) -> "Circuit":
        """Append a ``h`` (Hadamard) gate; returns ``self`` for chaining."""
        return self.append("h", [q])

    def s(self, q: int) -> "Circuit":
        """Append a ``s`` (S (sqrt-Z)) gate; returns ``self`` for chaining."""
        return self.append("s", [q])

    def sdg(self, q: int) -> "Circuit":
        """Append a ``sdg`` (S-dagger) gate; returns ``self`` for chaining."""
        return self.append("sdg", [q])

    def t(self, q: int) -> "Circuit":
        """Append a ``t`` (T) gate; returns ``self`` for chaining."""
        return self.append("t", [q])

    def tdg(self, q: int) -> "Circuit":
        """Append a ``tdg`` (T-dagger) gate; returns ``self`` for chaining."""
        return self.append("tdg", [q])

    def sx(self, q: int) -> "Circuit":
        """Append a ``sx`` (sqrt-X) gate; returns ``self`` for chaining."""
        return self.append("sx", [q])

    def sxdg(self, q: int) -> "Circuit":
        """Append a ``sxdg`` (sqrt-X-dagger) gate; returns ``self`` for chaining."""
        return self.append("sxdg", [q])

    def rx(self, theta: float, q: int) -> "Circuit":
        """Append a ``rx`` (X-rotation) gate; returns ``self`` for chaining."""
        return self.append("rx", [q], [theta])

    def ry(self, theta: float, q: int) -> "Circuit":
        """Append a ``ry`` (Y-rotation) gate; returns ``self`` for chaining."""
        return self.append("ry", [q], [theta])

    def rz(self, theta: float, q: int) -> "Circuit":
        """Append a ``rz`` (Z-rotation) gate; returns ``self`` for chaining."""
        return self.append("rz", [q], [theta])

    def p(self, theta: float, q: int) -> "Circuit":
        """Append a ``p`` (phase) gate; returns ``self`` for chaining."""
        return self.append("p", [q], [theta])

    def u(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        """Append a ``u`` (generic single-qubit U(theta, phi, lam)) gate; returns ``self`` for chaining."""
        return self.append("u", [q], [theta, phi, lam])

    def cx(self, control: int, target: int) -> "Circuit":
        """Append a ``cx`` (CNOT) gate; returns ``self`` for chaining."""
        return self.append("cx", [control, target])

    def cy(self, control: int, target: int) -> "Circuit":
        """Append a ``cy`` (controlled-Y) gate; returns ``self`` for chaining."""
        return self.append("cy", [control, target])

    def cz(self, control: int, target: int) -> "Circuit":
        """Append a ``cz`` (controlled-Z) gate; returns ``self`` for chaining."""
        return self.append("cz", [control, target])

    def ch(self, control: int, target: int) -> "Circuit":
        """Append a ``ch`` (controlled-Hadamard) gate; returns ``self`` for chaining."""
        return self.append("ch", [control, target])

    def cp(self, theta: float, control: int, target: int) -> "Circuit":
        """Append a ``cp`` (controlled-phase) gate; returns ``self`` for chaining."""
        return self.append("cp", [control, target], [theta])

    def crx(self, theta: float, control: int, target: int) -> "Circuit":
        """Append a ``crx`` (controlled X-rotation) gate; returns ``self`` for chaining."""
        return self.append("crx", [control, target], [theta])

    def cry(self, theta: float, control: int, target: int) -> "Circuit":
        """Append a ``cry`` (controlled Y-rotation) gate; returns ``self`` for chaining."""
        return self.append("cry", [control, target], [theta])

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        """Append a ``crz`` (controlled Z-rotation) gate; returns ``self`` for chaining."""
        return self.append("crz", [control, target], [theta])

    def swap(self, a: int, b: int) -> "Circuit":
        """Append a ``swap`` (SWAP) gate; returns ``self`` for chaining."""
        return self.append("swap", [a, b])

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        """Append a ``rzz`` (ZZ-interaction) gate; returns ``self`` for chaining."""
        return self.append("rzz", [a, b], [theta])

    def rxx(self, theta: float, a: int, b: int) -> "Circuit":
        """Append a ``rxx`` (XX-interaction) gate; returns ``self`` for chaining."""
        return self.append("rxx", [a, b], [theta])

    def ryy(self, theta: float, a: int, b: int) -> "Circuit":
        """Append a ``ryy`` (YY-interaction) gate; returns ``self`` for chaining."""
        return self.append("ryy", [a, b], [theta])

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        """Append a ``ccx`` (Toffoli) gate; returns ``self`` for chaining."""
        return self.append("ccx", [c1, c2, target])

    def ccz(self, c1: int, c2: int, target: int) -> "Circuit":
        """Append a ``ccz`` (doubly-controlled-Z) gate; returns ``self`` for chaining."""
        return self.append("ccz", [c1, c2, target])

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        """Append a ``cswap`` (Fredkin (controlled-SWAP)) gate; returns ``self`` for chaining."""
        return self.append("cswap", [control, a, b])

    # -- non-unitary operations -------------------------------------------------------
    def measure(self, qubit: int, clbit: int) -> "Circuit":
        """Measure *qubit* in the Z basis, storing the outcome in *clbit*."""
        return self.append("measure", [qubit], clbits=[clbit])

    def measure_all(self, qubits: Optional[Sequence[int]] = None) -> "Circuit":
        """Measure the given qubits (default: all) into matching clbits."""
        qubits = list(range(self.num_qubits)) if qubits is None else list(qubits)
        if self.num_clbits < len(qubits):
            raise SimulationError(
                f"measure_all needs {len(qubits)} clbits, circuit has {self.num_clbits}"
            )
        for i, q in enumerate(qubits):
            self.measure(q, i)
        return self

    def reset(self, qubit: int) -> "Circuit":
        """Reset *qubit* to |0>."""
        return self.append("reset", [qubit])

    def barrier(self, *qubits: int) -> "Circuit":
        """Insert a scheduling barrier (all qubits when none given)."""
        qs = list(qubits) if qubits else list(range(self.num_qubits))
        return self.append("barrier", qs)

    # -- structural queries ---------------------------------------------------------------
    def count_ops(self) -> Dict[str, int]:
        """Histogram of instruction names."""
        counts: Dict[str, int] = {}
        for inst in self.instructions:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return counts

    def num_gates(self) -> int:
        """Number of unitary gate instructions."""
        return sum(1 for inst in self.instructions if inst.is_gate and inst.name != "barrier")

    def num_twoq_gates(self) -> int:
        """Number of gates acting on two or more qubits."""
        return sum(
            1
            for inst in self.instructions
            if inst.is_gate and inst.name != "barrier" and inst.num_qubits >= 2
        )

    def depth(self, *, include_measure: bool = True) -> int:
        """Circuit depth: length of the longest qubit/clbit dependency chain."""
        # One integer level per wire; plain comparisons are cheaper than max().
        qubit_levels: Dict[int, int] = {}
        clbit_levels: Dict[int, int] = {}
        depth = 0
        for inst in self.instructions:
            if inst.name == "barrier" or (not include_measure and inst.name == "measure"):
                continue
            level = 0
            for q in inst.qubits:
                if qubit_levels.get(q, 0) > level:
                    level = qubit_levels[q]
            for c in inst.clbits:
                if clbit_levels.get(c, 0) > level:
                    level = clbit_levels[c]
            level += 1
            for q in inst.qubits:
                qubit_levels[q] = level
            for c in inst.clbits:
                clbit_levels[c] = level
            if level > depth:
                depth = level
        return depth

    def has_measurements(self) -> bool:
        """Whether any measurement instruction is present."""
        return any(inst.name == "measure" for inst in self.instructions)

    def measurements_are_terminal(self) -> bool:
        """True when no qubit is acted on after it has been measured or reset."""
        touched_after: set[int] = set()
        for inst in reversed(self.instructions):
            if inst.name == "measure":
                if any(q in touched_after for q in inst.qubits):
                    return False
            elif inst.name == "reset":
                return False
            elif inst.name != "barrier":
                touched_after.update(inst.qubits)
        return True

    def measurement_map(self) -> Dict[int, int]:
        """Mapping clbit -> measured qubit (last measurement wins)."""
        mapping: Dict[int, int] = {}
        for inst in self.instructions:
            if inst.name == "measure":
                mapping[inst.clbits[0]] = inst.qubits[0]
        return mapping

    # -- composition ------------------------------------------------------------------------
    def copy(self, *, name: Optional[str] = None) -> "Circuit":
        """A deep-enough copy (instructions are immutable)."""
        clone = Circuit(self.num_qubits, self.num_clbits, name=name or self.name)
        clone.instructions = list(self.instructions)
        clone.metadata = dict(self.metadata)
        return clone

    def compose(
        self,
        other: "Circuit",
        qubit_map: Optional[Sequence[int]] = None,
        clbit_map: Optional[Sequence[int]] = None,
    ) -> "Circuit":
        """Append *other*'s instructions, remapping its wires onto this circuit."""
        qubit_map = list(range(other.num_qubits)) if qubit_map is None else list(qubit_map)
        clbit_map = list(range(other.num_clbits)) if clbit_map is None else list(clbit_map)
        if len(qubit_map) != other.num_qubits:
            raise SimulationError("qubit_map must cover every qubit of the composed circuit")
        if len(clbit_map) != other.num_clbits:
            raise SimulationError("clbit_map must cover every clbit of the composed circuit")
        for inst in other.instructions:
            self.append(
                inst.name,
                [qubit_map[q] for q in inst.qubits],
                inst.params,
                [clbit_map[c] for c in inst.clbits],
                inst.label,
            )
        return self

    def inverse(self) -> "Circuit":
        """The inverse circuit (gates reversed and individually inverted)."""
        inv = Circuit(self.num_qubits, self.num_clbits, name=f"{self.name}_inv")
        for inst in reversed(self.instructions):
            if inst.name == "barrier":
                inv.append("barrier", inst.qubits)
                continue
            if not inst.is_gate:
                raise SimulationError("cannot invert a circuit containing measure/reset")
            name, params = inverse_gate(inst.name, inst.params)
            inv.append(name, inst.qubits, params)
        return inv

    def remapped(self, qubit_map: Sequence[int], num_qubits: Optional[int] = None) -> "Circuit":
        """A copy with every qubit ``q`` relabelled to ``qubit_map[q]``."""
        new_n = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(new_n, self.num_clbits, name=self.name)
        out.metadata = dict(self.metadata)
        for inst in self.instructions:
            out.append(
                inst.name,
                [qubit_map[q] for q in inst.qubits],
                inst.params,
                inst.clbits,
                inst.label,
            )
        return out

    # -- serialization ---------------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dict form of the whole circuit."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "num_clbits": self.num_clbits,
            "instructions": [inst.to_dict() for inst in self.instructions],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Circuit":
        """Rebuild a :class:`Circuit` from its :meth:`to_dict` form."""
        circuit = cls(doc["num_qubits"], doc.get("num_clbits", 0), name=doc.get("name", "circuit"))
        circuit.metadata = dict(doc.get("metadata", {}))
        for inst_doc in doc.get("instructions", []):
            inst = Instruction.from_dict(inst_doc)
            circuit.append(inst.name, inst.qubits, inst.params, inst.clbits, inst.label)
        return circuit
