"""Execution context descriptors: *how* to run, never *what* it means.

A :class:`ContextDescriptor` captures execution policy orthogonally to the
quantum data types and operator descriptors (Section 4.3, Listings 4 and 5):
which engine executes the bundle, how many samples/reads to draw, target
constraints for compilation (basis gates, coupling map), transpiler options,
an optional QEC policy, annealer settings, distributed-execution policy and
pulse-level options.  Swapping the context re-targets a program without
touching its intent artifacts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ContextError
from .schemas import CTX_SCHEMA_ID, validate_document
from .serialization import load_json, save_json

__all__ = [
    "TargetSpec",
    "ExecPolicy",
    "QECPolicy",
    "AnnealPolicy",
    "CommPolicy",
    "PulsePolicy",
    "ContextDescriptor",
]


def _is_int(value: Any) -> bool:
    """Whether *value* is an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """Whether *value* is a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_count(value: Any, name: str) -> None:
    """Raise :class:`ContextError` unless *value* is an int >= 1 (bool excluded)."""
    if not _is_int(value) or value < 1:
        raise ContextError(f"{name} must be an int >= 1, got {value!r}")


@dataclass
class TargetSpec:
    """Compilation target constraints (Listing 4's ``target`` block).

    Omitting the coupling map means an ideal all-to-all device; omitting the
    basis gates means the backend's native basis is used unchanged.
    """

    basis_gates: Optional[List[str]] = None
    coupling_map: Optional[List[Tuple[int, int]]] = None
    num_qubits: Optional[int] = None

    def __post_init__(self) -> None:
        if self.coupling_map is not None:
            self.coupling_map = [(int(a), int(b)) for a, b in self.coupling_map]
            for a, b in self.coupling_map:
                if a == b or a < 0 or b < 0:
                    raise ContextError(f"invalid coupling map edge ({a}, {b})")
        if self.basis_gates is not None:
            self.basis_gates = [str(g) for g in self.basis_gates]

    @property
    def is_all_to_all(self) -> bool:
        """True when no connectivity constraint has been declared."""
        return self.coupling_map is None

    def max_qubit(self) -> Optional[int]:
        """Largest qubit index mentioned in the coupling map, if any."""
        if not self.coupling_map:
            return None
        return max(max(a, b) for a, b in self.coupling_map)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        if self.basis_gates is not None:
            doc["basis_gates"] = list(self.basis_gates)
        if self.coupling_map is not None:
            doc["coupling_map"] = [[a, b] for a, b in self.coupling_map]
        if self.num_qubits is not None:
            doc["num_qubits"] = self.num_qubits
        return doc

    @classmethod
    def from_dict(cls, doc: Optional[Mapping[str, Any]]) -> Optional["TargetSpec"]:
        if doc is None:
            return None
        return cls(
            basis_gates=doc.get("basis_gates"),
            coupling_map=[tuple(e) for e in doc["coupling_map"]] if "coupling_map" in doc else None,
            num_qubits=doc.get("num_qubits"),
        )


@dataclass
class ExecPolicy:
    """Engine selection and sampling policy (Listing 4's ``exec`` block)."""

    engine: str = "gate.statevector_simulator"
    samples: int = 1024
    seed: Optional[int] = None
    target: Optional[TargetSpec] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.engine:
            raise ContextError("exec policy requires an engine name")
        _require_count(self.samples, "samples")
        if isinstance(self.seed, int) and self.seed < 0:
            raise ContextError("seed must be >= 0")
        if isinstance(self.target, Mapping):
            self.target = TargetSpec.from_dict(self.target)

    @property
    def engine_family(self) -> str:
        """Engine family prefix, e.g. ``gate`` for ``gate.aer_simulator``."""
        return self.engine.split(".", 1)[0]

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"engine": self.engine, "samples": self.samples}
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.target is not None:
            target = self.target.to_dict()
            if target:
                doc["target"] = target
        if self.options:
            doc["options"] = dict(self.options)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ExecPolicy":
        return cls(
            engine=doc.get("engine", "gate.statevector_simulator"),
            samples=int(doc.get("samples", doc.get("shots", 1024))),
            seed=doc.get("seed"),
            target=TargetSpec.from_dict(doc.get("target")),
            options=dict(doc.get("options", {})),
        )


@dataclass
class QECPolicy:
    """Error-correction policy carried orthogonally to semantics (Listing 5)."""

    code_family: str = "surface"
    distance: int = 3
    allocator: str = "auto"
    decoder: str = "mwpm"
    logical_gate_set: List[str] = field(default_factory=lambda: ["H", "S", "CNOT", "T", "MEASURE_Z"])
    physical_error_rate: float = 1e-3
    cycle_time_ns: float = 1000.0

    def __post_init__(self) -> None:
        _require_count(self.distance, "distance")
        if self.distance % 2 == 0:
            raise ContextError("surface-code distance must be a positive odd integer")
        if not _is_real(self.physical_error_rate) or not 0 < self.physical_error_rate <= 1:
            raise ContextError(
                f"physical_error_rate must be a real number in (0, 1], "
                f"got {self.physical_error_rate!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code_family": self.code_family,
            "distance": self.distance,
            "allocator": self.allocator,
            "decoder": self.decoder,
            "logical_gate_set": list(self.logical_gate_set),
            "physical_error_rate": self.physical_error_rate,
            "cycle_time_ns": self.cycle_time_ns,
        }

    @classmethod
    def from_dict(cls, doc: Optional[Mapping[str, Any]]) -> Optional["QECPolicy"]:
        if doc is None:
            return None
        return cls(
            code_family=doc.get("code_family", "surface"),
            distance=int(doc.get("distance", 3)),
            allocator=doc.get("allocator", "auto"),
            decoder=doc.get("decoder", "mwpm"),
            logical_gate_set=list(doc.get("logical_gate_set", ["H", "S", "CNOT", "T", "MEASURE_Z"])),
            physical_error_rate=float(doc.get("physical_error_rate", 1e-3)),
            cycle_time_ns=float(doc.get("cycle_time_ns", 1000.0)),
        )


@dataclass
class AnnealPolicy:
    """Annealer execution settings (the Fig. 3 ``anneal`` context)."""

    num_reads: int = 1000
    num_sweeps: int = 1000
    beta_range: Optional[Tuple[float, float]] = None
    schedule: str = "geometric"
    seed: Optional[int] = None
    embedding: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_count(self.num_reads, "num_reads")
        _require_count(self.num_sweeps, "num_sweeps")
        if isinstance(self.seed, int) and self.seed < 0:
            raise ContextError("seed must be >= 0")
        if self.schedule not in ("geometric", "linear"):
            raise ContextError(f"unknown anneal schedule {self.schedule!r}")
        if self.beta_range is not None:
            lo, hi = self.beta_range
            if lo <= 0 or hi <= 0 or hi < lo:
                raise ContextError("beta_range must be positive and increasing")
            self.beta_range = (float(lo), float(hi))

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "num_reads": self.num_reads,
            "num_sweeps": self.num_sweeps,
            "schedule": self.schedule,
        }
        if self.beta_range is not None:
            doc["beta_range"] = [self.beta_range[0], self.beta_range[1]]
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.embedding:
            doc["embedding"] = dict(self.embedding)
        return doc

    @classmethod
    def from_dict(cls, doc: Optional[Mapping[str, Any]]) -> Optional["AnnealPolicy"]:
        if doc is None:
            return None
        return cls(
            num_reads=int(doc.get("num_reads", 1000)),
            num_sweeps=int(doc.get("num_sweeps", 1000)),
            beta_range=tuple(doc["beta_range"]) if doc.get("beta_range") else None,
            schedule=doc.get("schedule", "geometric"),
            seed=doc.get("seed"),
            embedding=dict(doc.get("embedding", {})),
        )


@dataclass
class CommPolicy:
    """Distributed-execution policy (multi-QPU, teleportation allowance)."""

    allow_teleportation: bool = True
    max_qpus: int = 1
    qpu_capacity: int = 32
    epr_fidelity: float = 1.0

    def __post_init__(self) -> None:
        _require_count(self.max_qpus, "max_qpus")
        _require_count(self.qpu_capacity, "qpu_capacity")
        if not _is_real(self.epr_fidelity) or not 0 < self.epr_fidelity <= 1:
            raise ContextError(
                f"epr_fidelity must be a real number in (0, 1], got {self.epr_fidelity!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "allow_teleportation": self.allow_teleportation,
            "max_qpus": self.max_qpus,
            "qpu_capacity": self.qpu_capacity,
            "epr_fidelity": self.epr_fidelity,
        }

    @classmethod
    def from_dict(cls, doc: Optional[Mapping[str, Any]]) -> Optional["CommPolicy"]:
        if doc is None:
            return None
        return cls(
            allow_teleportation=bool(doc.get("allow_teleportation", True)),
            max_qpus=int(doc.get("max_qpus", 1)),
            qpu_capacity=int(doc.get("qpu_capacity", 32)),
            epr_fidelity=float(doc.get("epr_fidelity", 1.0)),
        )


@dataclass
class PulsePolicy:
    """Pulse/control options for calibrated, device-specific realizations."""

    dt_ns: float = 0.222
    shape: str = "drag"
    gate_durations_ns: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_real(self.dt_ns) or self.dt_ns <= 0:
            raise ContextError(f"pulse dt_ns must be a positive real number, got {self.dt_ns!r}")

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"dt_ns": self.dt_ns, "shape": self.shape}
        if self.gate_durations_ns:
            doc["gate_durations_ns"] = dict(self.gate_durations_ns)
        return doc

    @classmethod
    def from_dict(cls, doc: Optional[Mapping[str, Any]]) -> Optional["PulsePolicy"]:
        if doc is None:
            return None
        return cls(
            dt_ns=float(doc.get("dt_ns", 0.222)),
            shape=doc.get("shape", "drag"),
            gate_durations_ns=dict(doc.get("gate_durations_ns", {})),
        )


@dataclass
class ContextDescriptor:
    """The complete execution-policy record attached to a job bundle."""

    exec: ExecPolicy = field(default_factory=ExecPolicy)
    qec: Optional[QECPolicy] = None
    anneal: Optional[AnnealPolicy] = None
    comm: Optional[CommPolicy] = None
    pulse: Optional[PulsePolicy] = None
    extensions: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.exec, Mapping):
            self.exec = ExecPolicy.from_dict(self.exec)
        if isinstance(self.qec, Mapping):
            self.qec = QECPolicy.from_dict(self.qec)
        if isinstance(self.anneal, Mapping):
            self.anneal = AnnealPolicy.from_dict(self.anneal)
        if isinstance(self.comm, Mapping):
            self.comm = CommPolicy.from_dict(self.comm)
        if isinstance(self.pulse, Mapping):
            self.pulse = PulsePolicy.from_dict(self.pulse)

    # -- convenience ----------------------------------------------------------
    @property
    def engine(self) -> str:
        """Selected execution engine name."""
        return self.exec.engine

    @property
    def samples(self) -> int:
        """Number of shots/samples requested."""
        return self.exec.samples

    @property
    def uses_qec(self) -> bool:
        """Whether a QEC policy is attached."""
        return self.qec is not None

    def with_engine(self, engine: str, **exec_updates: Any) -> "ContextDescriptor":
        """Return a copy re-targeted to *engine* (everything else preserved)."""
        new_exec = ExecPolicy(
            engine=engine,
            samples=exec_updates.get("samples", self.exec.samples),
            seed=exec_updates.get("seed", self.exec.seed),
            target=exec_updates.get("target", self.exec.target),
            options=dict(exec_updates.get("options", self.exec.options)),
        )
        return ContextDescriptor(
            exec=new_exec,
            qec=self.qec,
            anneal=self.anneal,
            comm=self.comm,
            pulse=self.pulse,
            extensions=dict(self.extensions),
            metadata=dict(self.metadata),
        )

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Render as a JSON-ready dictionary (Listings 4 and 5)."""
        doc: Dict[str, Any] = {"$schema": CTX_SCHEMA_ID, "exec": self.exec.to_dict()}
        if self.qec is not None:
            doc["qec"] = self.qec.to_dict()
        if self.anneal is not None:
            doc["anneal"] = self.anneal.to_dict()
        if self.comm is not None:
            doc["comm"] = self.comm.to_dict()
        if self.pulse is not None:
            doc["pulse"] = self.pulse.to_dict()
        if self.extensions:
            doc["extensions"] = dict(self.extensions)
        if self.metadata:
            doc["metadata"] = dict(self.metadata)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ContextDescriptor":
        """Build a context from its dictionary form.

        Accepts both the flat layout (``{"exec": ..., "anneal": ...}``) and
        the nested ``{"contexts": {"anneal": ...}}`` form the paper's Fig. 3
        sketches for the D-Wave path.
        """
        validate_document(dict(doc), CTX_SCHEMA_ID)
        nested = doc.get("contexts", {}) or {}
        anneal_doc = doc.get("anneal", nested.get("anneal"))
        exec_doc = doc.get("exec", nested.get("exec"))
        if exec_doc is None:
            # An anneal-only context still needs an engine; default to the
            # bundled simulated annealer.
            exec_doc = {"engine": "anneal.simulated_annealer", "samples": 1000}
        return cls(
            exec=ExecPolicy.from_dict(exec_doc),
            qec=QECPolicy.from_dict(doc.get("qec", nested.get("qec"))),
            anneal=AnnealPolicy.from_dict(anneal_doc),
            comm=CommPolicy.from_dict(doc.get("comm", nested.get("comm"))),
            pulse=PulsePolicy.from_dict(doc.get("pulse", nested.get("pulse"))),
            extensions=dict(doc.get("extensions", {})),
            metadata=dict(doc.get("metadata", {})),
        )

    def validate(self) -> None:
        """Validate against the embedded context schema."""
        validate_document(self.to_dict(), CTX_SCHEMA_ID)

    def save(self, path) -> None:
        """Write the context as a ``CTX.json``-style file."""
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "ContextDescriptor":
        """Load a context from a JSON file."""
        return cls.from_dict(load_json(path))
