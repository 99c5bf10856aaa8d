"""Quantum Operator Descriptors: logical transformations, not gates.

A :class:`QuantumOperatorDescriptor` (QOD) names *what* must happen to typed
quantum data — a QFT, a QAOA cost layer, an Ising problem — together with its
parameters, an optional device-independent :class:`~repro.core.cost.CostHint`,
and an explicit :class:`~repro.core.result_schema.ResultSchema` when readout
is involved (Listing 3 of the paper).  It says nothing about gates, pulses or
device details; backends decide the realization from their lowering registry.

:class:`OperatorSequence` is the composition primitive: an ordered list of
descriptors with helpers for inversion, cost accumulation and validation
against the declared registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

from .cost import CostHint
from .errors import CompatibilityError, DescriptorError
from .qdt import QuantumDataType
from .registry import get_rep_kind
from .result_schema import ResultSchema
from .schemas import QOD_SCHEMA_ID, validate_document
from .serialization import load_json, save_json

__all__ = ["QuantumOperatorDescriptor", "OperatorSequence"]


def _as_id_list(value: Union[str, Sequence[str], None]) -> List[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [value]
    return list(value)


@dataclass
class QuantumOperatorDescriptor:
    """One logical transformation on typed quantum registers.

    Parameters
    ----------
    name:
        Human-readable operator name (``"QFT"``, ``"maxcut_cost"``...).
    rep_kind:
        Representation kind naming the logical transformation
        (``"QFT_TEMPLATE"``, ``"ISING_PROBLEM"``, ...); see
        :mod:`repro.core.registry`.
    domain_qdt / codomain_qdt:
        Id(s) of the input/output registers.  Equal ids mean the operation is
        logically in place.  ``codomain_qdt`` defaults to ``domain_qdt``.
    params:
        Operator parameters (angles, graphs, moduli, ...).  Pure data — must
        be JSON-serialisable.
    cost_hint:
        Optional device-independent resource estimate.
    result_schema:
        Decoding rule, required for measuring operators.
    """

    name: str
    rep_kind: str
    domain_qdt: Union[str, Sequence[str]]
    codomain_qdt: Union[str, Sequence[str], None] = None
    params: Dict[str, Any] = field(default_factory=dict)
    cost_hint: Optional[CostHint] = None
    result_schema: Optional[ResultSchema] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise DescriptorError("operator descriptor needs a non-empty name")
        if not self.rep_kind:
            raise DescriptorError("operator descriptor needs a rep_kind")
        self.domain_qdt = _as_id_list(self.domain_qdt)
        if not self.domain_qdt:
            raise DescriptorError(f"operator {self.name!r} must reference at least one domain QDT")
        self.codomain_qdt = _as_id_list(self.codomain_qdt) or list(self.domain_qdt)
        self.params = dict(self.params)
        if isinstance(self.cost_hint, Mapping):
            self.cost_hint = CostHint.from_dict(self.cost_hint)
        if isinstance(self.result_schema, Mapping):
            self.result_schema = ResultSchema.from_dict(self.result_schema)
        info = get_rep_kind(self.rep_kind)
        for key, value in info.default_params.items():
            self.params.setdefault(key, value)

    # -- semantic queries ----------------------------------------------------
    @property
    def info(self):
        """Registry information for this descriptor's rep_kind."""
        return get_rep_kind(self.rep_kind)

    @property
    def is_measurement(self) -> bool:
        """Whether the operator performs a measurement."""
        return self.info.measures

    @property
    def is_reset(self) -> bool:
        """Whether the operator resets carriers."""
        return self.info.resets

    @property
    def is_unitary(self) -> bool:
        """Whether the operator is a unitary transformation."""
        return self.info.unitary

    @property
    def registers(self) -> List[str]:
        """All distinct register ids the operator touches."""
        seen: List[str] = []
        for reg in list(self.domain_qdt) + list(self.codomain_qdt):
            if reg not in seen:
                seen.append(reg)
        return seen

    @property
    def primary_register(self) -> str:
        """The first domain register (the usual single-register case)."""
        return self.domain_qdt[0]

    def missing_params(self) -> List[str]:
        """Required parameters (per the registry) not present in ``params``."""
        return [p for p in self.info.required_params if p not in self.params]

    # -- functional updates ----------------------------------------------------
    def with_params(self, **updates: Any) -> "QuantumOperatorDescriptor":
        """Return a copy with ``params`` updated (late parameter binding)."""
        params = dict(self.params)
        params.update(updates)
        return QuantumOperatorDescriptor(
            name=self.name,
            rep_kind=self.rep_kind,
            domain_qdt=list(self.domain_qdt),
            codomain_qdt=list(self.codomain_qdt),
            params=params,
            cost_hint=self.cost_hint,
            result_schema=self.result_schema,
            metadata=dict(self.metadata),
        )

    def with_cost_hint(self, cost_hint: CostHint) -> "QuantumOperatorDescriptor":
        """Return a copy carrying *cost_hint*."""
        clone = self.with_params()
        clone.cost_hint = cost_hint
        return clone

    def with_result_schema(self, schema: ResultSchema) -> "QuantumOperatorDescriptor":
        """Return a copy carrying *schema*."""
        clone = self.with_params()
        clone.result_schema = schema
        return clone

    def inverse(self) -> "QuantumOperatorDescriptor":
        """Logical inverse of the operator.

        For invertible kinds the convention is a boolean ``inverse`` parameter
        that is toggled; parameterised layers additionally negate their angle
        parameters (``gamma``, ``beta``, ``angle``, ``time``).
        """
        if not self.info.invertible:
            raise DescriptorError(f"operator {self.name!r} ({self.rep_kind}) is not invertible")
        params = dict(self.params)
        params["inverse"] = not bool(params.get("inverse", False))
        for angle_key in ("gamma", "beta", "angle", "time"):
            if angle_key in params and isinstance(params[angle_key], (int, float)):
                params[angle_key] = -params[angle_key]
        clone = self.with_params(**params)
        clone.name = f"{self.name}_inv" if not self.name.endswith("_inv") else self.name[:-4]
        return clone

    # -- validation ------------------------------------------------------------
    def validate(self, qdts: Optional[Mapping[str, QuantumDataType]] = None) -> None:
        """Schema-validate the descriptor and optionally cross-check registers."""
        validate_document(self.to_dict(), QOD_SCHEMA_ID)
        missing = self.missing_params()
        if missing:
            raise DescriptorError(
                f"operator {self.name!r} ({self.rep_kind}) missing required params {missing}"
            )
        if self.is_measurement and self.result_schema is None:
            raise DescriptorError(
                f"measuring operator {self.name!r} must declare a result_schema"
            )
        if qdts is not None:
            for reg in self.registers:
                if reg not in qdts:
                    raise CompatibilityError(
                        f"operator {self.name!r} references undeclared register {reg!r}"
                    )
            if self.result_schema is not None:
                self.result_schema.validate_against(dict(qdts))

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Render as a JSON-ready dictionary (Listing 3)."""
        def _collapse(ids: List[str]) -> Union[str, List[str]]:
            return ids[0] if len(ids) == 1 else list(ids)

        doc: Dict[str, Any] = {
            "$schema": QOD_SCHEMA_ID,
            "name": self.name,
            "rep_kind": self.rep_kind,
            "domain_qdt": _collapse(list(self.domain_qdt)),
            "codomain_qdt": _collapse(list(self.codomain_qdt)),
        }
        if self.params:
            doc["params"] = dict(self.params)
        if self.cost_hint is not None and not self.cost_hint.is_empty():
            doc["cost_hint"] = self.cost_hint.to_dict()
        if self.result_schema is not None:
            doc["result_schema"] = self.result_schema.to_dict()
        if self.metadata:
            doc["metadata"] = dict(self.metadata)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "QuantumOperatorDescriptor":
        """Build a descriptor from its dictionary form, validating the schema."""
        validate_document(dict(doc), QOD_SCHEMA_ID)
        return cls(
            name=doc["name"],
            rep_kind=doc["rep_kind"],
            domain_qdt=doc["domain_qdt"],
            codomain_qdt=doc.get("codomain_qdt"),
            params=dict(doc.get("params", {})),
            cost_hint=CostHint.from_dict(doc.get("cost_hint")),
            result_schema=ResultSchema.from_dict(doc.get("result_schema")),
            metadata=dict(doc.get("metadata", {})),
        )

    def save(self, path) -> None:
        """Write the descriptor as a ``QOP.json``-style file."""
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "QuantumOperatorDescriptor":
        """Load a descriptor from a JSON file."""
        return cls.from_dict(load_json(path))


class OperatorSequence:
    """An ordered composition of operator descriptors.

    The sequence is the unit the algorithmic libraries emit (e.g. the QAOA
    stack PREP_UNIFORM -> ISING_COST_PHASE -> MIXER_RX -> ... -> MEASUREMENT)
    and the unit backends lower.  It behaves like a list but adds the
    middle-layer composition rules.
    """

    def __init__(self, operators: Optional[Iterable[QuantumOperatorDescriptor]] = None):
        self._operators: List[QuantumOperatorDescriptor] = list(operators or [])

    # -- list-like behaviour ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._operators)

    def __iter__(self) -> Iterator[QuantumOperatorDescriptor]:
        return iter(self._operators)

    def __getitem__(self, item):
        result = self._operators[item]
        if isinstance(item, slice):
            return OperatorSequence(result)
        return result

    def append(self, operator: QuantumOperatorDescriptor) -> "OperatorSequence":
        """Append an operator and return ``self`` for chaining."""
        self._operators.append(operator)
        return self

    def extend(self, operators: Iterable[QuantumOperatorDescriptor]) -> "OperatorSequence":
        """Append several operators and return ``self``."""
        self._operators.extend(operators)
        return self

    def __add__(self, other: "OperatorSequence") -> "OperatorSequence":
        return OperatorSequence(list(self) + list(other))

    # -- middle-layer helpers ----------------------------------------------------
    @property
    def operators(self) -> List[QuantumOperatorDescriptor]:
        """The underlying descriptor list (a shallow copy)."""
        return list(self._operators)

    def registers(self) -> List[str]:
        """Distinct register ids referenced by the sequence, in order."""
        seen: List[str] = []
        for op in self._operators:
            for reg in op.registers:
                if reg not in seen:
                    seen.append(reg)
        return seen

    def total_cost(self) -> CostHint:
        """Sequentially accumulated cost hint of the whole sequence."""
        return CostHint.total(op.cost_hint for op in self._operators)

    def measurements(self) -> List[QuantumOperatorDescriptor]:
        """All measuring operators in the sequence."""
        return [op for op in self._operators if op.is_measurement]

    def inverse(self) -> "OperatorSequence":
        """The inverse sequence (reversed order, each operator inverted).

        Raises :class:`DescriptorError` when any member is not invertible
        (measurements and problem descriptors cannot be undone).
        """
        return OperatorSequence([op.inverse() for op in reversed(self._operators)])

    def validate(self, qdts: Mapping[str, QuantumDataType]) -> None:
        """Validate every member, then the sequence-level composition rules.

        Enforced rules (Section 4.4 "non-interference"):

        * every referenced register is declared,
        * no operator acts on a register after it has been measured
          (measurement must be explicit and terminal per register),
        * measuring operators carry a result schema,
        * unitary templates marked in-place have identical domain/codomain.
        """
        for op in self._operators:
            op.validate(qdts)
        self.check_non_interference()

    def check_non_interference(self) -> None:
        """Raise when an operator acts on a register after it was measured or reset."""
        measured: set[str] = set()
        for position, op in enumerate(self._operators):
            for reg in op.registers:
                if reg in measured and not op.is_measurement:
                    raise CompatibilityError(
                        f"operator #{position} ({op.name!r}) acts on register {reg!r} "
                        "after it has been measured"
                    )
            if op.is_measurement or op.is_reset:
                measured.update(op.registers)

    def to_list(self) -> List[Dict[str, Any]]:
        """JSON-ready list of operator dictionaries."""
        return [op.to_dict() for op in self._operators]

    @classmethod
    def from_list(cls, docs: Iterable[Mapping[str, Any]]) -> "OperatorSequence":
        """Rebuild a sequence from JSON dictionaries."""
        return cls(QuantumOperatorDescriptor.from_dict(doc) for doc in docs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(op.rep_kind for op in self._operators)
        return f"OperatorSequence([{kinds}])"
