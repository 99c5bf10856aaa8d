"""Result schemas: how a measurement's classical outcome must be decoded.

An operator descriptor that measures (or is followed by a measurement) must
declare an explicit :class:`ResultSchema` (Listing 3 of the paper): the
measurement basis, the datatype the bitstring encodes, the bit significance,
and ``clbit_order`` — the sequence of logical register indices whose outcomes
are mapped to successive classical bits.

Decoding of actual counts lives in :mod:`repro.results.decoding`; this module
only carries the declarative record and the parsing of ``"reg[idx]"``
references.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DescriptorError
from .qdt import BitOrder, MeasurementSemantics, QuantumDataType

__all__ = ["ClbitRef", "ResultSchema"]

_CLBIT_RE = re.compile(r"^(?P<reg>[A-Za-z_][\w.-]*)\[(?P<idx>\d+)\]$")


@dataclass(frozen=True)
class ClbitRef:
    """A reference to one logical carrier, e.g. ``reg_phase[3]``."""

    register: str
    index: int

    @classmethod
    def parse(cls, text: str) -> "ClbitRef":
        """Parse a ``"register[index]"`` reference string."""
        match = _CLBIT_RE.match(text.strip())
        if not match:
            raise DescriptorError(f"invalid clbit reference {text!r}; expected 'reg[i]'")
        return cls(register=match.group("reg"), index=int(match.group("idx")))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.register}[{self.index}]"


@dataclass
class ResultSchema:
    """Declarative decoding rule for measured classical bits.

    Parameters
    ----------
    basis:
        Measurement basis, ``"Z"`` (computational), ``"X"`` or ``"Y"``.
    datatype:
        Measurement semantics applied to the decoded bitstring
        (``AS_PHASE``, ``AS_BOOL``, ...); usually mirrors the register's QDT.
    bit_significance:
        Significance convention of the decoded string (``LSB_0``/``MSB_0``).
    clbit_order:
        For classical bit ``c`` (in increasing order), ``clbit_order[c]`` is
        the logical carrier whose outcome is stored there.
    """

    basis: str = "Z"
    datatype: MeasurementSemantics = MeasurementSemantics.AS_RAW
    bit_significance: BitOrder = BitOrder.LSB_0
    clbit_order: List[str] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)
    # The parsed references and the clbit_order they were parsed from.
    _parsed: Tuple[List[str], List[ClbitRef]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.datatype = MeasurementSemantics(self.datatype)
        self.bit_significance = BitOrder(self.bit_significance)
        if self.basis not in ("Z", "X", "Y"):
            raise DescriptorError(f"unsupported measurement basis {self.basis!r}")
        self.clbit_order = [str(ref) for ref in self.clbit_order]
        # Parse eagerly so errors surface at construction time, and keep the
        # result for references().
        self._parsed = (list(self.clbit_order), [ClbitRef.parse(ref) for ref in self.clbit_order])

    # -- construction helpers ------------------------------------------------
    @classmethod
    def for_register(
        cls,
        qdt: QuantumDataType,
        *,
        basis: str = "Z",
        datatype: Optional[MeasurementSemantics] = None,
    ) -> "ResultSchema":
        """Default schema measuring every carrier of *qdt* in register order."""
        return cls(
            basis=basis,
            datatype=datatype or qdt.measurement_semantics,
            bit_significance=qdt.bit_order,
            clbit_order=[f"{qdt.id}[{i}]" for i in range(qdt.width)],
        )

    # -- accessors -----------------------------------------------------------
    @property
    def num_clbits(self) -> int:
        """Number of classical bits the schema describes."""
        return len(self.clbit_order)

    def references(self) -> List[ClbitRef]:
        """Parsed clbit references in classical-bit order.

        Parsed once, at construction; ``clbit_order`` is a public, mutable
        list, so a changed order (in place or rebound) is parsed again.
        """
        order, refs = self._parsed
        if self.clbit_order != order:
            order = list(self.clbit_order)
            refs = [ClbitRef.parse(ref) for ref in order]
            self._parsed = (order, refs)
        return list(refs)

    def registers(self) -> List[str]:
        """Distinct register ids referenced, in first-appearance order."""
        seen: List[str] = []
        for ref in self.references():
            if ref.register not in seen:
                seen.append(ref.register)
        return seen

    def clbits_for_register(self, register_id: str) -> List[Tuple[int, int]]:
        """Pairs ``(classical_bit, carrier_index)`` belonging to *register_id*."""
        return [
            (clbit, ref.index)
            for clbit, ref in enumerate(self.references())
            if ref.register == register_id
        ]

    def register_extractor(self, qdt: QuantumDataType) -> Callable[[str], str]:
        """:meth:`register_bits` without the length check, its pairs resolved once.

        Unmeasured carriers gather index ``num_clbits``, the appended ``'0'``.
        """
        gather = [self.num_clbits] * qdt.width
        for clbit, carrier in self.clbits_for_register(qdt.id):
            if carrier >= qdt.width:
                raise DescriptorError(
                    f"clbit reference {qdt.id}[{carrier}] exceeds register width {qdt.width}"
                )
            gather[carrier] = clbit
        pick = operator.itemgetter(*gather)
        return lambda bitstring: "".join(pick(bitstring + "0"))

    def register_bits(self, bitstring: str, qdt: QuantumDataType) -> str:
        """Extract the register-order bitstring of *qdt* from a raw clbit string.

        *bitstring* is indexed by classical bit (character ``c`` is clbit
        ``c``); the result is indexed by carrier index of *qdt*.  Carriers the
        schema does not measure default to ``'0'``.
        """
        if len(bitstring) != self.num_clbits:
            raise DescriptorError(
                f"bitstring length {len(bitstring)} != num_clbits {self.num_clbits}"
            )
        return self.register_extractor(qdt)(bitstring)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary matching Listing 3's ``result_schema`` block."""
        doc: Dict[str, Any] = {
            "basis": self.basis,
            "datatype": self.datatype.value,
            "bit_significance": self.bit_significance.value,
            "clbit_order": list(self.clbit_order),
        }
        if self.metadata:
            doc["metadata"] = dict(self.metadata)
        return doc

    @classmethod
    def from_dict(cls, doc: Optional[Mapping[str, Any]]) -> Optional["ResultSchema"]:
        """Build a schema from its dictionary form; ``None`` passes through."""
        if doc is None:
            return None
        return cls(
            basis=doc.get("basis", "Z"),
            datatype=doc.get("datatype", "AS_RAW"),
            bit_significance=doc.get("bit_significance", "LSB_0"),
            clbit_order=list(doc.get("clbit_order", [])),
            metadata=dict(doc.get("metadata", {})),
        )

    def validate_against(self, qdts: Mapping[str, QuantumDataType]) -> None:
        """Check that every referenced carrier exists in the declared QDTs."""
        for ref in self.references():
            if ref.register not in qdts:
                raise DescriptorError(
                    f"result schema references unknown register {ref.register!r}"
                )
            width = qdts[ref.register].width
            if ref.index >= width:
                raise DescriptorError(
                    f"result schema references {ref} but register width is {width}"
                )
