"""Decoding measured results through result schemas and quantum data types.

This module closes the loop the paper insists on: results must never be
interpreted implicitly.  Given a :class:`~repro.results.counts.Counts`
histogram, the explicit :class:`~repro.core.result_schema.ResultSchema`
attached to the measuring operator, and the declared
:class:`~repro.core.qdt.QuantumDataType` table, decoding produces typed
values (integers, phases, spin vectors...) with their observed statistics —
no guessing about endianness or number representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.errors import DecodingError
from ..core.qdt import QuantumDataType
from ..core.result_schema import ResultSchema
from .counts import Counts

__all__ = ["DecodedOutcome", "RegisterDecoding", "DecodedResult", "decode_counts"]


@dataclass(frozen=True)
class DecodedOutcome:
    """One decoded outcome of one register."""

    value: Any
    bits: str
    count: int
    probability: float


@dataclass
class RegisterDecoding:
    """All decoded outcomes of a single register."""

    register_id: str
    outcomes: List[DecodedOutcome] = field(default_factory=list)

    @property
    def shots(self) -> int:
        return sum(o.count for o in self.outcomes)

    def most_likely(self) -> DecodedOutcome:
        """The highest-probability outcome."""
        if not self.outcomes:
            raise DecodingError(f"register {self.register_id!r} has no outcomes")
        return max(self.outcomes, key=lambda o: (o.count, o.bits))

    def expectation(self, value_fn: Optional[Callable[[Any], float]] = None) -> float:
        """Probability-weighted mean of (a function of) the decoded values."""
        if not self.outcomes:
            raise DecodingError(f"register {self.register_id!r} has no outcomes")
        fn = value_fn or (lambda v: float(v))
        return sum(fn(o.value) * o.probability for o in self.outcomes)

    def distribution(self) -> Dict[Any, float]:
        """Map decoded value -> probability (merging equal values)."""
        dist: Dict[Any, float] = {}
        for outcome in self.outcomes:
            dist[outcome.value] = dist.get(outcome.value, 0.0) + outcome.probability
        return dist


@dataclass
class DecodedResult:
    """Decoded outcomes for every register referenced by a result schema."""

    registers: Dict[str, RegisterDecoding] = field(default_factory=dict)
    raw_counts: Optional[Counts] = None

    def __getitem__(self, register_id: str) -> RegisterDecoding:
        try:
            return self.registers[register_id]
        except KeyError:
            raise DecodingError(f"no decoded data for register {register_id!r}") from None

    def register_ids(self) -> List[str]:
        return list(self.registers)

    def single(self) -> RegisterDecoding:
        """The only register decoding (common single-register case)."""
        if len(self.registers) != 1:
            raise DecodingError(
                f"expected exactly one register, found {sorted(self.registers)}"
            )
        return next(iter(self.registers.values()))


def decode_counts(
    counts: Counts,
    schema: ResultSchema,
    qdts: Mapping[str, QuantumDataType],
) -> DecodedResult:
    """Decode a counts histogram under an explicit result schema.

    For every register referenced by ``schema.clbit_order`` the clbit outcomes
    are gathered into a register-order bitstring and decoded according to the
    register's measurement semantics.  Registers are decoded independently
    (marginal statistics); the raw joint histogram is preserved on the result
    for callers that need correlations.
    """
    if counts and counts.num_clbits != schema.num_clbits:
        raise DecodingError(
            f"counts have {counts.num_clbits} clbits but the result schema declares "
            f"{schema.num_clbits}"
        )
    schema.validate_against(qdts)

    result = DecodedResult(raw_counts=counts)
    total = counts.shots
    for register_id in schema.registers():
        qdt = qdts[register_id]
        extract = schema.register_extractor(qdt)
        per_bits: Dict[str, int] = {}
        for bitstring, count in counts.items():
            register_bits = extract(bitstring)
            per_bits[register_bits] = per_bits.get(register_bits, 0) + count
        outcomes = [
            DecodedOutcome(
                value=qdt.decode_bits(bits),
                bits=bits,
                count=count,
                probability=count / total if total else 0.0,
            )
            for bits, count in sorted(per_bits.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        result.registers[register_id] = RegisterDecoding(register_id, outcomes)
    return result
