"""Measurement count histograms returned by gate-model backends.

A :class:`Counts` object maps classical bitstrings to the number of shots
that produced them.  **Convention:** character ``c`` of a key is the outcome
stored in classical bit ``c`` (clbit order), matching the ``clbit_order``
array of the result schema.  No implicit endianness is applied — decoding is
always driven by the explicit result schema (that is the point of the paper).
"""

from __future__ import annotations

import numbers
from collections import Counter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import DecodingError

__all__ = ["Counts"]


def _as_count(key: str, value: object) -> int:
    """Validate one histogram value: an integral, non-negative count.

    Integer-valued floats (e.g. ``600.0`` out of a JSON decoder) are
    accepted; fractional or non-numeric values raise :class:`DecodingError`
    instead of being silently truncated.
    """
    if isinstance(value, numbers.Integral):
        count = int(value)
    elif isinstance(value, numbers.Real):
        real = float(value)
        if not real.is_integer():
            raise DecodingError(f"count for {key!r} must be an integer, got {value!r}")
        count = int(real)
    else:
        raise DecodingError(
            f"count for {key!r} must be an integer, got {type(value).__name__}"
        )
    if count < 0:
        raise DecodingError(f"negative count for {key!r}")
    return count


class Counts(Mapping[str, int]):
    """Histogram of measured bitstrings (clbit-ordered keys)."""

    def __init__(self, data: Optional[Mapping[str, int]] = None):
        self._data: Dict[str, int] = {}
        if data:
            width = None
            for key, value in data.items():
                key = str(key)
                if width is None:
                    width = len(key)
                elif len(key) != width:
                    raise DecodingError(
                        f"inconsistent bitstring widths in counts: {len(key)} vs {width}"
                    )
                if key.strip("01"):
                    raise DecodingError(f"counts key {key!r} is not a bitstring")
                count = _as_count(key, value)
                if count:
                    self._data[key] = self._data.get(key, 0) + count

    # -- Mapping protocol -----------------------------------------------------
    def __getitem__(self, key: str) -> int:
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = dict(self.most_common(4))
        return f"Counts(shots={self.shots}, top={head})"

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_samples(cls, samples: Iterable[str]) -> "Counts":
        """Build counts from an iterable of bitstring samples."""
        return cls(Counter(str(s) for s in samples))

    @classmethod
    def _trusted(cls, data: Dict[str, int]) -> "Counts":
        """Wrap engine output that is well formed by construction, unchecked."""
        counts = cls.__new__(cls)
        counts._data = data
        return counts

    @classmethod
    def from_array(cls, bits: np.ndarray, multiplicities: Optional[np.ndarray] = None) -> "Counts":
        """Build counts from a 2-D ``{0,1}`` array (rows are shots, cols clbits).

        Truthy values count as 1.  *multiplicities* optionally weights row
        ``i`` by ``multiplicities[i]`` shots (summed in int64; keys whose
        total is 0 are dropped).  Rows are packed to fixed-width byte keys
        and histogrammed by one ``np.unique``; only distinct rows are decoded
        to strings, so every width takes this path.  Keys come out sorted.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise DecodingError("expected a 2-D array of bits")
        shots, width = bits.shape
        weights = None if multiplicities is None else np.asarray(multiplicities, np.int64)
        if weights is not None and (weights.shape != (shots,) or (weights < 0).any()):
            raise DecodingError("expected one non-negative multiplicity per row")
        if width == 0 or shots == 0:
            total = shots if weights is None else int(weights.sum())
            return cls._trusted({"": total} if width == 0 and total else {})
        packed = np.packbits(bits, axis=1)  # any nonzero entry packs as a 1 bit
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        if weights is None:
            values, totals = np.unique(keys, return_counts=True)
        else:
            values, inverse = np.unique(keys, return_inverse=True)
            totals = np.zeros(len(values), dtype=np.int64)
            np.add.at(totals, inverse, weights)
            values, totals = values[totals != 0], totals[totals != 0]
        rows = np.unpackbits(
            values.view(np.uint8).reshape(len(values), packed.shape[1]), axis=1, count=width
        )
        text = (rows + ord("0")).tobytes().decode("ascii")
        strings = [text[i : i + width] for i in range(0, len(text), width)]
        return cls._trusted(dict(zip(strings, totals.tolist())))

    # -- basic statistics ----------------------------------------------------------
    @property
    def shots(self) -> int:
        """Total number of recorded shots."""
        return sum(self._data.values())

    @property
    def num_clbits(self) -> int:
        """Width of the bitstrings (0 for an empty histogram)."""
        return len(next(iter(self._data))) if self._data else 0

    def probability(self, key: str) -> float:
        """Empirical probability of *key* (0.0 when never observed)."""
        total = self.shots
        return self._data.get(key, 0) / total if total else 0.0

    def probabilities(self) -> Dict[str, float]:
        """Empirical probability of every observed bitstring."""
        total = self.shots
        return {k: v / total for k, v in self._data.items()} if total else {}

    def most_common(self, n: Optional[int] = None) -> List[Tuple[str, int]]:
        """The *n* most frequent outcomes (all of them when *n* is None)."""
        ordered = sorted(self._data.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered if n is None else ordered[:n]

    def argmax(self) -> str:
        """The single most frequent bitstring."""
        if not self._data:
            raise DecodingError("cannot take argmax of empty counts")
        return self.most_common(1)[0][0]

    # -- transformations --------------------------------------------------------------
    def marginal(self, clbits: Sequence[int]) -> "Counts":
        """Marginalise onto the given classical bits (in the given order)."""
        width = self.num_clbits
        for c in clbits:
            if not 0 <= c < width:
                raise DecodingError(f"clbit {c} out of range for width-{width} counts")
        out: Dict[str, int] = {}
        for key, value in self._data.items():
            sub = "".join(key[c] for c in clbits)
            out[sub] = out.get(sub, 0) + value
        return Counts(out)

    def merge(self, other: "Counts") -> "Counts":
        """Sum two histograms key-by-key (same bitstring width required).

        This adds the per-key totals of two already-aggregated histograms —
        there is no shot-level pairing involved.
        """
        if self._data and other._data and self.num_clbits != other.num_clbits:
            raise DecodingError("cannot merge counts of different widths")
        merged = dict(self._data)
        for key, value in other._data.items():
            merged[key] = merged.get(key, 0) + value
        return Counts(merged)

    def expectation(self, value_fn: Callable[[str], float]) -> float:
        """Shot-weighted average of ``value_fn(bitstring)``."""
        total = self.shots
        if total == 0:
            raise DecodingError("cannot take expectation of empty counts")
        return sum(value_fn(key) * count for key, count in self._data.items()) / total

    def to_dict(self) -> Dict[str, int]:
        """Plain dictionary copy (for JSON serialisation)."""
        return dict(self._data)
