"""A small noise model for the gate-model substrate.

The middle layer itself is noise-agnostic; this model exists so that the
context descriptor's execution options can request noisy simulation (and so
QEC resource estimates have a physical error rate to refer to).  Two channels
are modelled, both applied stochastically per trajectory:

* depolarizing noise after every gate (independent single-qubit Pauli errors
  on each qubit the gate touched, with separate rates for 1q and 2q gates),
* symmetric readout bit-flip errors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ...core.errors import SimulationError

__all__ = ["NoiseModel", "as_segments"]

_RATE_NAMES = ("oneq_error", "twoq_error", "readout_error")


def as_segments(draws, batch_size: int):
    """The ``(size, generator)`` segments a batch draws its randomness from.

    The batched engines' stochastic methods take either one generator for
    the whole batch or a list of segments partitioning the batch axis, one
    per standalone chunk of a merged run.  A bare generator is the single
    segment ``[(batch_size, rng)]``, so a lone chunk makes exactly the draws
    it would make inside any merged run.
    """
    if isinstance(draws, np.random.Generator):
        return [(batch_size, draws)]
    return draws


@dataclass
class NoiseModel:
    """Depolarizing + readout-error noise parameters."""

    oneq_error: float = 0.0
    twoq_error: float = 0.0
    readout_error: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_NAMES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must lie in [0, 1], got {value}")

    @property
    def is_noiseless(self) -> bool:
        """True when every rate is zero."""
        return self.oneq_error == 0.0 and self.twoq_error == 0.0 and self.readout_error == 0.0

    def apply_readout_error(self, outcome: int, rng: np.random.Generator) -> int:
        """Flip a classical readout with probability ``readout_error``."""
        if self.readout_error > 0.0 and rng.random() < self.readout_error:
            return 1 - outcome
        return outcome

    # -- batched channels (one vector draw per segment of a trajectory batch) --
    # Gate noise for the batched engine lives in the compiled program: the
    # fusion compiler turns each gate's depolarizing channel into
    # NoiseEvents that BatchedStatevector.apply_noise_events samples, so
    # pushed-through (conjugated) errors and raw Paulis share one code path.
    def apply_readout_error_segmented(self, outcomes: np.ndarray, draws) -> np.ndarray:
        """Flip each entry of a ``(batch,)`` outcome vector independently.

        *draws* is a generator or a list of ``(size, generator)`` segments
        (see :func:`as_segments`); each segment draws its flip vector from
        its own generator.  Skips all draws when the rate is zero.
        """
        if self.readout_error <= 0.0:
            return outcomes
        flips = np.concatenate(
            [
                gen.random(size) < self.readout_error
                for size, gen in as_segments(draws, outcomes.shape[0])
            ]
        )
        return (outcomes ^ flips).astype(outcomes.dtype)

    def to_dict(self) -> dict:
        """The three channel rates as a plain dict (context-options form)."""
        return {
            "oneq_error": self.oneq_error,
            "twoq_error": self.twoq_error,
            "readout_error": self.readout_error,
        }

    @classmethod
    def from_dict(cls, doc: dict | None) -> "NoiseModel | None":
        """Build a model from a rates dict; ``None``/empty means no noise.

        Raises :class:`~repro.core.errors.SimulationError` on a key other
        than the three rates and on a rate that is not a real number (a bool
        included), so a misspelt or mistyped rate never runs noiseless.
        """
        if not doc:
            return None
        rates = {}
        for name, value in doc.items():
            if name not in _RATE_NAMES:
                raise SimulationError(
                    f"unknown noise rate {name!r}; expected one of {_RATE_NAMES}"
                )
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise SimulationError(f"{name} must be a real number, got {value!r}")
            rates[name] = float(value)
        return cls(**rates)
