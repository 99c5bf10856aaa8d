"""Canonical complex dtype: the one module allowed to spell it out.

Everything outside the gate substrate's numeric core must route complex
dtypes through this module (invariant-lint rule ``DTYPE001``) so precision
policy has a single home: compiled matrices, plans and oracles are always
:data:`CANONICAL_COMPLEX`.  The batched trajectory engine's state dtype is
the ``trajectory_dtype`` run-time knob, which
:class:`~repro.simulators.gate.statevector.StatevectorSimulator` checks as a
string (``"complex64"`` or ``"complex128"``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CANONICAL_COMPLEX"]

#: Full-precision complex dtype of every compiled matrix, plan and oracle.
CANONICAL_COMPLEX = np.dtype(np.complex128)
