"""Exact unitary construction for small circuits.

Used by tests and the transpiler's verification utilities to check that
rewrites preserve the circuit's action up to a global phase.  The cost is
O(4^n) memory, so this is limited to small widths; the simulator proper never
needs the full unitary.
"""

from __future__ import annotations

import numpy as np

from ...core.errors import SimulationError
from .circuit import Circuit
from .fusion import compile_trajectory_program_cached
from .kernels import apply_plan_inplace

__all__ = ["circuit_unitary", "equal_up_to_global_phase"]

MAX_UNITARY_QUBITS = 12


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The ``2^n x 2^n`` unitary implemented by *circuit*.

    The column/row index follows the simulator's flat-index convention
    (qubit 0 is the most significant position).  Measurements and resets are
    rejected (barriers excepted — they are no-ops).

    The columns of U are the images of the basis states, evolved all at once
    by treating the column index as a trailing batch axis — the batched
    engine's exact layout.  The circuit is first compiled through the
    :func:`~repro.simulators.gate.fusion.compile_trajectory_program` fusion
    compiler and each fused step is applied with the in-place slice kernels,
    so a transpiled sweep costs one traversal per fused block instead of one
    ``moveaxis -> matmul -> moveaxis`` round trip per instruction.  The
    tests hold it against that instruction-by-instruction route
    (``tests/engine_testlib.py``).
    """
    n = circuit.num_qubits
    if n > MAX_UNITARY_QUBITS:
        raise SimulationError(
            f"circuit_unitary limited to {MAX_UNITARY_QUBITS} qubits, got {n}"
        )
    for inst in circuit.instructions:
        if inst.name != "barrier" and not inst.is_gate:
            raise SimulationError("circuit_unitary requires a purely unitary circuit")
    dim = 1 << n
    tensor = np.eye(dim, dtype=np.complex128).reshape((2,) * n + (dim,))
    program = compile_trajectory_program_cached(circuit)
    for step in program.steps:
        apply_plan_inplace(tensor, step.plan, step.qubits)
    return tensor.reshape(dim, dim)


def equal_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, *, atol: float = 1e-9
) -> bool:
    """Whether two unitaries differ only by a global phase factor."""
    if a.shape != b.shape:
        return False
    overlap = np.trace(a.conj().T @ b)
    if abs(overlap) < atol:
        return False
    phase = overlap / abs(overlap)
    return bool(np.allclose(a * phase, b, atol=atol))
