"""Fused in-place gate-application kernels and matrix structure plans.

The generic way to apply a ``2^m x 2^m`` unitary to a state tensor is
``moveaxis -> reshape -> matmul -> moveaxis``, which materialises two full
copies of the state per gate.  The kernels here never transpose: they read
and write axis-aligned *slices* of the original tensor, exploiting the
structure of the matrix:

* **fully diagonal** matrices (``z``, ``s``, ``t``, ``rz``, ``p``, ``cz``,
  ``rzz``, ...) become a single in-place broadcast multiply;
* **identity rows** (the untouched block of controlled gates such as ``cx``)
  are skipped entirely, so a CNOT touches only the two slices it permutes;
* remaining rows are evaluated as sparse linear combinations of the input
  slices (all reads complete before any write).

Because the matrix structure is the same for every application of a gate,
the analysis is factored into a :class:`MatrixPlan` that callers cache (see
:func:`~repro.simulators.gate.gates.cached_gate_plan`).

The kernels address qubits by *axis position* and leave any extra trailing
axes untouched, so the same code serves the single-shot
:class:`~repro.simulators.gate.statevector.Statevector` (qubit ``i`` at axis
``i``, no extra axes) and the batched engine's ``(2, ..., 2, batch)`` layout
(qubit ``i`` at axis ``i``, shots on the trailing axis).  The batched
engine's depolarizing noise uses them too: the struck shots are gathered
into a compact tensor of the same layout and each sampled error operator is
applied to its columns with :func:`apply_plan_inplace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MatrixPlan",
    "build_plan",
    "conjugate_plan",
    "apply_plan_inplace",
    "apply_matrix_inplace",
    "apply_diagonal_columns",
]


@dataclass(frozen=True)
class MatrixPlan:
    """Structure analysis of one unitary matrix, reusable across applications.

    ``diagonal`` is the matrix diagonal (as a python-complex tuple, so that
    NumPy's weak scalar promotion preserves single-precision tensors) when the
    matrix is fully diagonal, else ``None``.  ``rows`` lists every
    *non-identity* row as ``(row, ((col, coeff), ...))`` with zero entries
    dropped; identity rows are omitted because their slices are untouched.
    """

    dim: int
    num_qubits: int
    diagonal: Optional[Tuple[complex, ...]]
    rows: Tuple[Tuple[int, Tuple[Tuple[int, complex], ...]], ...]

    @property
    def is_diagonal(self) -> bool:
        """Whether the matrix is fully diagonal (one broadcast multiply)."""
        return self.diagonal is not None

    @property
    def is_dense_1q(self) -> bool:
        """A 2x2 matrix with no exploitable sparsity (e.g. ``h``, ``rx``)."""
        return self.dim == 2 and self.diagonal is None and len(self.rows) == 2


def build_plan(matrix: np.ndarray) -> MatrixPlan:
    """Analyse *matrix* into a :class:`MatrixPlan` (exact zero tests)."""
    dim = matrix.shape[0]
    num_qubits = dim.bit_length() - 1
    if not matrix[~np.eye(dim, dtype=bool)].any():
        diagonal = tuple(complex(matrix[r, r]) for r in range(dim))
        return MatrixPlan(dim, num_qubits, diagonal, ())
    rows: List[Tuple[int, Tuple[Tuple[int, complex], ...]]] = []
    for r in range(dim):
        row = matrix[r]
        nonzero = tuple((c, complex(row[c])) for c in range(dim) if row[c] != 0)
        if nonzero == ((r, 1 + 0j),):
            continue  # identity row: slice r is untouched
        rows.append((r, nonzero))
    return MatrixPlan(dim, num_qubits, None, tuple(rows))


def conjugate_plan(plan: MatrixPlan) -> MatrixPlan:
    """The plan of the element-wise complex conjugate of a planned matrix.

    Conjugation preserves sparsity structure (zeros stay zero, identity rows
    stay identity rows), so the conjugate plan is derived entry-by-entry from
    an existing plan instead of re-analysing the matrix.  The density-matrix
    engine uses this to evolve ``rho -> U rho U^dagger`` with the same fused
    slice kernels as the state-vector engines: ``U``'s plan is applied to the
    row (ket) axes and ``conj(U)``'s plan to the column (bra) axes.
    """
    if plan.diagonal is not None:
        diagonal = tuple(entry.conjugate() for entry in plan.diagonal)
        return MatrixPlan(plan.dim, plan.num_qubits, diagonal, ())
    rows = tuple(
        (r, tuple((c, coeff.conjugate()) for c, coeff in terms))
        for r, terms in plan.rows
    )
    return MatrixPlan(plan.dim, plan.num_qubits, None, rows)


def _slice_index(ndim: int, axes: Sequence[int], bits: int) -> Tuple:
    """Index tuple fixing the qubit *axes* to the bits of *bits* (first = MSB)."""
    m = len(axes)
    index: List = [slice(None)] * ndim
    for pos, axis in enumerate(axes):
        index[axis] = (bits >> (m - 1 - pos)) & 1
    return tuple(index)


def _diagonal_operand(tensor: np.ndarray, plan: MatrixPlan, axes: Sequence[int]) -> np.ndarray:
    """The plan's diagonal reshaped for broadcasting over *tensor*'s axes."""
    m = plan.num_qubits
    diag = np.array(plan.diagonal).reshape((2,) * m)
    # Bit p of the diagonal index is qubit axes[p]; numpy broadcasting needs
    # the axes in ascending order, so permute the diagonal accordingly.
    order = sorted(range(m), key=lambda p: axes[p])
    diag = diag.transpose(order)
    shape = [1] * tensor.ndim
    for p in range(m):
        shape[axes[order[p]]] = 2
    return diag.reshape(shape)


def apply_plan_inplace(tensor: np.ndarray, plan: MatrixPlan, axes: Sequence[int]) -> None:
    """Apply a planned unitary to the qubit *axes* of *tensor*, in place."""
    if plan.is_diagonal:
        tensor *= _diagonal_operand(tensor, plan, axes)
        return
    read = {}
    for _, terms in plan.rows:
        for c, _ in terms:
            if c not in read:
                read[c] = tensor[_slice_index(tensor.ndim, axes, c)]
    # Evaluate every output slice before writing any of them back: the reads
    # above are views into *tensor*, so interleaving writes would corrupt
    # later inputs.
    updates = []
    for r, terms in plan.rows:
        acc = terms[0][1] * read[terms[0][0]]
        for c, coeff in terms[1:]:
            acc += coeff * read[c]
        updates.append((r, acc))
    for r, value in updates:
        tensor[_slice_index(tensor.ndim, axes, r)] = value


def apply_diagonal_columns(
    tensor: np.ndarray, diag: np.ndarray, axes: Sequence[int]
) -> None:
    """Multiply a **per-column** diagonal into the qubit *axes* of *tensor*.

    *tensor* is a batch-last state tensor (``(2, ..., 2, batch)`` — the
    :class:`~repro.simulators.gate.batched.BatchedStatevector` layout) and
    *diag* holds one diagonal per column, shape ``(2**m, batch)`` with bit
    ``p`` of the diagonal index addressing qubit ``axes[p]`` (first = MSB).
    This is the kernel behind batched parameter sweeps: a parameterized
    diagonal rotation (``rz``/``rzz``-style) with a *different angle per
    column* costs exactly one broadcast multiply over the tensor, the same
    as its fixed-angle counterpart.
    """
    m = len(axes)
    batch = tensor.shape[-1]
    diag = np.asarray(diag).reshape((2,) * m + (batch,))
    # Bit p of the diagonal index is qubit axes[p]; numpy broadcasting needs
    # the qubit axes in ascending order, so permute them (batch stays last).
    order = sorted(range(m), key=lambda p: axes[p])
    diag = diag.transpose(tuple(order) + (m,))
    shape = [1] * tensor.ndim
    for p in range(m):
        shape[axes[order[p]]] = 2
    shape[-1] = batch
    tensor *= diag.reshape(shape)


def apply_matrix_inplace(
    tensor: np.ndarray,
    matrix: np.ndarray,
    axes: Sequence[int],
    plan: Optional[MatrixPlan] = None,
) -> None:
    """Apply *matrix* to the qubit *axes* of *tensor* in place.

    ``matrix`` must be ``2^m x 2^m`` for ``m = len(axes)``; pass a cached
    *plan* to skip the structure analysis on hot paths.
    """
    apply_plan_inplace(tensor, plan if plan is not None else build_plan(matrix), axes)
