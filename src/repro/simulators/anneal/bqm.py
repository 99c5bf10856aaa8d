"""Binary quadratic models: the Ising/QUBO representation annealers consume.

A :class:`BinaryQuadraticModel` (BQM) stores linear biases ``h_i``, quadratic
couplings ``J_ij`` and a constant offset over named variables, in either SPIN
(``s in {-1,+1}``) or BINARY (``x in {0,1}``) form, with loss-free conversion
between the two.  It is the direct analogue of D-Wave Ocean's ``dimod.BQM``
restricted to what the middle layer needs: energy evaluation (vectorised over
many samples), Ising/QUBO import/export and graph-style construction.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...core.errors import SimulationError

__all__ = ["Vartype", "BinaryQuadraticModel"]

Variable = Hashable


class Vartype(str, Enum):
    """Domain of the decision variables."""

    SPIN = "SPIN"  # s in {-1, +1}
    BINARY = "BINARY"  # x in {0, 1}


class BinaryQuadraticModel:
    """Quadratic energy function over binary/spin variables.

    Energy (SPIN form): ``E(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j + offset``.
    """

    def __init__(
        self,
        linear: Optional[Mapping[Variable, float]] = None,
        quadratic: Optional[Mapping[Tuple[Variable, Variable], float]] = None,
        offset: float = 0.0,
        vartype: Vartype | str = Vartype.SPIN,
    ):
        self.vartype = Vartype(vartype)
        self._linear: Dict[Variable, float] = {}
        self._quadratic: Dict[Tuple[Variable, Variable], float] = {}
        self.offset = float(offset)
        for v, bias in (linear or {}).items():
            self.add_variable(v, bias)
        for (u, v), bias in (quadratic or {}).items():
            self.add_interaction(u, v, bias)

    # -- construction ------------------------------------------------------------
    def add_variable(self, v: Variable, bias: float = 0.0) -> None:
        """Add *bias* to the linear term of *v* (creating it if needed)."""
        self._linear[v] = self._linear.get(v, 0.0) + float(bias)

    def add_interaction(self, u: Variable, v: Variable, bias: float) -> None:
        """Add *bias* to the coupling between *u* and *v* (order-insensitive)."""
        if u == v:
            raise SimulationError(f"self-interaction on variable {u!r} is not allowed")
        self.add_variable(u)
        self.add_variable(v)
        key = self._edge_key(u, v)
        self._quadratic[key] = self._quadratic.get(key, 0.0) + float(bias)

    def _edge_key(self, u: Variable, v: Variable) -> Tuple[Variable, Variable]:
        # Canonical ordering by insertion index keeps keys stable and hashable
        # even when variable labels are not mutually comparable.
        order = {var: i for i, var in enumerate(self._linear)}
        return (u, v) if order[u] <= order[v] else (v, u)

    # -- accessors ----------------------------------------------------------------
    @property
    def variables(self) -> List[Variable]:
        """Variables in insertion order."""
        return list(self._linear)

    @property
    def num_variables(self) -> int:
        return len(self._linear)

    @property
    def num_interactions(self) -> int:
        return len(self._quadratic)

    @property
    def linear(self) -> Dict[Variable, float]:
        """Copy of the linear biases."""
        return dict(self._linear)

    @property
    def quadratic(self) -> Dict[Tuple[Variable, Variable], float]:
        """Copy of the quadratic couplings."""
        return dict(self._quadratic)

    def get_linear(self, v: Variable) -> float:
        return self._linear.get(v, 0.0)

    def get_quadratic(self, u: Variable, v: Variable) -> float:
        if u not in self._linear or v not in self._linear:
            return 0.0
        return self._quadratic.get(self._edge_key(u, v), 0.0)

    # -- dense views -----------------------------------------------------------------
    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Dense ``(h, J, offset)`` with variables in insertion order.

        ``J`` is strictly upper triangular.
        """
        index = {v: i for i, v in enumerate(self.variables)}
        n = self.num_variables
        h = np.zeros(n, dtype=float)
        J = np.zeros((n, n), dtype=float)
        for v, bias in self._linear.items():
            h[index[v]] = bias
        for (u, v), bias in self._quadratic.items():
            i, j = index[u], index[v]
            if i > j:
                i, j = j, i
            J[i, j] += bias
        return h, J, self.offset

    # -- energies ----------------------------------------------------------------------
    def energy(self, sample: Mapping[Variable, int] | Sequence[int]) -> float:
        """Energy of one sample (mapping or sequence in variable order)."""
        if isinstance(sample, Mapping):
            values = np.array([sample[v] for v in self.variables], dtype=float)
        else:
            values = np.asarray(sample, dtype=float)
            if values.shape != (self.num_variables,):
                raise SimulationError("sample length does not match the number of variables")
        return float(self.energies(values[None, :])[0])

    def energies(self, samples: np.ndarray) -> np.ndarray:
        """Vectorised energies of a ``(num_samples, num_variables)`` array."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[None, :]
        if samples.shape[1] != self.num_variables:
            raise SimulationError("sample width does not match the number of variables")
        self._check_domain(samples)
        h, J, offset = self.to_arrays()
        linear_term = samples @ h
        quadratic_term = np.einsum("ki,ij,kj->k", samples, J, samples)
        return linear_term + quadratic_term + offset

    def _check_domain(self, samples: np.ndarray) -> None:
        allowed = (-1.0, 1.0) if self.vartype is Vartype.SPIN else (0.0, 1.0)
        if not np.all(np.isin(samples, allowed)):
            raise SimulationError(
                f"samples contain values outside the {self.vartype.value} domain {allowed}"
            )

    # -- vartype conversion -----------------------------------------------------------------
    def change_vartype(self, vartype: Vartype | str) -> "BinaryQuadraticModel":
        """Return an equivalent model over the requested variable domain.

        Uses the substitution ``s = 2x - 1`` so that energies of corresponding
        samples are identical.
        """
        vartype = Vartype(vartype)
        if vartype == self.vartype:
            return self.copy()
        linear: Dict[Variable, float] = {v: 0.0 for v in self.variables}
        quadratic: Dict[Tuple[Variable, Variable], float] = {}
        offset = self.offset
        if self.vartype is Vartype.SPIN:  # SPIN -> BINARY, s = 2x - 1
            for v, h in self._linear.items():
                linear[v] += 2.0 * h
                offset += -h
            for (u, v), j in self._quadratic.items():
                quadratic[(u, v)] = 4.0 * j
                linear[u] += -2.0 * j
                linear[v] += -2.0 * j
                offset += j
        else:  # BINARY -> SPIN, x = (s + 1) / 2
            for v, q in self._linear.items():
                linear[v] += q / 2.0
                offset += q / 2.0
            for (u, v), q in self._quadratic.items():
                quadratic[(u, v)] = q / 4.0
                linear[u] += q / 4.0
                linear[v] += q / 4.0
                offset += q / 4.0
        return BinaryQuadraticModel(linear, quadratic, offset, vartype)

    # -- import/export -------------------------------------------------------------------------
    def copy(self) -> "BinaryQuadraticModel":
        return BinaryQuadraticModel(self._linear, self._quadratic, self.offset, self.vartype)

    @classmethod
    def from_ising(
        cls,
        h: Mapping[Variable, float] | Sequence[float],
        J: Mapping[Tuple[Variable, Variable], float],
        offset: float = 0.0,
    ) -> "BinaryQuadraticModel":
        """Build a SPIN model from Ising ``(h, J)``."""
        if not isinstance(h, Mapping):
            h = {i: bias for i, bias in enumerate(h)}
        return cls(h, J, offset, Vartype.SPIN)

    def to_ising(self) -> Tuple[Dict[Variable, float], Dict[Tuple[Variable, Variable], float], float]:
        """Export as Ising ``(h, J, offset)`` (converting from BINARY if needed)."""
        model = self.change_vartype(Vartype.SPIN)
        return model.linear, model.quadratic, model.offset

    @classmethod
    def from_qubo(
        cls, Q: Mapping[Tuple[Variable, Variable], float], offset: float = 0.0
    ) -> "BinaryQuadraticModel":
        """Build a BINARY model from a QUBO dictionary (diagonal = linear)."""
        linear: Dict[Variable, float] = {}
        quadratic: Dict[Tuple[Variable, Variable], float] = {}
        for (u, v), bias in Q.items():
            if u == v:
                linear[u] = linear.get(u, 0.0) + bias
            else:
                quadratic[(u, v)] = quadratic.get((u, v), 0.0) + bias
        return cls(linear, quadratic, offset, Vartype.BINARY)

    def to_qubo(self) -> Tuple[Dict[Tuple[Variable, Variable], float], float]:
        """Export as a QUBO dictionary plus offset."""
        model = self.change_vartype(Vartype.BINARY)
        Q: Dict[Tuple[Variable, Variable], float] = {}
        for v, bias in model.linear.items():
            if bias:
                Q[(v, v)] = bias
        for edge, bias in model.quadratic.items():
            if bias:
                Q[edge] = bias
        return Q, model.offset

    @classmethod
    def from_graph(
        cls,
        edges: Iterable[Tuple[Any, Any, float]],
        *,
        linear: Optional[Mapping[Variable, float]] = None,
        vartype: Vartype | str = Vartype.SPIN,
    ) -> "BinaryQuadraticModel":
        """Build a model from weighted edges ``(u, v, bias)``."""
        model = cls(linear or {}, {}, 0.0, vartype)
        for u, v, bias in edges:
            model.add_interaction(u, v, bias)
        return model

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready export (variables stringified)."""
        return {
            "vartype": self.vartype.value,
            "offset": self.offset,
            "linear": {str(v): b for v, b in self._linear.items()},
            "quadratic": [[str(u), str(v), b] for (u, v), b in self._quadratic.items()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BinaryQuadraticModel(vars={self.num_variables}, "
            f"interactions={self.num_interactions}, vartype={self.vartype.value})"
        )
