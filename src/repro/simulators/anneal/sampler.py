"""Simulated-annealing sampler (the D-Wave Ocean ``neal`` stand-in).

The sampler runs ``num_reads`` independent Metropolis annealing trajectories
over a :class:`~repro.simulators.anneal.bqm.BinaryQuadraticModel`.  All reads
are advanced simultaneously with NumPy: each sweep visits every variable once
and, for each read, proposes a single-spin flip accepted with the Metropolis
probability at the sweep's inverse temperature.

Each sweep draws a permutation of the variables (the visiting order), then
one ``(num_variables, num_reads)`` block of uniforms: the same stream as one
draw per visit, so seeded samples equal those of the one-draw-per-visit loop
the tests keep as their oracle.  A visit costs one local-field matrix-vector
product and a short chain of in-place NumPy calls.

Spins are simulated in SPIN form regardless of the model's vartype; BINARY
models are converted on entry and results are always reported as spins (the
middle layer's decoding convention maps ``+1 -> 0``, ``-1 -> 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ...core.errors import SimulationError
from ...results.sampleset import SampleSet
from .bqm import BinaryQuadraticModel, Vartype
from .schedule import beta_schedule, default_beta_range

__all__ = ["SimulatedAnnealingSampler"]


@dataclass
class SimulatedAnnealingSampler:
    """Classical Metropolis annealer over binary quadratic models."""

    default_num_reads: int = 100
    default_num_sweeps: int = 1000

    def sample(
        self,
        bqm: BinaryQuadraticModel,
        *,
        num_reads: Optional[int] = None,
        num_sweeps: Optional[int] = None,
        beta_range: Optional[Tuple[float, float]] = None,
        schedule: str = "geometric",
        seed: Optional[int] = None,
        initial_states: Optional[np.ndarray] = None,
    ) -> SampleSet:
        """Draw samples from (a low-temperature distribution of) *bqm*.

        Returns an aggregated :class:`SampleSet` whose variables follow the
        model's variable order.
        """
        num_reads = self.default_num_reads if num_reads is None else int(num_reads)
        num_sweeps = self.default_num_sweeps if num_sweeps is None else int(num_sweeps)
        if num_reads < 1:
            raise SimulationError("num_reads must be >= 1")
        if num_sweeps < 1:
            raise SimulationError("num_sweeps must be >= 1")
        if bqm.num_variables == 0:
            raise SimulationError("cannot sample an empty model")

        spin_model = bqm.change_vartype(Vartype.SPIN)
        h, J, offset = spin_model.to_arrays()
        n = len(h)
        # Symmetric coupling matrix for local-field computation.
        W = J + J.T

        rng = np.random.default_rng(seed)
        if initial_states is not None:
            states = np.asarray(initial_states, dtype=np.int8).copy()
            if states.shape != (num_reads, n):
                raise SimulationError("initial_states must have shape (num_reads, num_variables)")
            if not np.all(np.isin(states, (-1, 1))):
                raise SimulationError("initial_states must be +1/-1 spins")
        else:
            states = rng.choice(np.array([-1, 1], dtype=np.int8), size=(num_reads, n))

        betas = beta_schedule(
            num_sweeps, beta_range or default_beta_range(spin_model), schedule
        )

        states_f = states.astype(float)
        # Prebuilt column views and Python scalars trim per-visit interpreter cost.
        spins_of = [states_f[:, v] for v in range(n)]
        couplings_of = [W[:, v] for v in range(n)]
        fields = h.tolist()
        for beta in betas.tolist():
            order = rng.permutation(n).tolist()
            uniforms = rng.random((n, num_reads))  # row k serves the k-th visit
            cap = 700.0 / beta
            for var, uniform in zip(order, uniforms):
                spins = spins_of[var]
                # p holds the local field, then dE = -2 * s_i * field, then the
                # acceptance probability exp(-beta * clip(dE, 0, 700 / beta)), which
                # is 1 for dE <= 0: every uniform in [0, 1) is below it.
                p = states_f @ couplings_of[var]
                if fields[var]:  # adding a zero bias changes no decision
                    p += fields[var]
                p *= spins
                p *= -2.0
                np.maximum(p, 0.0, out=p)
                np.minimum(p, cap, out=p)
                p *= -beta
                np.exp(p, out=p)
                spins *= np.where(uniform < p, -1.0, 1.0)

        samples = states_f.astype(np.int8)
        energies = spin_model.energies(samples)
        sample_set = SampleSet(
            samples,
            energies,
            variables=[str(v) for v in spin_model.variables],
        )
        return sample_set.aggregate()

    def sample_ising(
        self,
        h,
        J,
        **kwargs,
    ) -> SampleSet:
        """Convenience wrapper mirroring Ocean's ``sample_ising`` signature."""
        return self.sample(BinaryQuadraticModel.from_ising(h, J), **kwargs)

    def sample_qubo(self, Q, **kwargs) -> SampleSet:
        """Convenience wrapper mirroring Ocean's ``sample_qubo`` signature."""
        return self.sample(BinaryQuadraticModel.from_qubo(Q), **kwargs)
