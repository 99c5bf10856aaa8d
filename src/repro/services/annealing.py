"""Orthogonal annealing service: hardware-graph embedding and submission.

Real annealers expose a fixed hardware topology (D-Wave's Chimera/Pegasus);
logical problem variables must be *minor-embedded* onto chains of physical
qubits before submission.  This service provides:

* :func:`chimera_graph` — a Chimera-style target topology generator,
* :class:`EmbeddingService` — a greedy path-based minor embedder that reports
  the chains, physical qubit usage and maximum chain length,
* :class:`AnnealingSubmissionService` — applies the embedding bookkeeping and
  forwards the (logical) problem to the simulated annealer, mirroring how the
  middle layer would hand an ``ISING_PROBLEM`` descriptor to a hardware
  backend while keeping the descriptor itself untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..core.errors import ServiceError
from ..results.sampleset import SampleSet
from ..simulators.anneal.bqm import BinaryQuadraticModel
from ..simulators.anneal.sampler import SimulatedAnnealingSampler

__all__ = ["chimera_graph", "Embedding", "EmbeddingService", "AnnealingSubmissionService"]


def chimera_graph(rows: int, cols: Optional[int] = None, shore: int = 4) -> nx.Graph:
    """A Chimera-like topology: a rows x cols grid of K_{shore,shore} unit cells.

    Within a cell, every "left" qubit couples to every "right" qubit; left
    qubits couple to the matching left qubits of vertical neighbours, right
    qubits to horizontal neighbours (the D-Wave Chimera wiring).
    """
    cols = rows if cols is None else cols
    if rows < 1 or cols < 1 or shore < 1:
        raise ServiceError("chimera_graph needs positive dimensions")
    graph = nx.Graph()

    def node(r: int, c: int, side: int, k: int) -> int:
        return ((r * cols + c) * 2 + side) * shore + k

    for r in range(rows):
        for c in range(cols):
            for k_left in range(shore):
                for k_right in range(shore):
                    graph.add_edge(node(r, c, 0, k_left), node(r, c, 1, k_right))
            if r + 1 < rows:
                for k in range(shore):
                    graph.add_edge(node(r, c, 0, k), node(r + 1, c, 0, k))
            if c + 1 < cols:
                for k in range(shore):
                    graph.add_edge(node(r, c, 1, k), node(r, c + 1, 1, k))
    return graph


@dataclass
class Embedding:
    """A minor embedding: each logical variable owns a chain of physical qubits."""

    chains: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def num_logical(self) -> int:
        """Number of logical variables (one chain each)."""
        return len(self.chains)

    @property
    def num_physical(self) -> int:
        """Number of physical qubits over all chains."""
        return sum(len(chain) for chain in self.chains.values())

    @property
    def max_chain_length(self) -> int:
        """Length of the longest chain (``0`` for an empty embedding)."""
        return max((len(chain) for chain in self.chains.values()), default=0)

    def physical_qubits(self) -> List[int]:
        """Every physical qubit the embedding uses, sorted."""
        return sorted(q for chain in self.chains.values() for q in chain)

    def validate(self, problem_graph: nx.Graph, target_graph: nx.Graph) -> None:
        """Check the defining properties of a minor embedding."""
        used: Dict[int, int] = {}
        for variable, chain in self.chains.items():
            if not chain:
                raise ServiceError(f"variable {variable} has an empty chain")
            for qubit in chain:
                if qubit in used:
                    raise ServiceError(
                        f"physical qubit {qubit} used by variables {used[qubit]} and {variable}"
                    )
                used[qubit] = variable
            if len(chain) > 1 and not nx.is_connected(target_graph.subgraph(chain)):
                raise ServiceError(f"chain of variable {variable} is not connected")
        for u, v in problem_graph.edges:
            if not any(
                target_graph.has_edge(a, b)
                for a in self.chains[u]
                for b in self.chains[v]
            ):
                raise ServiceError(f"problem edge ({u}, {v}) has no physical coupler")


class EmbeddingService:
    """Greedy path-based minor embedding onto a target hardware graph."""

    def embed(self, problem_graph: nx.Graph, target_graph: nx.Graph) -> Embedding:
        """Embed *problem_graph* into *target_graph*, growing chains as needed."""
        if problem_graph.number_of_nodes() > target_graph.number_of_nodes():
            raise ServiceError("target graph has fewer qubits than the problem has variables")
        order = sorted(problem_graph.nodes, key=lambda n: -problem_graph.degree[n])
        chains: Dict[int, List[int]] = {}
        used: set[int] = set()

        for variable in order:
            mapped_neighbors = [n for n in problem_graph.neighbors(variable) if n in chains]
            if not mapped_neighbors:
                candidate = max(
                    (n for n in target_graph.nodes if n not in used),
                    key=lambda n: target_graph.degree[n],
                    default=None,
                )
                if candidate is None:
                    raise ServiceError("ran out of physical qubits during embedding")
                chains[variable] = [candidate]
                used.add(candidate)
                continue
            chain, extra_used = self._grow_chain(
                target_graph, used, [chains[n] for n in mapped_neighbors]
            )
            chains[variable] = chain
            used.update(extra_used)

        embedding = Embedding(chains=chains)
        embedding.validate(problem_graph, target_graph)
        return embedding

    def _grow_chain(
        self,
        target: nx.Graph,
        used: set,
        neighbor_chains: Sequence[List[int]],
    ) -> Tuple[List[int], List[int]]:
        """Pick a free root adjacent-or-near every mapped neighbour chain.

        The chain starts at the free qubit minimising total shortest-path
        distance to the neighbour chains (paths through free qubits only),
        then absorbs the interior qubits of those paths.
        """
        free_nodes = [n for n in target.nodes if n not in used]
        if not free_nodes:
            raise ServiceError("ran out of physical qubits during embedding")
        free_graph_nodes = set(free_nodes)

        best_root, best_paths, best_score = None, None, None
        for root in free_nodes:
            paths = []
            score = 0
            feasible = True
            for chain in neighbor_chains:
                # Shortest path from root to any qubit of the neighbour chain,
                # travelling through free qubits (plus the chain endpoints).
                allowed = free_graph_nodes | set(chain)
                sub = target.subgraph(allowed)
                try:
                    path = min(
                        (nx.shortest_path(sub, root, q) for q in chain if q in sub),
                        key=len,
                    )
                except (ValueError, nx.NetworkXNoPath, nx.NodeNotFound):
                    feasible = False
                    break
                paths.append(path)
                score += len(path)
            if feasible and (best_score is None or score < best_score):
                best_root, best_paths, best_score = root, paths, score
        if best_root is None:
            raise ServiceError("could not embed: no connected placement found")

        chain = [best_root]
        extra = [best_root]
        for path in best_paths:
            # Interior nodes of the path (excluding the root and the neighbour's qubit)
            for node in path[1:-1]:
                if node not in chain:
                    chain.append(node)
                    extra.append(node)
        return chain, extra


class AnnealingSubmissionService:
    """Embed (for accounting) and submit an Ising problem to the annealer."""

    def __init__(self, sampler: Optional[SimulatedAnnealingSampler] = None):
        self.sampler = sampler or SimulatedAnnealingSampler()
        self.embedder = EmbeddingService()

    def submit(
        self,
        bqm: BinaryQuadraticModel,
        *,
        target_graph: Optional[nx.Graph] = None,
        num_reads: int = 1000,
        num_sweeps: int = 1000,
        seed: Optional[int] = None,
    ) -> Tuple[SampleSet, Optional[Embedding]]:
        """Sample *bqm*; when a target graph is given, also report the embedding."""
        embedding = None
        if target_graph is not None:
            problem_graph = nx.Graph()
            problem_graph.add_nodes_from(range(bqm.num_variables))
            index = {v: i for i, v in enumerate(bqm.variables)}
            for (u, v), _ in bqm.quadratic.items():
                problem_graph.add_edge(index[u], index[v])
            embedding = self.embedder.embed(problem_graph, target_graph)
        sampleset = self.sampler.sample(
            bqm, num_reads=num_reads, num_sweeps=num_sweeps, seed=seed
        )
        return sampleset, embedding
