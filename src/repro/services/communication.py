"""Orthogonal communication service: multi-QPU partitioning and teleportation.

When the execution context declares a distributed policy (``comm`` block:
several QPUs of bounded capacity, teleportation allowed), this service decides
which register carriers live on which QPU and counts the entangling
operations that cross the partition — each crossing needs one EPR pair and a
teleported (remote) gate.  The output is a plan the scheduler and cost model
can consume; no actual networking is simulated, matching the blueprint's
scope (communication is a *service the context binds*, not program
semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from ..core.bundle import JobBundle
from ..core.context import CommPolicy
from ..core.errors import ServiceError

__all__ = ["CommunicationPlan", "CommunicationService", "interaction_graph"]


def interaction_graph(bundle: JobBundle) -> nx.Graph:
    """Carrier-level interaction graph of a bundle.

    Nodes are global carrier indices (registers allocated contiguously in
    declaration order); an edge's weight counts how many two-carrier
    interactions the operator sequence requests between them.
    """
    offsets: Dict[str, int] = {}
    next_index = 0
    for register_id, qdt in bundle.qdts.items():
        offsets[register_id] = next_index
        next_index += qdt.width
    graph = nx.Graph()
    graph.add_nodes_from(range(next_index))

    def add(u: int, v: int) -> None:
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += 1.0
        else:
            graph.add_edge(u, v, weight=1.0)

    for op in bundle.operators:
        register = op.primary_register
        base = offsets[register]
        edges = op.params.get("edges")
        if edges:
            for i, j in edges:
                add(base + int(i), base + int(j))
            continue
        if op.rep_kind == "QFT_TEMPLATE":
            width = bundle.qdts[register].width
            for i in range(width):
                for j in range(i + 1, width):
                    add(base + i, base + j)
            continue
        if len(op.registers) > 1:
            # Cross-register operators couple carriers pairwise by index.
            registers = op.registers
            for a_idx in range(len(registers) - 1):
                reg_a, reg_b = registers[a_idx], registers[a_idx + 1]
                width = min(bundle.qdts[reg_a].width, bundle.qdts[reg_b].width)
                for c in range(width):
                    add(offsets[reg_a] + c, offsets[reg_b] + c)
    return graph


@dataclass
class CommunicationPlan:
    """Partitioning decision plus its communication cost."""

    num_qpus: int
    assignment: Dict[int, int]  # carrier -> QPU index
    cut_edges: List[Tuple[int, int]] = field(default_factory=list)
    epr_pairs: int = 0
    teleported_gates: int = 0
    estimated_fidelity: float = 1.0

    def carriers_on(self, qpu: int) -> List[int]:
        """The carriers assigned to QPU *qpu*, sorted."""
        return sorted(c for c, q in self.assignment.items() if q == qpu)

    @property
    def is_distributed(self) -> bool:
        """Whether the plan spans several QPUs and cuts at least one edge."""
        return self.num_qpus > 1 and bool(self.cut_edges)


class CommunicationService:
    """Partition bundles across QPUs under a :class:`CommPolicy`."""

    def plan(self, bundle: JobBundle, policy: Optional[CommPolicy] = None) -> CommunicationPlan:
        """Assign carriers to QPUs and count the resulting remote operations."""
        if policy is None:
            policy = bundle.context.comm if bundle.context is not None else None
        if policy is None:
            policy = CommPolicy()

        graph = interaction_graph(bundle)
        total_carriers = graph.number_of_nodes()
        required_qpus = max(1, -(-total_carriers // policy.qpu_capacity))  # ceil division
        if required_qpus > policy.max_qpus:
            raise ServiceError(
                f"{total_carriers} carriers need {required_qpus} QPUs of capacity "
                f"{policy.qpu_capacity}, but the policy allows only {policy.max_qpus}"
            )
        num_qpus = required_qpus
        if num_qpus == 1:
            assignment = {c: 0 for c in graph.nodes}
            return CommunicationPlan(num_qpus=1, assignment=assignment)

        if not policy.allow_teleportation:
            raise ServiceError(
                "the bundle does not fit on a single QPU and teleportation is disallowed"
            )

        assignment = self._partition(graph, num_qpus, policy.qpu_capacity)
        cut_edges = [
            (u, v) for u, v in graph.edges if assignment[u] != assignment[v]
        ]
        teleported = int(sum(graph[u][v]["weight"] for u, v in cut_edges))
        fidelity = policy.epr_fidelity ** teleported
        return CommunicationPlan(
            num_qpus=num_qpus,
            assignment=assignment,
            cut_edges=cut_edges,
            epr_pairs=teleported,
            teleported_gates=teleported,
            estimated_fidelity=fidelity,
        )

    def _partition(
        self, graph: nx.Graph, num_qpus: int, capacity: int
    ) -> Dict[int, int]:
        """Recursive Kernighan-Lin bisection into balanced, capacity-bounded parts."""
        parts: List[List[int]] = [list(graph.nodes)]
        while len(parts) < num_qpus:
            # Split the largest part.
            parts.sort(key=len, reverse=True)
            largest = parts.pop(0)
            if len(largest) <= 1:
                parts.append(largest)
                break
            subgraph = graph.subgraph(largest)
            left, right = nx.algorithms.community.kernighan_lin_bisection(
                subgraph, weight="weight", seed=0
            )
            parts.extend([sorted(left), sorted(right)])
        # Enforce capacity by moving overflow carriers to the emptiest part.
        parts.sort(key=len, reverse=True)
        for part in parts:
            while len(part) > capacity:
                target = min(parts, key=len)
                if target is part:
                    raise ServiceError("cannot satisfy QPU capacity constraints")
                target.append(part.pop())
        assignment: Dict[int, int] = {}
        for index, part in enumerate(parts):
            for carrier in part:
                assignment[carrier] = index
        return assignment
