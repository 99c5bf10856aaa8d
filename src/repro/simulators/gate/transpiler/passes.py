"""Pass manager: the substrate-side consumer of the context's ``target`` block.

:func:`transpile` mirrors the knobs the paper's Listing 4 exposes —
``basis_gates``, ``coupling_map`` and ``optimization_level`` — and reports the
structural metrics (depth, two-qubit count, inserted SWAPs) that feed cost
hints and the scheduler.

Pipeline (roughly Qiskit's preset pass managers, radically simplified):

1. decompose every gate to at most two qubits,
2. choose an initial layout (trivial for level <= 1, greedy for level >= 2),
3. route against the coupling map (SWAP insertion),
4. translate to the requested basis,
5. peephole-optimise (levels >= 1), iterating once more at level >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ....core.errors import TranspilerError
from ..circuit import Circuit
from .decompose import decompose_to_basis
from .layout import Layout, greedy_layout, trivial_layout
from .optimize import optimize_circuit
from .routing import route_circuit

__all__ = ["TranspileResult", "transpile", "set_stage_hook"]

# Verify-each hook (``analysis.set_verify_each``).  ``None`` — the
# production default — costs one identity check per stage; an installed hook
# receives every stage's freshly built output circuit.
_STAGE_HOOK = None


def set_stage_hook(hook) -> None:
    """Install (or clear, with ``None``) the post-stage verification hook.

    The hook is called as ``hook(stage, circuit, source=..., coupling_map=...,
    basis_gates=...)`` after each pipeline stage (``"decompose"``,
    ``"route"``, ``"translate"``, ``"optimize"``) in both the direct
    :func:`transpile` path and the cached replay path.  Installed by
    :func:`repro.simulators.gate.analysis.set_verify_each`.
    """
    global _STAGE_HOOK
    _STAGE_HOOK = hook


def _notify_stage(stage, circuit, *, source=None, coupling_map=None, basis_gates=None):
    hook = _STAGE_HOOK
    if hook is not None:
        hook(
            stage,
            circuit,
            source=source,
            coupling_map=coupling_map,
            basis_gates=basis_gates,
        )

# Basis used to normalise circuits before routing (everything <= 2 qubits).
_PRE_ROUTING_BASIS = (
    "cx", "rz", "sx", "x", "h", "s", "sdg", "t", "tdg", "rx", "ry", "p", "u",
    "cz", "cp", "swap", "rzz",
)


@dataclass
class TranspileResult:
    """A transpiled circuit plus the metadata schedulers care about."""

    circuit: Circuit
    initial_layout: Layout
    final_layout: Layout
    basis_gates: Optional[Tuple[str, ...]]
    coupling_map: Optional[Tuple[Tuple[int, int], ...]]
    num_swaps_inserted: int
    metrics: Dict[str, float] = field(default_factory=dict)


def _pre_route(circuit: Circuit) -> Circuit:
    """Stage 1: normalise to <=2-qubit gates so routing understands the circuit."""
    return decompose_to_basis(circuit, _PRE_ROUTING_BASIS)


def _choose_layout(
    working: Circuit,
    coupling_map: Optional[Sequence[Tuple[int, int]]],
    optimization_level: int,
) -> Layout:
    """Stage 2: default layout selection (trivial below level 2, greedy above)."""
    if coupling_map is not None and optimization_level >= 2:
        return greedy_layout(working.num_qubits, coupling_map)
    return trivial_layout(working.num_qubits)


def _translate_and_optimize(
    routed: Circuit,
    basis_gates: Optional[Sequence[str]],
    optimization_level: int,
    *,
    coupling_map: Optional[Sequence[Tuple[int, int]]] = None,
) -> Circuit:
    """Stages 4-5: basis translation (SWAPs included) and peephole passes."""
    translated = decompose_to_basis(routed, basis_gates) if basis_gates else routed
    _notify_stage(
        "translate",
        translated,
        source=routed,
        coupling_map=coupling_map,
        basis_gates=basis_gates,
    )
    if optimization_level >= 1:
        translated = optimize_circuit(translated)
    if optimization_level >= 2:
        translated = optimize_circuit(translated, iterations=8)
    if optimization_level >= 1:
        _notify_stage(
            "optimize",
            translated,
            source=routed,
            coupling_map=coupling_map,
            basis_gates=basis_gates,
        )
    return translated


def _check_optimization_level(level) -> None:
    """Reject a bool, a non-int or a level outside 0-3 with :class:`TranspilerError`."""
    if isinstance(level, bool) or not isinstance(level, int) or not 0 <= level <= 3:
        raise TranspilerError(f"optimization_level must be an int from 0 to 3, got {level!r}")


def _stamp(basis_gates, coupling_map, optimization_level) -> Dict[str, object]:
    """The pass configuration a transpiled circuit's metadata records."""
    return {
        "basis_gates": list(basis_gates) if basis_gates else None,
        "coupling_map": [list(e) for e in coupling_map] if coupling_map else None,
        "optimization_level": optimization_level,
    }


def _finish_result(
    circuit: Circuit,
    translated: Circuit,
    *,
    initial_layout: Layout,
    final_layout: Layout,
    num_swaps_inserted: int,
    basis_gates: Optional[Sequence[str]],
    coupling_map: Optional[Sequence[Tuple[int, int]]],
    optimization_level: int,
) -> TranspileResult:
    """Stamp metadata/metrics and assemble the :class:`TranspileResult`."""
    translated.metadata.update(_stamp(basis_gates, coupling_map, optimization_level))
    metrics = {
        "original_depth": float(circuit.depth()),
        "original_twoq": float(circuit.num_twoq_gates()),
        "depth": float(translated.depth()),
        "twoq": float(translated.num_twoq_gates()),
        "gates": float(translated.num_gates()),
        "swaps_inserted": float(num_swaps_inserted),
    }
    return TranspileResult(
        circuit=translated,
        initial_layout=initial_layout,
        final_layout=final_layout,
        basis_gates=tuple(basis_gates) if basis_gates else None,
        coupling_map=tuple(tuple(e) for e in coupling_map) if coupling_map else None,
        num_swaps_inserted=num_swaps_inserted,
        metrics=metrics,
    )


def transpile(
    circuit: Circuit,
    *,
    basis_gates: Optional[Sequence[str]] = None,
    coupling_map: Optional[Sequence[Tuple[int, int]]] = None,
    optimization_level: int = 1,
    initial_layout: Optional[Layout] = None,
) -> TranspileResult:
    """Lower *circuit* to the target described by the execution context."""
    _check_optimization_level(optimization_level)

    # 1. normalise to <=2-qubit gates so routing has something it understands.
    working = _pre_route(circuit)
    _notify_stage("decompose", working, source=circuit)

    # 2. layout selection.
    if initial_layout is None:
        initial_layout = _choose_layout(working, coupling_map, optimization_level)

    # 3. routing.
    routing = route_circuit(working, coupling_map, initial_layout=initial_layout)
    _notify_stage("route", routing.circuit, source=working, coupling_map=coupling_map)

    # 4-5. basis translation and optimisation.
    translated = _translate_and_optimize(
        routing.circuit, basis_gates, optimization_level, coupling_map=coupling_map
    )

    return _finish_result(
        circuit,
        translated,
        initial_layout=routing.initial_layout,
        final_layout=routing.final_layout,
        num_swaps_inserted=routing.num_swaps_inserted,
        basis_gates=basis_gates,
        coupling_map=coupling_map,
        optimization_level=optimization_level,
    )
