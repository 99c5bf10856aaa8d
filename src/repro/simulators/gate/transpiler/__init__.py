"""Transpiler passes for the gate-model substrate."""

from .cache import (
    clear_transpile_cache,
    transpile_cache_info,
    transpile_cached,
)
from .decompose import decompose_to_basis, decompose_1q_matrix, zyz_angles
from .layout import Layout, coupling_graph, greedy_layout, trivial_layout
from .optimize import cancel_inverse_pairs, merge_rotations, optimize_circuit, remove_identities
from .passes import TranspileResult, transpile
from .routing import RoutingResult, route_circuit

__all__ = [
    "transpile",
    "transpile_cached",
    "transpile_cache_info",
    "clear_transpile_cache",
    "TranspileResult",
    "decompose_to_basis",
    "decompose_1q_matrix",
    "zyz_angles",
    "Layout",
    "coupling_graph",
    "trivial_layout",
    "greedy_layout",
    "route_circuit",
    "RoutingResult",
    "optimize_circuit",
    "remove_identities",
    "cancel_inverse_pairs",
    "merge_rotations",
]
