"""Backends: the only layer that knows how descriptors become executions."""

from .anneal_backend import AnnealBackend, bqm_from_operator
from .base import Backend, ExecutionResult
from .exact_backend import ExactBackend
from .gate_backend import GateBackend
from .lowering import GATE_LOWERING_RULES, QubitAllocation, lower_operator, register_gate_lowering
from .registry import get_backend, list_engines, register_backend
from .runtime import submit

__all__ = [
    "Backend",
    "ExecutionResult",
    "GateBackend",
    "AnnealBackend",
    "ExactBackend",
    "bqm_from_operator",
    "get_backend",
    "list_engines",
    "register_backend",
    "submit",
    "GATE_LOWERING_RULES",
    "QubitAllocation",
    "lower_operator",
    "register_gate_lowering",
]
