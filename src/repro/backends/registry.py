"""Engine registry: mapping context engine names to backend instances.

The execution context selects an engine by name (``"gate.aer_simulator"``,
``"anneal.simulated_annealer"``, ...).  The registry resolves those names to
backend factories, so new backends plug in with a single
:func:`register_backend` call and nothing upstream changes — the late-binding
property the blueprint requires.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.errors import BackendError
from .anneal_backend import AnnealBackend
from .base import Backend
from .exact_backend import ExactBackend
from .gate_backend import GateBackend

__all__ = [
    "register_backend",
    "get_backend",
    "list_engines",
    "resolve_engine_family",
    "resolve_trajectory_executor",
]

BackendFactory = Callable[[], Backend]

_FACTORIES: Dict[str, BackendFactory] = {}
_INSTANCES: Dict[str, Backend] = {}


def register_backend(factory: BackendFactory, *, engines: Optional[List[str]] = None, replace: bool = False) -> None:
    """Register *factory* for the given engine names (default: the backend's own)."""
    probe = factory()
    names = list(engines) if engines is not None else list(probe.engines)
    for engine in names:
        if engine in _FACTORIES and not replace:
            raise BackendError(f"engine {engine!r} already registered")
        _FACTORIES[engine] = factory
        _INSTANCES.pop(engine, None)


def get_backend(engine: str) -> Backend:
    """Resolve an engine name to a (cached) backend instance."""
    if engine not in _FACTORIES:
        raise BackendError(
            f"no backend registered for engine {engine!r}; known engines: {list_engines()}"
        )
    if engine not in _INSTANCES:
        _INSTANCES[engine] = _FACTORIES[engine]()
    return _INSTANCES[engine]


def list_engines() -> List[str]:
    """Sorted names of every registered engine."""
    return sorted(_FACTORIES)


def resolve_engine_family(engine: str) -> str:
    """Engine family prefix (``gate``, ``anneal``, ``exact``, ...)."""
    return engine.split(".", 1)[0]


def resolve_trajectory_executor(requested: str = "auto") -> str:
    """Resolve the ``trajectory_executor`` knob against the host.

    ``"auto"`` picks the process-pool executor on multi-core hosts — where
    process-level parallelism is what actually scales past the GIL — and the
    zero-startup-cost thread executor on a single core, where a worker pool
    can only add overhead.  Any other value passes through unchanged (the
    simulator validates it).
    """
    if requested != "auto":
        return requested
    import os

    return "process" if (os.cpu_count() or 1) > 1 else "thread"


# Reference backends shipped with the library.
register_backend(GateBackend)
register_backend(AnnealBackend)
register_backend(ExactBackend)
