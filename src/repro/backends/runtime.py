"""Submission runtime: validate a bundle, pick the backend, execute, record.

:func:`submit` is the single call applications use once a bundle exists — it
re-validates, resolves the engine named by the context, checks backend
capabilities, runs, and annotates the result with wall-clock timing and the
bundle digest so results remain traceable to their submission artifact.

:func:`submit_merged` is the group analogue for the serving layer's merged
execution fast path: a group of bundles that share one backend merge key
runs as one backend invocation (one lowering, one transpile, one compile,
one batched evolution).  Both run one submission body, so each merged
result is stamped exactly as ``submit`` stamps — the shared wall time is
the group's, since the jobs genuinely executed together.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from ..core.bundle import JobBundle
from ..core.errors import ContextError
from .base import Backend, ExecutionResult
from .registry import get_backend

__all__ = ["submit", "submit_merged"]


def submit(
    bundle: JobBundle,
    *,
    backend: Optional[Backend] = None,
    validate: bool = True,
) -> ExecutionResult:
    """Execute *bundle* on the backend selected by its context.

    Parameters
    ----------
    backend:
        Explicit backend override (useful in tests); by default the engine
        named by ``bundle.context.exec.engine`` is resolved from the registry.
    validate:
        Re-run full bundle validation before execution (on by default).
    """
    return _submit([bundle], backend, validate, lambda selected: [selected.run(bundle)])[0]


def submit_merged(
    bundles: Sequence[JobBundle],
    *,
    backend: Optional[Backend] = None,
    validate: bool = True,
) -> List[ExecutionResult]:
    """Execute a group of bundles that share one merge key as one merged backend run.

    Every bundle must carry a context, and they must all resolve to the same
    backend.  The backend's ``run_merged`` checks that their ``merge_key``
    values match and raises :class:`~repro.core.errors.BackendError` before
    any work when they do not.  Returns one :class:`ExecutionResult` per
    bundle, in order, each annotated with the group's shared wall time and
    its own requested engine.
    """
    if not bundles:
        return []
    return _submit(bundles, backend, validate, lambda selected: selected.run_merged(bundles))


def _submit(
    bundles: Sequence[JobBundle],
    backend: Optional[Backend],
    validate: bool,
    run: Callable[[Backend], List[ExecutionResult]],
) -> List[ExecutionResult]:
    """The one submission body: check, resolve the backend, time *run*, stamp.

    ``run(selected)`` makes the one backend call, returning a result per
    bundle; every result gets that call's wall time (a merged group's is
    genuinely shared) and its own bundle's requested engine.
    """
    for bundle in bundles:
        if bundle.context is None:
            raise ContextError(
                "bundle has no execution context; attach a ContextDescriptor "
                "before submitting"
            )
        if validate:
            bundle.validate()
    selected = backend or get_backend(bundles[0].context.exec.engine)
    for bundle in bundles:
        selected.check_capabilities(bundle)

    # Submission-level wall time is user-facing runtime telemetry, not a
    # kernel: the one sanctioned clock read outside benchmarks.
    started = time.perf_counter()  # lint: allow(TIME001)
    results = run(selected)
    elapsed = time.perf_counter() - started  # lint: allow(TIME001)
    for bundle, result in zip(bundles, results):
        result.metadata.setdefault("wall_time_s", elapsed)
        result.metadata.setdefault("engine_requested", bundle.context.exec.engine)
    return results
