"""Best-effort BLAS/OpenMP thread pinning for the trajectory worker pool.

With ``trajectory_workers > 1`` the batched engine runs one shot chunk per
Python thread, and every chunk's GEMM calls into the host BLAS.  A BLAS
built with its own OpenMP team then spawns ``cores`` threads *per worker* —
``workers x cores`` runnable threads on ``cores`` cores — and the resulting
oversubscription (cache thrashing, context switches) routinely makes the
"parallel" configuration slower than the serial one.  The fix is standard:
pin the BLAS pool to roughly ``cores / workers`` threads while the chunk
pool is active, keeping the total runnable thread count near the core
count.

:func:`limit_blas_threads` implements that as a context manager with two
strategies:

* when ``threadpoolctl`` is importable it is used directly — it adjusts the
  already-loaded OpenBLAS/MKL/BLIS pools at runtime and restores them on
  exit, which is the reliable path;
* otherwise the ``*_NUM_THREADS`` environment-variable family is set for the
  duration of the block and restored afterwards.  Environment variables only
  bind when a library initialises its pool, so this fallback protects
  lazily-loaded libraries and child processes but cannot shrink a pool that
  is already warm — it is **best-effort by design** (the container this
  project targets ships no ``threadpoolctl``).

The simulator engages the guard whenever more than one trajectory worker
runs.  Overlapping guards (two service lanes, each running a multi-worker
job) share one pin, held at the smallest active limit until the last guard
exits.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["limit_blas_threads", "THREAD_ENV_VARS"]

#: Environment variables honoured by the common BLAS/OpenMP runtimes, set and
#: restored by the fallback strategy of :func:`limit_blas_threads`.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The pools and the environment are process-global, so the guards share one
# pin: _ACTIVE holds the limits of the guards inside their block, _restore
# undoes the first guard's pin.  Both are guarded by _LOCK.
_LOCK = threading.Lock()
_ACTIVE: List[int] = []
_restore: Optional[Callable[[], None]] = None


def _pin(limit: int) -> Callable[[], None]:
    """Cap the pools at *limit*; return a callable that undoes this pin."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        saved = {var: os.environ.get(var) for var in THREAD_ENV_VARS}
        os.environ.update({var: str(limit) for var in THREAD_ENV_VARS})
        return lambda: _restore_env(saved)
    return threadpool_limits(limits=limit).restore_original_limits


def _restore_env(saved: Dict[str, Optional[str]]) -> None:
    """Put back the ``*_NUM_THREADS`` values :func:`_pin` saved."""
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def _repin_locked() -> None:
    """Pin at the smallest active limit; restore the host's settings when none is left."""
    global _restore
    if not _ACTIVE:
        _restore()
        _restore = None
        return
    undo = _pin(min(_ACTIVE))
    if _restore is None:  # only the first pin saw the host's settings
        _restore = undo


@contextmanager
def limit_blas_threads(limit: int = 1) -> Iterator[None]:
    """Cap BLAS/OpenMP thread pools at *limit* threads for the with-block.

    Prefers ``threadpoolctl`` (runtime control of loaded pools); falls back
    to setting the ``*_NUM_THREADS`` environment variables, which
    lazily-initialised pools honour.  Re-entrant, thread-safe and
    exception-safe either way: overlapping guards keep the pools at the
    smallest active limit, and the host's settings come back when the last
    guard exits.
    """
    if limit < 1:
        raise ValueError("limit_blas_threads needs limit >= 1")
    with _LOCK:
        _ACTIVE.append(limit)
        _repin_locked()
    try:
        yield
    finally:
        with _LOCK:
            _ACTIVE.remove(limit)
            _repin_locked()
