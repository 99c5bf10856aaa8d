"""BLAS/OpenMP thread pinning for the trajectory worker pool.

With ``trajectory_workers > 1`` the batched engine runs one shot chunk per
Python thread, and every chunk's GEMM calls into the host BLAS.  A BLAS
built with its own OpenMP team then spawns ``cores`` threads *per worker* —
``workers x cores`` runnable threads on ``cores`` cores — and the resulting
oversubscription (cache thrashing, context switches) routinely makes the
"parallel" configuration slower than the serial one.  The fix is standard:
pin the BLAS pool to roughly ``cores / workers`` threads while the chunk
pool is active, keeping the total runnable thread count near the core
count.

:func:`limit_blas_threads` implements that as a context manager on top of
``threadpoolctl``, which adjusts the already-loaded OpenBLAS/MKL/BLIS pools
at runtime and restores them on exit.  Without ``threadpoolctl`` the guard
validates its limit and changes nothing: a BLAS pool sizes itself from the
``*_NUM_THREADS`` environment variables once, when it loads, so writing them
later pins no pool this process or its forkserver workers already hold.  On
such a host set ``OPENBLAS_NUM_THREADS`` (or ``OMP_NUM_THREADS``) before
Python starts.

The simulator engages the guard whenever more than one trajectory worker
runs.  Overlapping guards (two service lanes, each running a multi-worker
job) share one pin, held at the smallest active limit until the last guard
exits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

__all__ = ["limit_blas_threads"]

# The pools are process-global, so the guards share one pin: _ACTIVE holds
# the limits of the guards inside their block, _restore undoes the first
# guard's pin.  Both are guarded by _LOCK.
_LOCK = threading.Lock()
_ACTIVE: List[int] = []
_restore: Optional[Callable[[], None]] = None


def _repin_locked(threadpool_limits) -> None:
    """Pin at the smallest active limit; restore the host's pools when none is left."""
    global _restore
    if not _ACTIVE:
        _restore()
        _restore = None
        return
    undo = threadpool_limits(limits=min(_ACTIVE)).restore_original_limits
    if _restore is None:  # only the first pin saw the host's settings
        _restore = undo


@contextmanager
def limit_blas_threads(limit: int = 1) -> Iterator[None]:
    """Cap BLAS/OpenMP thread pools at *limit* threads for the with-block.

    Uses ``threadpoolctl`` (runtime control of loaded pools).  Re-entrant,
    thread-safe and exception-safe: overlapping guards keep the pools at the
    smallest active limit, and the host's pool sizes come back when the last
    guard exits.  Without ``threadpoolctl`` it validates *limit* and touches
    nothing else.
    """
    if limit < 1:
        raise ValueError("limit_blas_threads needs limit >= 1")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:  # no runtime control of the pools: nothing to pin
        threadpool_limits = None
    if threadpool_limits is None:
        yield
        return
    with _LOCK:
        _ACTIVE.append(limit)
        _repin_locked(threadpool_limits)
    try:
        yield
    finally:
        with _LOCK:
            _ACTIVE.remove(limit)
            _repin_locked(threadpool_limits)
