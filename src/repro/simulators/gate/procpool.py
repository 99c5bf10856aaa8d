"""Persistent process pool for trajectory chunk execution.

The thread-pool chunk executor in :mod:`~repro.simulators.gate.statevector`
is break-even on CPython — the per-chunk Python bookkeeping between the
GIL-releasing NumPy kernels serialises the workers — so real scale-out needs
process-level parallelism.  This module owns that seam:

* a **persistent** ``ProcessPoolExecutor`` (forkserver start method where
  available, spawn otherwise), created on first use and reused across runs
  and jobs;
* **one task for every engine and grouping**: the parent's super-chunk plan
  (each super-chunk a list of ``(job, chunk_id, size, stream)`` segments,
  exactly as the thread path executes it) is dealt round-robin into at most
  ``workers`` groups, and :func:`run_chunks` ships each group with the
  circuit and a small picklable engine value.  The worker compiles through
  its own warm compile caches (a parameter re-bind after the first run of a
  structure) and runs the same chunk body as the thread path
  (:func:`~repro.simulators.gate.statevector.run_super_chunk`), so seeded
  counts are **bit-identical** to the thread executor (and to serial
  execution) at every worker count;
* **worker-crash recovery**: a dead worker breaks the whole
  ``ProcessPoolExecutor`` (every unfinished future raises
  ``BrokenProcessPool``), so the executor collects what completed, retires
  the broken pool, builds a fresh one, and re-dispatches **only the lost
  groups** — each still carrying its original segments, so the recovered
  run re-draws from the same ``SeedSequence`` streams and seeded counts stay
  bit-identical to an uncrashed run.  Recovery is budgeted per run
  (:data:`MAX_POOL_REBUILDS`); exhaustion raises the transient
  :class:`~repro.core.errors.WorkerCrashError` for the serving layer's
  retry/degradation ladder.  Reassembly is validated: a super-chunk slot
  that was never filled raises the typed
  :class:`~repro.core.errors.ChunkReassemblyError` instead of passing
  ``None`` rows downstream.

The pool is generation-tagged and **leased**: callers acquire the current
generation, submit and collect against their leased executor, and release
it afterwards.  Growth (a request for more workers) starts a new generation
immediately but only shuts the old one down once its last lease is
released, so a concurrent in-flight run can never be stranded mid-collect.
A request for fewer workers reuses the existing (larger) generation —
effective parallelism is bounded by the group count, and shrinking would
throw away warm worker processes.  ``fork`` is deliberately not used
even where available: the workers must not inherit the parent's BLAS
thread pools or lock state mid-operation.

Deterministic fault injection (:mod:`~repro.simulators.gate.faults`) rides
the task payloads: a :class:`~repro.simulators.gate.faults.FaultPlan` fires
inside the worker immediately before a chunk executes, keyed on
``(chunk_id, attempt)``, where ``chunk_id`` is the super-chunk index (the
standalone chunk index for a single job).  Re-dispatched groups carry
``attempt + 1`` so an injected crash fires once and the recovery runs
clean.  Without a plan the
hot path pays one ``is None`` check per chunk.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...core.errors import ChunkReassemblyError, WorkerCrashError

__all__ = [
    "MAX_POOL_REBUILDS",
    "shutdown_worker_pool",
    "worker_pool_info",
    "executor_health",
    "run_chunks",
]

#: Pool rebuilds allowed within one :func:`run_chunks` call before giving up
#: with :class:`WorkerCrashError`.  Two rebuilds tolerate an injected crash
#: plus one genuine flake without letting a deterministically crashing
#: workload spin forever.
MAX_POOL_REBUILDS = 2


class _PoolGeneration:
    """One generation of the worker pool: executor + lease bookkeeping."""

    def __init__(self, executor: ProcessPoolExecutor, workers: int, generation: int):
        self.executor = executor
        self.workers = workers
        self.generation = generation
        self.leases = 0
        self.retired = False


_CURRENT: Optional[_PoolGeneration] = None
_RETIRED: List[_PoolGeneration] = []
_GENERATION = 0
_POOL_LOCK = threading.Lock()
_HEALTH = {"pool_rebuilds": 0, "groups_redispatched": 0, "generations_retired": 0}


def _start_method() -> str:
    """Forkserver where the platform offers it (Linux), spawn otherwise."""
    return (
        "forkserver"
        if "forkserver" in mp.get_all_start_methods()
        else "spawn"
    )


def _new_generation(workers: int) -> _PoolGeneration:
    """Create a fresh pool generation (caller holds ``_POOL_LOCK``)."""
    global _GENERATION
    context = mp.get_context(_start_method())
    if hasattr(context, "set_forkserver_preload"):
        # Fork workers from a server that already imported this package (and
        # with it NumPy): per-worker startup drops from a full interpreter +
        # import chain to a fork.
        context.set_forkserver_preload(["repro.simulators.gate.procpool"])
    _GENERATION += 1
    return _PoolGeneration(
        ProcessPoolExecutor(max_workers=workers, mp_context=context),
        workers,
        _GENERATION,
    )


def _retire_locked(generation: _PoolGeneration) -> Optional[ProcessPoolExecutor]:
    """Mark *generation* retired; return its executor if it can shut down now."""
    generation.retired = True
    _HEALTH["generations_retired"] += 1
    if generation.leases == 0:
        return generation.executor
    _RETIRED.append(generation)
    return None


def _acquire_pool(workers: int) -> _PoolGeneration:
    """Lease the current pool generation, growing it if *workers* exceeds it.

    The returned generation's executor stays valid — even across a
    concurrent grow or crash-triggered replacement — until the matching
    :func:`_release_pool`.
    """
    global _CURRENT
    if workers < 1:
        raise ValueError(f"worker pool size must be >= 1, got {workers!r}")
    to_shutdown: Optional[ProcessPoolExecutor] = None
    with _POOL_LOCK:
        if _CURRENT is None or workers > _CURRENT.workers:
            if _CURRENT is not None:
                to_shutdown = _retire_locked(_CURRENT)
            _CURRENT = _new_generation(workers)
        _CURRENT.leases += 1
        handle = _CURRENT
    if to_shutdown is not None:
        to_shutdown.shutdown(wait=True)
    return handle


def _release_pool(handle: _PoolGeneration) -> None:
    """Release one lease; shut a retired generation down once it drains."""
    to_shutdown: Optional[ProcessPoolExecutor] = None
    with _POOL_LOCK:
        handle.leases -= 1
        if handle.retired and handle.leases == 0:
            if handle in _RETIRED:
                _RETIRED.remove(handle)
            to_shutdown = handle.executor
    if to_shutdown is not None:
        to_shutdown.shutdown(wait=True)


def _replace_broken(handle: _PoolGeneration) -> None:
    """Retire a broken generation so the next acquire builds a fresh pool.

    Idempotent across the threads that may observe the same breakage: only
    the first caller retires the generation and bumps the rebuild counter.
    """
    global _CURRENT
    with _POOL_LOCK:
        if handle.retired:
            return
        _HEALTH["pool_rebuilds"] += 1
        # A broken executor cannot run queued futures, so it is safe to shut
        # down immediately regardless of leases: shutdown on a broken pool
        # only reaps dead processes.
        handle.retired = True
        _HEALTH["generations_retired"] += 1
        if _CURRENT is handle:
            _CURRENT = None
    handle.executor.shutdown(wait=True)


def shutdown_worker_pool() -> None:
    """Tear every generation down (test isolation / interpreter exit)."""
    global _CURRENT
    with _POOL_LOCK:
        doomed = [gen.executor for gen in _RETIRED]
        if _CURRENT is not None:
            doomed.append(_CURRENT.executor)
        _RETIRED.clear()
        _CURRENT = None
    for executor in doomed:
        executor.shutdown(wait=True)


def worker_pool_info() -> Dict[str, int]:
    """Snapshot of the pool state: ``workers`` and ``started``."""
    with _POOL_LOCK:
        return {
            "workers": 0 if _CURRENT is None else _CURRENT.workers,
            "started": int(_CURRENT is not None),
        }


def executor_health() -> Dict[str, int]:
    """Process-lifetime recovery counters.

    ``pool_rebuilds`` (broken pools replaced), ``groups_redispatched``
    (chunk groups re-executed after a crash), ``generations_retired``
    (grow-driven and crash-driven retirements).  Monotonic; serving-level
    per-job accounting uses the per-run recovery dicts returned by
    :func:`run_chunks` instead.
    """
    with _POOL_LOCK:
        return dict(_HEALTH)


atexit.register(shutdown_worker_pool)


def _deal_chunks(
    plan: Sequence[Sequence[tuple]], workers: int
) -> List[List[Tuple[int, Sequence[tuple]]]]:
    """Round-robin ``(index, segments)`` super-chunks into worker groups.

    The grouping only decides *where* a super-chunk runs; every segment
    keeps its own ``(job, chunk_id, size, stream)`` identity, so dealing,
    crash recovery and reassembly never depend on the worker count — the
    bit-identity contract.
    """
    groups: List[List[Tuple[int, Sequence[tuple]]]] = [[] for _ in range(workers)]
    for index, segs in enumerate(plan):
        groups[index % workers].append((index, segs))
    return [group for group in groups if group]


def _require_complete(outputs: Sequence[Optional[Any]]) -> None:
    """Typed guard: every super-chunk slot must have been filled by some group."""
    missing = [index for index, output in enumerate(outputs) if output is None]
    if missing:
        raise ChunkReassemblyError(missing, len(outputs))


def _run_groups_with_recovery(pending, submit_group, workers: int):
    """Crash-recovery driver of the process executor.

    *pending* is a list of ``(group, attempt)`` pairs; *submit_group* maps
    a leased executor plus one pair to a future.  Runs every group to
    completion, rebuilding the pool and re-dispatching only the lost groups
    (``attempt + 1``) on breakage, up to :data:`MAX_POOL_REBUILDS` rebuilds
    per run.  Returns ``(results, recovery)``: the completed groups' return
    values (order unspecified — callers reassemble by chunk id) and the
    per-run recovery counters.
    """
    recovery = {"pool_rebuilds": 0, "groups_redispatched": 0}
    results = []
    while pending:
        handle = _acquire_pool(workers)
        broken = False
        lost: List[Tuple[Any, int]] = []
        try:
            submitted: List[Tuple[Any, Any, int]] = []
            for group, attempt in pending:
                try:
                    future = submit_group(handle.executor, group, attempt)
                except BrokenExecutor:
                    broken = True
                    lost.append((group, attempt + 1))
                    continue
                submitted.append((future, group, attempt))
            for future, group, attempt in submitted:
                try:
                    results.append(future.result())
                except BrokenExecutor:
                    broken = True
                    lost.append((group, attempt + 1))
        finally:
            if broken:
                _replace_broken(handle)
            _release_pool(handle)
        if broken:
            recovery["pool_rebuilds"] += 1
            recovery["groups_redispatched"] += len(lost)
            with _POOL_LOCK:
                _HEALTH["groups_redispatched"] += len(lost)
            if recovery["pool_rebuilds"] > MAX_POOL_REBUILDS:
                message = (
                    f"worker pool broke {recovery['pool_rebuilds']} times in one "
                    f"run (budget {MAX_POOL_REBUILDS} rebuilds); "
                    f"{len(lost)} chunk groups unrecovered"
                )
                if not results:
                    # Each worker re-imports the main module while it starts.
                    message += (
                        "; the workers died before finishing any chunk group, most "
                        "likely while starting: a script run as __main__ that "
                        "starts process workers needs an "
                        "'if __name__ == \"__main__\":' guard"
                    )
                raise WorkerCrashError(message, rebuilds=recovery["pool_rebuilds"])
        pending = lost
    return results, recovery


def _chunk_task(payload: tuple) -> List[Tuple[int, tuple]]:
    """Worker-side entry: run one group of super-chunks through the engine.

    The worker compiles the circuit through its own warm compile caches
    (they persist across runs, because the pool does), then returns
    ``(index, (rows, state))`` per super-chunk — the same output the thread
    executor collects, from the same chunk body
    (:func:`~repro.simulators.gate.statevector.run_super_chunk`).
    """
    engine, circuit, blas_threads, group, state_chunk, fault_plan, attempt = payload
    from .statevector import run_super_chunk
    from .threads import limit_blas_threads

    program = engine.compile(circuit)
    guard = (
        limit_blas_threads(blas_threads) if blas_threads is not None else nullcontext()
    )
    with guard:
        return [
            (
                index,
                run_super_chunk(
                    engine,
                    program,
                    index,
                    segs,
                    index == state_chunk,
                    fault_plan,
                    attempt,
                    executor="process",
                ),
            )
            for index, segs in group
        ]


def run_chunks(
    engine,
    circuit,
    plan: Sequence[Sequence[tuple]],
    *,
    workers: int,
    blas_threads: Optional[int] = None,
    state_chunk: Optional[int] = None,
    fault_plan=None,
) -> Tuple[List[tuple], Dict[str, int]]:
    """Execute a super-chunk plan on the process pool.

    *plan* is a list of super-chunks, each a list of ``(job, chunk_id, size,
    stream)`` segments; *engine* (a small picklable value) and the
    *circuit* ship with every chunk group, and the worker compiles the
    circuit with the engine and runs each super-chunk through the engine's
    segment kernel.  Super-chunk *state_chunk* also returns its last
    trajectory's statevector.  Crash recovery re-dispatches only the lost
    groups with their original streams (``attempt + 1``), so recovered
    seeded counts are bit-identical to an uncrashed run.  Returns ``(outputs, recovery)``: one ``(rows, state)``
    per super-chunk in plan order (completeness-checked) and the run's
    recovery counters (``pool_rebuilds`` / ``groups_redispatched``, both 0
    on a clean run).
    """
    workers = max(1, min(int(workers), len(plan)))

    def submit_group(executor, group, attempt):
        return executor.submit(
            _chunk_task,
            (engine, circuit, blas_threads, group, state_chunk, fault_plan, attempt),
        )

    pending = [(group, 0) for group in _deal_chunks(plan, workers)]
    results, recovery = _run_groups_with_recovery(pending, submit_group, workers)
    outputs: List[Optional[tuple]] = [None] * len(plan)
    for group_outputs in results:
        for index, output in group_outputs:
            outputs[index] = output
    _require_complete(outputs)
    return outputs, recovery
