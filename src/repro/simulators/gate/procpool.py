"""Persistent process pool for trajectory chunk execution.

The chunk executor in :mod:`~repro.simulators.gate.statevector` runs
super-chunks on threads or, under ``trajectory_executor="process"``, on the
worker processes of this module, where the per-chunk Python bookkeeping
between the GIL-releasing NumPy kernels runs under one interpreter lock per
worker instead of one for all.  This module owns that seam:

* **one persistent pool**: a ``ProcessPoolExecutor`` (forkserver start
  method where available, spawn otherwise) with one process slot per core,
  created on first use, shared by every run, job and thread, and replaced
  only when it breaks;
* **one task for every engine and grouping**: the parent's super-chunk plan
  (each super-chunk a list of ``(job, chunk_id, size, stream)`` segments,
  exactly as the thread path executes it) is dealt round-robin into
  ``min(workers, slots, len(plan))`` groups, and :func:`run_chunks` ships
  each group with the circuit and a small picklable engine value.  The
  worker compiles through its own warm compile caches (a parameter re-bind
  after the first run of a structure) and runs the same chunk body as the
  thread path (:func:`~repro.simulators.gate.statevector.run_super_chunk`),
  so seeded counts are **bit-identical** to the thread executor (and to
  serial execution) at every worker count;
* **worker-crash recovery**: a dead worker breaks the whole
  ``ProcessPoolExecutor`` (every unfinished future raises
  ``BrokenProcessPool``), so the executor collects what completed, drops
  the broken pool, starts a fresh one, and re-dispatches **only the lost
  groups** — each still carrying its original segments, so the recovered
  run re-draws from the same ``SeedSequence`` streams and seeded counts stay
  bit-identical to an uncrashed run.  Recovery is budgeted per run
  (:data:`MAX_POOL_REBUILDS`); exhaustion raises the transient
  :class:`~repro.core.errors.WorkerCrashError` for the serving layer's
  retry/degradation ladder.  Reassembly is validated: a super-chunk slot
  that was never filled raises the typed
  :class:`~repro.core.errors.ChunkReassemblyError` instead of passing
  ``None`` rows downstream.

Every slot starts before the pool is handed out: each worker's initializer
waits on a barrier of all slots while the creator submits one no-op task
per slot, so no worker goes idle before the last one has started, each
start-up submit starts exactly one process, and no later submit starts
any.  Recovery depends on that: CPython's broken-pool teardown terminates
the workers it knows and then joins every worker, so a worker that a
submit started while another was dying would be joined, never stopped,
and hang the run.  Concurrent runs share the slots; a run asking for more
workers than there are slots gets as many groups as there are slots.
``fork`` is deliberately not used even where available: the workers must
not inherit the parent's BLAS thread pools or lock state mid-operation.
They do inherit the BLAS thread count the forkserver started with, so set
``OPENBLAS_NUM_THREADS`` before Python starts when timing the workers.

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
import os
import threading
from concurrent.futures import (
    FIRST_EXCEPTION,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
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

#: Process slots of the pool: one per core.
_SLOTS = os.cpu_count() or 1

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_LOCK = threading.Lock()
_HEALTH = {"pool_rebuilds": 0, "groups_redispatched": 0}


def _start_method() -> str:
    """Forkserver where the platform offers it (Linux), spawn otherwise."""
    return (
        "forkserver"
        if "forkserver" in mp.get_all_start_methods()
        else "spawn"
    )


def _start_pool() -> ProcessPoolExecutor:
    """Create the pool and start every slot (caller holds ``_POOL_LOCK``).

    Raises :class:`BrokenExecutor`, counted as one rebuild, when a worker
    dies while the slots start (no chunk group has run on the pool then).
    """
    context = mp.get_context(_start_method())
    if hasattr(context, "set_forkserver_preload"):
        # Fork workers from a server that already imported this package (and
        # with it NumPy): per-worker startup drops from a full interpreter +
        # import chain to a fork.
        context.set_forkserver_preload(["repro.simulators.gate.procpool"])
    barrier = context.Barrier(_SLOTS)
    pool = ProcessPoolExecutor(_SLOTS, mp_context=context, initializer=barrier.wait)
    try:
        started = [pool.submit(int) for _ in range(_SLOTS)]
        # Stop at the first failure: a future submitted while the pool was
        # breaking may never resolve.
        for future in wait(started, return_when=FIRST_EXCEPTION).done:
            future.result()
    except BaseException as exc:
        # Release the workers waiting at the barrier, one that a submit started
        # after the breakage included, so the shutdown can join them all.
        barrier.abort()
        pool.shutdown(wait=True)
        if isinstance(exc, BrokenExecutor):
            _HEALTH["pool_rebuilds"] += 1
        raise
    return pool


def _pool() -> ProcessPoolExecutor:
    """The worker pool, created with every slot started on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = _start_pool()
        return _POOL


def _replace_broken(pool: ProcessPoolExecutor) -> None:
    """Drop a broken *pool* so the next run starts a fresh one.

    Every run that collected from the broken pool calls this; only the first
    finds it still current, drops it and counts the rebuild.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is not pool:
            return
        _POOL = None
        _HEALTH["pool_rebuilds"] += 1
    # A broken executor runs no queued futures: shutdown only reaps processes.
    pool.shutdown(wait=True)


def shutdown_worker_pool() -> None:
    """Shut the pool down (test isolation / interpreter exit)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=True)


def worker_pool_info() -> Dict[str, int]:
    """Snapshot of the pool state: ``workers`` (its slots) and ``started``."""
    with _POOL_LOCK:
        started = _POOL is not None
    return {"workers": _SLOTS if started else 0, "started": int(started)}


def executor_health() -> Dict[str, int]:
    """Process-lifetime recovery counters.

    ``pool_rebuilds`` (broken pools replaced, each counted once however many
    runs collected from it) and ``groups_redispatched`` (chunk groups
    re-executed after a crash).  Monotonic; serving-level per-job accounting
    uses the per-run recovery dicts returned by :func:`run_chunks` instead.
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


def _run_groups_with_recovery(pending, submit_group):
    """Crash-recovery driver of the process executor.

    *pending* is a list of ``(group, attempt)`` pairs; *submit_group* maps
    the pool plus one pair to a future.  Runs every group to completion,
    replacing a broken pool and re-dispatching only the lost groups
    (``attempt + 1``; a pool that broke while starting ran none, so its
    groups keep their attempt), up to :data:`MAX_POOL_REBUILDS` rebuilds
    per run.  Returns ``(results, recovery)``: the completed groups' return
    values (order unspecified — callers reassemble by chunk id) and the
    per-run recovery counters.
    """
    recovery = {"pool_rebuilds": 0, "groups_redispatched": 0}
    results = []
    while pending:
        lost: List[Tuple[Any, int]] = []
        try:
            pool = _pool()
        except BrokenExecutor:
            lost = pending
        else:
            try:
                submitted: List[Tuple[Any, Any, int]] = []
                for group, attempt in pending:
                    try:
                        future = submit_group(pool, group, attempt)
                    except BrokenExecutor:
                        lost.append((group, attempt + 1))
                        continue
                    submitted.append((future, group, attempt))
                for future, group, attempt in submitted:
                    try:
                        results.append(future.result())
                    except BrokenExecutor:
                        lost.append((group, attempt + 1))
            finally:
                if lost:
                    _replace_broken(pool)
        if lost:
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
    stream)`` segments, dealt into ``min(workers, slots, len(plan))``
    chunk groups; *engine* (a small picklable value) and the
    *circuit* ship with every chunk group, and the worker compiles the
    circuit with the engine and runs each super-chunk through the engine's
    segment kernel.  Super-chunk *state_chunk* also returns its last
    trajectory's statevector.  Crash recovery re-dispatches only the lost
    groups with their original streams (``attempt + 1``), so recovered
    seeded counts are bit-identical to an uncrashed run.  Returns
    ``(outputs, recovery)``: one ``(rows, state)``
    per super-chunk in plan order (completeness-checked) and the run's
    recovery counters (``pool_rebuilds`` / ``groups_redispatched``, both 0
    on a clean run).
    """
    workers = max(1, min(int(workers), _SLOTS, len(plan)))

    def submit_group(pool, group, attempt):
        return pool.submit(
            _chunk_task,
            (engine, circuit, blas_threads, group, state_chunk, fault_plan, attempt),
        )

    pending = [(group, 0) for group in _deal_chunks(plan, workers)]
    results, recovery = _run_groups_with_recovery(pending, submit_group)
    outputs: List[Optional[tuple]] = [None] * len(plan)
    for group_outputs in results:
        for index, output in group_outputs:
            outputs[index] = output
    _require_complete(outputs)
    return outputs, recovery
