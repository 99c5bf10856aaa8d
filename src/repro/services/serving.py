"""Async job service: the multi-user serving queue over the bundle flow.

:class:`JobService` is the middle layer's front door for concurrent use:
many callers submit packaged :class:`~repro.core.bundle.JobBundle`\\ s, the
service admits and places each one through the
:class:`~repro.services.scheduler.CostAwareScheduler`, executes on the
registered backends, and streams per-job results back as they complete.

Three properties matter at serving scale:

* **Admission control** — a submission with no capable engine (or a job
  name already queued) fails synchronously with
  :class:`~repro.core.errors.ServiceError`, and one that fails bundle
  validation raises its own typed error, before anything is enqueued, so
  the queue never holds work that cannot run.  With ``max_pending`` set,
  admission is additionally **bounded**: submissions past the live
  budget fail synchronously with
  :class:`~repro.core.errors.QueueFullError` — backpressure instead of an
  unbounded queue.
* **One group key** — every admitted job gets one key,
  ``(placed engine, merge key)``, where
  :meth:`~repro.backends.gate_backend.GateBackend.merge_key` digests the
  job's intent (its registers and operators) with the context fields that
  change what runs: engine, target and exec options other than
  ``deadline_s``.  ``samples`` and ``seed`` are free to differ.  The key
  lowers nothing, so admission does no lowering.  Jobs with equal keys (a
  class of students submitting one template, one program resubmitted with
  fresh seeds) form one group, and a group is exactly one backend call: one
  lowering-memo lookup, one transpile, one compile and one tensor
  evolution over all members' shots on the batch axis, with counts split
  back per ticket.  The segmented chunk plan keeps every member's seeded
  counts bit-identical to a standalone run.  A job no other job shares a
  key with is a group of one; every group, whatever its size, goes
  through the one attempt loop, whose failure isolation guarantees one
  member's deadline or crash never poisons the rest — the survivors
  re-run as groups of one.
* **Streaming** — :meth:`JobService.as_completed` yields tickets in
  completion order; each :class:`JobTicket` is also a future-like handle
  (``done()`` / ``result()`` / ``exception()`` / ``cancel()``) for point
  lookups, and :meth:`JobService.ticket` resolves a handle by job name.
  A ticket is *collected* when :meth:`JobService.drain` returns it or
  :meth:`JobService.as_completed` yields it; the service then drops its
  reference, so a long-lived service holds only uncollected work.

Fault tolerance (PR 9) adds the policies production schedulers treat as
table stakes, built on the transient/permanent error taxonomy of
:mod:`repro.core.errors`:

* **Deadlines** — a job whose bundle carries ``deadline_s`` (or a
  service-wide ``default_deadline_s``) is abandoned cooperatively when it
  runs over: the ticket fails with
  :class:`~repro.core.errors.DeadlineExceededError` and the lane moves on
  (the runaway attempt finishes on a detached daemon thread and its
  result is discarded).  Deadline failures are permanent — they never
  enter the retry loop.
* **Retries** — a :class:`RetryPolicy` re-executes **transient** failures
  only (:func:`~repro.core.errors.is_transient_error`): bounded attempts,
  exponential backoff, and *seeded deterministic* jitter so a retry
  schedule replays exactly from ``(policy seed, job id, attempt)``.
* **Degradation** — :data:`FALLBACK_AFTER_BREAKAGES` (3) worker-pool
  breakages (:func:`~repro.core.errors.is_pool_breakage`, counting both
  in-run recovered crashes and unrecovered ones, an exhausted recovery
  with every rebuild it spent) flip the service to forcing
  ``trajectory_executor="thread"`` on subsequent executions: slower but
  immune to process death.  The flip is recorded in each result's
  ``metadata["serving"]["executor_fallback"]`` and in the stats surface.
* **Observability** — :meth:`JobService.stats` /
  :meth:`JobService.service_stats` expose the recovery counters
  (``retries``, ``crashes_recovered``, ``deadline_kills``, ``cancelled``,
  ``rejected``, ``pool_breakages``, ``executor_fallback``) next to the
  original throughput counters.

The service performs no wall-clock reads of its own: per-job timing comes
from the submission runtime's existing instrumentation
(``metadata["wall_time_s"]``), deadlines and backoffs are event waits, and
throughput accounting belongs to the caller (see
``benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..backends.base import ExecutionResult
from ..backends.registry import get_backend
from ..backends.runtime import submit as runtime_submit
from ..backends.runtime import submit_merged as runtime_submit_merged
from ..core.bundle import JobBundle
from ..core.context import _is_int, _is_real
from ..core.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceError,
    is_pool_breakage,
    is_transient_error,
)
from .scheduler import CostAwareScheduler

__all__ = ["JobTicket", "JobService", "RetryPolicy", "ServiceStats"]

#: Pool breakages (recovered in-run crashes included; an exhausted recovery
#: counts every rebuild it spent) after which a :class:`JobService` forces
#: ``trajectory_executor="thread"`` on every later execution.
FALLBACK_AFTER_BREAKAGES = 3


def _call_with_deadline(fn, deadline: float):
    """Return ``fn()``, or raise :class:`DeadlineExceededError` after *deadline* s.

    The one deadline seam of the service's attempt loop.  ``fn`` runs on a
    daemon thread; on expiry the caller gets a
    :class:`DeadlineExceededError` and its lane back, while the abandoned
    attempt finishes on the detached thread (a daemon, so it never blocks
    interpreter exit).  An exception raised by ``fn`` re-raises here.
    """
    box: Dict[str, Any] = {}
    finished = threading.Event()

    def run() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - shipped to the caller
            box["error"] = exc
        finally:
            finished.set()

    threading.Thread(target=run, name="serving-deadline", daemon=True).start()
    if not finished.wait(deadline):
        raise DeadlineExceededError(f"attempt abandoned after {deadline}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, transient-only retry with seeded deterministic backoff.

    Parameters
    ----------
    max_attempts:
        Total executions allowed per job (first attempt included); ``1``
        disables retries.
    backoff_s:
        Base delay before the first retry; attempt *k*'s delay is
        ``backoff_s * multiplier**k`` before jitter.
    multiplier:
        Exponential growth factor per retry.
    jitter:
        Relative jitter amplitude in ``[0, 1)``: the delay is scaled by a
        factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.  The draw
        is **deterministic** — seeded from ``(seed, job_id, attempt)`` — so
        a retry schedule replays bit-identically, in keeping with the
        repo's seeded-determinism discipline.
    seed:
        Non-negative jitter seed.

    Only failures classified transient by
    :func:`~repro.core.errors.is_transient_error` are retried; permanent
    failures (including deadline expiry) surface immediately.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.max_attempts) or self.max_attempts < 1:
            raise ServiceError("RetryPolicy.max_attempts must be an int >= 1")
        if not _is_real(self.backoff_s) or self.backoff_s < 0:
            raise ServiceError("RetryPolicy.backoff_s must be a real number >= 0")
        if not _is_real(self.multiplier) or self.multiplier < 1.0:
            raise ServiceError("RetryPolicy.multiplier must be a real number >= 1")
        if not _is_real(self.jitter) or not (0.0 <= self.jitter < 1.0):
            raise ServiceError("RetryPolicy.jitter must be a real number in [0, 1)")
        if not _is_int(self.seed) or self.seed < 0:
            raise ServiceError("RetryPolicy.seed must be a non-negative int")

    def delay_s(self, job_id: int, attempt: int) -> float:
        """The deterministic backoff before retrying *attempt* of *job_id*.

        *attempt* is zero-based: the delay after the first failure is
        ``delay_s(job_id, 0)``.  Identical ``(seed, job_id, attempt)``
        triples always produce identical delays.
        """
        base = self.backoff_s * self.multiplier ** attempt
        if base <= 0.0 or self.jitter == 0.0:
            return base
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, int(job_id), int(attempt)])
        )
        return base * (1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0))


@dataclass(frozen=True)
class ServiceStats:
    """Typed snapshot of the service counters (see :meth:`JobService.stats`)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    groups: int = 0
    coalesced: int = 0
    merged_groups: int = 0
    merged_jobs: int = 0
    retries: int = 0
    crashes_recovered: int = 0
    deadline_kills: int = 0
    cancelled: int = 0
    rejected: int = 0
    pool_breakages: int = 0
    executor_fallback: bool = False


@dataclass
class JobTicket:
    """Handle for one submitted job: placement facts plus a result future."""

    job_id: int
    name: str
    engine: str
    estimated_runtime_s: float
    coalesce_key: Any = field(repr=False, default=None)
    _bundle: Optional[JobBundle] = field(repr=False, default=None)
    _deadline_s: Optional[float] = field(repr=False, default=None)
    _future: Future = field(repr=False, default_factory=Future)
    _service: Optional["JobService"] = field(repr=False, default=None)
    _cancel_noted: bool = field(repr=False, default=False)

    def done(self) -> bool:
        """Whether the job has finished (successfully, failed, or cancelled)."""
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        """Block for the job's :class:`ExecutionResult` (re-raises failures)."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block for the job's failure, or ``None`` if it succeeded.

        A cancelled ticket raises :class:`concurrent.futures.CancelledError`
        (future semantics), it does not *return* it.
        """
        return self._future.exception(timeout)

    def cancel(self) -> bool:
        """Cancel the job if it has not started executing.

        Returns ``True`` when the job was (or already had been) cancelled:
        the ticket's future fails with
        :class:`concurrent.futures.CancelledError`, the job is skipped by
        its lane, and it still appears once in the
        :meth:`JobService.as_completed` stream.  A job that is already
        running or finished returns ``False`` — execution is cooperative,
        never interrupted mid-flight.
        """
        cancelled = self._future.cancel()
        if cancelled and self._service is not None:
            self._service._note_cancelled(self)
        return cancelled


class JobService:
    """Queued, grouping, scheduler-placed execution of job bundles.

    Parameters
    ----------
    scheduler:
        Admission/placement policy; defaults to a fresh
        :class:`~repro.services.scheduler.CostAwareScheduler` over every
        registered engine.
    lanes:
        Number of concurrent execution lanes (threads running backend
        calls), an int >= 1.  A group runs on one lane as one backend call;
        distinct groups spread across lanes.
    coalesce:
        When ``True`` (default), jobs with equal group keys execute as one
        group, one merged backend run; ``False`` gives every job its own
        group.
    exec_options:
        Extra ``context.exec.options`` entries merged into every submitted
        bundle (submission wins on conflicts is **not** the rule — the
        service's entries override, so operators can force e.g.
        ``trajectory_executor="process"`` fleet-wide).
    retry_policy:
        Optional :class:`RetryPolicy`.  Transient failures
        (:func:`~repro.core.errors.is_transient_error`) re-execute with
        exponential, deterministically jittered backoff; ``None`` (default)
        surfaces every failure on its first occurrence.
    max_pending:
        Optional bound on **live** jobs (queued or running, not yet
        settled).  Admission past the bound fails synchronously with
        :class:`~repro.core.errors.QueueFullError`; a batch is
        all-or-nothing against the bound.  ``None`` (default) leaves the
        queue unbounded.
    default_deadline_s:
        Optional service-wide deadline applied to jobs whose bundles do not
        carry their own ``deadline_s`` exec option.  A job running past its
        deadline fails with
        :class:`~repro.core.errors.DeadlineExceededError` and frees its
        lane; the abandoned attempt finishes on a detached daemon thread.
        The deadline is resolved once, at admission.

    The degradation ladder is not an option: after
    :data:`FALLBACK_AFTER_BREAKAGES` pool breakages the service forces
    ``trajectory_executor="thread"`` (recorded in result metadata and
    ``stats()["executor_fallback"]``).

    Use as a context manager or call :meth:`close` to stop the dispatcher
    and wait for in-flight work; ``close(drain=False)`` cancels every job
    that has not started instead of running the queue dry.
    """

    def __init__(
        self,
        *,
        scheduler: Optional[CostAwareScheduler] = None,
        lanes: int = 1,
        coalesce: bool = True,
        exec_options: Optional[Dict[str, Any]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        max_pending: Optional[int] = None,
        default_deadline_s: Optional[float] = None,
    ):
        if not _is_int(lanes) or lanes < 1:
            raise ServiceError(f"lanes must be an int >= 1, got {lanes!r}")
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ServiceError(
                f"retry_policy must be a RetryPolicy or None, got {retry_policy!r}"
            )
        if max_pending is not None and not (_is_int(max_pending) and max_pending >= 1):
            raise ServiceError("max_pending must be an int >= 1 or None")
        if default_deadline_s is not None and not (
            _is_real(default_deadline_s) and default_deadline_s > 0
        ):
            raise ServiceError("default_deadline_s must be a positive number or None")
        self._scheduler = scheduler or CostAwareScheduler()
        self._coalesce = bool(coalesce)
        self._exec_options = dict(exec_options or {})
        self._retry_policy = retry_policy
        self._max_pending = max_pending
        self._default_deadline_s = (
            None if default_deadline_s is None else float(default_deadline_s)
        )
        self._wake = threading.Condition()
        self._pending: List[JobTicket] = []
        self._all: Dict[int, JobTicket] = {}  # uncollected tickets, by job id
        self._by_name: Dict[str, JobTicket] = {}
        self._events: "deque[JobTicket]" = deque()
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {f.name: 0 for f in fields(ServiceStats)}
        self._live = 0
        self._job_counter = 0
        self._closed = False
        self._drain_on_close = True
        self._stop_event = threading.Event()
        self._lanes = ThreadPoolExecutor(
            max_workers=lanes, thread_name_prefix="serving-lane"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serving-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- submission ------------------------------------------------------------------
    def submit(self, bundle: JobBundle) -> JobTicket:
        """Admit one bundle: a batch of one through :meth:`submit_many`.

        Raises :class:`ServiceError` synchronously when no registered
        engine can execute the bundle, when the bundle has no execution
        context, when its name is already queued or running, or when the
        service is closed — and :class:`QueueFullError` (a
        :class:`ServiceError`) when ``max_pending`` live jobs are already
        in flight.  A bundle that fails validation raises its own error.
        """
        return self.submit_many([bundle])[0]

    def submit_many(self, bundles: Sequence[JobBundle]) -> List[JobTicket]:
        """Admit a batch atomically through the fleet scheduler.

        The whole batch is placed with
        :meth:`CostAwareScheduler.schedule` (which rejects duplicate bundle
        names) and enqueued under one lock, so a coalescable batch reaches
        the dispatcher as one unit.  The batch is all-or-nothing: if it
        does not fit under ``max_pending`` (:class:`QueueFullError`) or any
        of its names is already queued or running (:class:`ServiceError`),
        nothing is enqueued.  Tickets return in input order.
        """
        if not bundles:
            return []
        admitted = [self._admit(bundle) for bundle in bundles]
        schedule = self._scheduler.schedule([bundle for bundle, _ in admitted])
        placed = {job.bundle_name: job for job in schedule.jobs}
        keys = [
            self._coalesce_key(bundle, placed[bundle.name].engine)
            for bundle, _ in admitted
        ]
        with self._wake:
            # Every check runs before the first ticket exists.
            if self._closed:
                raise ServiceError("job service is closed")
            if (
                self._max_pending is not None
                and self._live + len(admitted) > self._max_pending
            ):
                with self._stats_lock:
                    self._stats["rejected"] += len(admitted)
                raise QueueFullError(
                    f"batch of {len(admitted)} does not fit: {self._live} live "
                    f"jobs against max_pending={self._max_pending}"
                )
            for bundle, _ in admitted:
                active = self._by_name.get(bundle.name)
                if active is not None and not active.done():
                    raise ServiceError(
                        f"job name {bundle.name!r} is already queued or running; "
                        "results are looked up by name, so names must be unique "
                        "among live jobs"
                    )
            tickets = []
            for (bundle, deadline), key in zip(admitted, keys):
                self._job_counter += 1
                ticket = JobTicket(
                    job_id=self._job_counter,
                    name=bundle.name,
                    engine=placed[bundle.name].engine,
                    estimated_runtime_s=placed[bundle.name].estimated_runtime_s,
                    coalesce_key=key,
                    _bundle=bundle,
                    _deadline_s=deadline,
                    _service=self,
                )
                self._by_name[bundle.name] = ticket
                self._all[ticket.job_id] = ticket
                tickets.append(ticket)
            self._pending.extend(tickets)
            self._live += len(tickets)
            with self._stats_lock:
                self._stats["submitted"] += len(tickets)
            self._wake.notify_all()
        return tickets

    def _admit(self, bundle: JobBundle) -> Tuple[JobBundle, Optional[float]]:
        """Pre-queue checks, the service-wide exec-option merge, then validation.

        Returns the bundle that runs and its deadline in seconds (its
        ``deadline_s`` option, else the service default, else ``None``),
        resolved once here for the ticket.
        """
        if self._closed:
            raise ServiceError("job service is closed")
        if bundle.context is None:
            raise ServiceError(
                f"bundle {bundle.name!r} has no execution context; the serving "
                "queue requires an explicit exec policy"
            )
        if self._exec_options:
            exec_policy = replace(
                bundle.context.exec,
                options={**bundle.context.exec.options, **self._exec_options},
            )
            bundle = bundle.with_context(replace(bundle.context, exec=exec_policy))
        deadline = bundle.context.exec.options.get(
            "deadline_s", self._default_deadline_s
        )
        if deadline is not None and not (_is_real(deadline) and deadline > 0):
            raise ServiceError(
                f"bundle {bundle.name!r} has an invalid deadline_s {deadline!r}; "
                "expected a positive number of seconds"
            )
        bundle.validate()  # the merged bundle is the one that runs
        return bundle, None if deadline is None else float(deadline)

    def _coalesce_key(self, bundle: JobBundle, engine: str) -> Any:
        """The job's group key: ``(engine, merge key)``, or a key of its own.

        The backend's merge key digests the intent and lowers nothing.  A
        backend without one, a key that cannot be computed, or
        ``coalesce=False`` gives the job a group of one.
        """
        merge_key = getattr(get_backend(engine), "merge_key", None) if self._coalesce else None
        if merge_key is not None:
            try:
                return engine, merge_key(bundle)
            except Exception:  # noqa: BLE001 - an unkeyable job simply runs alone
                pass
        return object()  # key never equal to another: a group of one

    # -- dispatch --------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Drain the pending queue, group by group key, fan out lanes."""
        while True:
            with self._wake:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if self._closed and not self._drain_on_close:
                    # close(drain=False) already cancelled these tickets.
                    self._pending.clear()
                    return
                if not self._pending and self._closed:
                    return
                batch, self._pending = self._pending, []
            groups: Dict[Any, List[JobTicket]] = {}
            for ticket in batch:
                groups.setdefault(ticket.coalesce_key, []).append(ticket)
            for tickets in groups.values():
                with self._stats_lock:
                    self._stats["groups"] += 1
                    self._stats["coalesced"] += len(tickets) - 1
                self._lanes.submit(self._run_group, tickets)
            del batch, groups, ticket, tickets  # an idle dispatcher pins no ticket

    def _run_group(self, tickets: List[JobTicket]) -> None:
        """Execute one group on this lane: one backend call for its live members."""
        live = [
            ticket
            for ticket in tickets
            if ticket._future.set_running_or_notify_cancel()
            # Cancelled before start; cancel() already settled the ticket.
        ]
        if live:
            positions = {id(ticket): i for i, ticket in enumerate(tickets)}
            self._run_attempts(live, len(tickets), positions)

    def _run_attempts(
        self, tickets: List[JobTicket], group_size: int, positions: Dict[int, int]
    ) -> None:
        """The one attempt loop: run *tickets* as one backend call until settled.

        A solo job is a group of one; a larger group is one merged run on
        the batch axis.  Each attempt reads the degradation flag and runs
        under the tightest member deadline.  Failure isolation: a deadline
        expiry fails only the members whose own deadline is spent, and any
        other failure of a merged group re-runs every member as a group of
        one — one bad job never poisons the rest.  Only a group of one
        retries (transient failures, under the :class:`RetryPolicy`), so a
        merged attempt spends no retry budget.
        """
        policy = self._retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        attempt = 0
        while True:
            with self._stats_lock:
                degraded = bool(self._stats["executor_fallback"])
            bundles = [
                self._degrade_bundle(ticket._bundle) if degraded else ticket._bundle
                for ticket in tickets
            ]
            limit = min(
                (t._deadline_s for t in tickets if t._deadline_s is not None),
                default=None,
            )
            call = partial(self._backend_call, tickets, bundles)
            try:
                results = call() if limit is None else _call_with_deadline(call, limit)
            except DeadlineExceededError:
                survivors = []
                for ticket in tickets:
                    deadline = ticket._deadline_s
                    if len(tickets) > 1 and (deadline is None or deadline > limit):
                        survivors.append(ticket)  # its own deadline is not spent
                        continue
                    with self._stats_lock:
                        self._stats["deadline_kills"] += 1
                        self._stats["failed"] += 1
                    ticket._future.set_exception(
                        DeadlineExceededError(
                            f"job {ticket.name!r} exceeded its {deadline}s "
                            "deadline; the attempt was abandoned and its lane freed"
                        )
                    )
                    self._settle(ticket)
                for ticket in survivors:
                    self._run_attempts([ticket], group_size, positions)
                return
            except BaseException as exc:  # noqa: BLE001 - routed to the tickets
                if is_pool_breakage(exc):
                    # An exhausted in-run recovery carries the rebuilds it spent.
                    self._note_pool_breakage(count=max(getattr(exc, "rebuilds", 0), 1))
                if len(tickets) > 1:
                    for ticket in tickets:
                        self._run_attempts([ticket], group_size, positions)
                    return
                if attempt + 1 < max_attempts and is_transient_error(exc):
                    with self._stats_lock:
                        self._stats["retries"] += 1
                    delay = policy.delay_s(tickets[0].job_id, attempt)
                    if delay > 0:
                        # Interruptible backoff: close() sets the stop event.
                        self._stop_event.wait(delay)
                    attempt += 1
                    continue
                with self._stats_lock:
                    self._stats["failed"] += 1
                tickets[0]._future.set_exception(exc)
                self._settle(tickets[0])
                return
            recovery = results[0].metadata.get("executor_recovery") or {}
            rebuilds = int(recovery.get("pool_rebuilds") or 0)
            if rebuilds:
                # One backend call: its recovered crashes count once, not per member.
                self._note_pool_breakage(count=rebuilds, recovered=True)
            merged = len(tickets) > 1
            with self._stats_lock:
                self._stats["completed"] += len(tickets)
                if merged:
                    self._stats["merged_groups"] += 1
                    self._stats["merged_jobs"] += len(tickets)
            for ticket, result in zip(tickets, results):
                result.metadata["serving"] = {
                    "job_id": ticket.job_id,
                    "engine": ticket.engine,
                    "group_size": group_size,
                    "group_position": positions[id(ticket)],
                    "attempts": attempt + 1,
                    "executor_fallback": degraded,
                    "merged": merged,
                }
                ticket._future.set_result(result)
                self._settle(ticket)
            return

    @staticmethod
    def _backend_call(
        tickets: List[JobTicket], bundles: List[JobBundle]
    ) -> List[ExecutionResult]:
        """One backend call: ``submit`` for one ticket, ``submit_merged`` for more."""
        backend = get_backend(tickets[0].engine)
        if len(tickets) == 1:
            return [runtime_submit(bundles[0], backend=backend, validate=False)]
        return runtime_submit_merged(bundles, backend=backend, validate=False)

    def _degrade_bundle(self, bundle: JobBundle) -> JobBundle:
        """Force the thread executor on a bundle after pool-breakage fallback."""
        options = bundle.context.exec.options
        if options.get("trajectory_executor", "thread") == "thread":
            return bundle
        exec_policy = replace(
            bundle.context.exec,
            options={**options, "trajectory_executor": "thread"},
        )
        return bundle.with_context(replace(bundle.context, exec=exec_policy))

    def _note_pool_breakage(self, *, count: int = 1, recovered: bool = False) -> None:
        """Count pool breakage toward the degradation ladder; flip if spent."""
        with self._stats_lock:
            if recovered:
                self._stats["crashes_recovered"] += count
            self._stats["pool_breakages"] += count
            if self._stats["pool_breakages"] >= FALLBACK_AFTER_BREAKAGES:
                self._stats["executor_fallback"] = 1

    def _note_cancelled(self, ticket: JobTicket) -> None:
        """Record a successful cancellation exactly once and settle the ticket."""
        with self._wake:
            if ticket._cancel_noted:
                return
            ticket._cancel_noted = True
        with self._stats_lock:
            self._stats["cancelled"] += 1
        self._settle(ticket)

    def _settle(self, ticket: JobTicket) -> None:
        """A ticket reached a terminal state: stream it, release its slot."""
        with self._wake:
            self._live -= 1
            if ticket.job_id in self._all:  # drain() may have collected it already
                self._events.append(ticket)
            self._wake.notify_all()

    def _collect(self, ticket: JobTicket) -> None:
        """Drop the service's references to a handed-out ticket; holds ``_wake``."""
        self._all.pop(ticket.job_id, None)
        if self._by_name.get(ticket.name) is ticket:
            del self._by_name[ticket.name]

    # -- results ---------------------------------------------------------------------
    def as_completed(self, timeout: Optional[float] = None) -> Iterator[JobTicket]:
        """Yield tickets in completion order until none is left uncollected.

        Cancelled tickets appear in the stream like any other terminal
        state.  Yielding a ticket collects it (the service drops it), and a
        ticket :meth:`drain` already returned is never yielded.
        Single-consumer: the stream cursor is service-global.  *timeout*
        bounds the wait for **each** next completion; expiry raises
        :class:`TimeoutError` *without* losing the cursor position — a later
        ``as_completed()`` call resumes exactly where the stream stopped.
        """
        while True:
            with self._wake:
                if not self._wake.wait_for(
                    lambda: self._events or not self._all, timeout
                ):
                    raise TimeoutError(
                        f"no job completed within {timeout}s ({len(self._all)} "
                        "outstanding); the stream cursor is preserved — call "
                        "as_completed() again to resume"
                    )
                if not self._events:
                    return
                ticket = self._events.popleft()
                self._collect(ticket)
            yield ticket

    def ticket(self, name: str) -> JobTicket:
        """The newest ticket under *name* that is live, or settled but uncollected."""
        with self._wake:
            ticket = self._by_name.get(name)
        if ticket is None:
            raise ServiceError(f"no uncollected job named {name!r}")
        return ticket

    def cancel(self, name: str) -> bool:
        """Cancel the not-yet-started job *name* (see :meth:`JobTicket.cancel`)."""
        return self.ticket(name).cancel()

    def drain(self) -> List[JobTicket]:
        """Block until every uncollected job settled; those tickets in job order.

        Returning a ticket collects it (the service drops it), so a second
        ``drain()`` returns only tickets submitted after the first.
        Cancelled tickets count as settled; ``drain`` never re-raises.
        """
        with self._wake:
            tickets = list(self._all.values())
        for ticket in tickets:
            try:
                ticket.exception()  # waits; does not re-raise failures
            except CancelledError:
                pass
        with self._wake:
            for ticket in tickets:
                self._collect(ticket)
            self._events = deque(t for t in self._events if t.job_id in self._all)
            self._wake.notify_all()
        return tickets

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: throughput plus the fault-tolerance counters.

        Keys: ``submitted`` / ``completed`` / ``failed`` / ``groups`` /
        ``coalesced`` (as before) plus ``merged_groups`` / ``merged_jobs``
        (merged batch-axis executions and the jobs they absorbed),
        ``retries`` (transient re-executions),
        ``crashes_recovered`` (in-run pool rebuilds that still produced the
        job's result), ``deadline_kills``, ``cancelled``, ``rejected``
        (queue-full admissions), ``pool_breakages`` (degradation-ladder
        count) and ``executor_fallback`` (``1`` once the service forces the
        thread executor).  :meth:`service_stats` returns the same snapshot
        as a typed :class:`ServiceStats`.
        """
        with self._stats_lock:
            return dict(self._stats)

    def service_stats(self) -> ServiceStats:
        """The :meth:`stats` snapshot as a typed :class:`ServiceStats`."""
        snapshot = self.stats()
        snapshot["executor_fallback"] = bool(snapshot["executor_fallback"])
        return ServiceStats(**snapshot)

    # -- lifecycle -------------------------------------------------------------------
    def close(self, *, drain: bool = True) -> None:
        """Stop accepting work and release the lanes.

        ``drain=True`` (default) runs the queue dry first.  ``drain=False``
        cancels every job that has not started — their tickets fail with
        :class:`concurrent.futures.CancelledError` and still appear in the
        :meth:`as_completed` stream — and waits only for attempts already
        running on a lane, so callers blocked on outstanding tickets fail
        fast instead of hanging.
        """
        with self._wake:
            self._closed = True
            self._drain_on_close = bool(drain)
            self._wake.notify_all()
            tickets = list(self._all.values()) if not drain else []
        if not drain:
            self._stop_event.set()  # cut retry backoffs short
            for ticket in tickets:
                ticket.cancel()
        self._dispatcher.join()
        self._lanes.shutdown(wait=True)

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
