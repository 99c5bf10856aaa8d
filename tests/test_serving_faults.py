"""Tests for the serving layer's fault-tolerance policies.

Deadlines (cooperative timeout that frees the lane), :class:`RetryPolicy`
(transient-only, bounded, deterministically jittered), ``max_pending``
backpressure (synchronous :class:`QueueFullError`), ticket cancellation,
``close(drain=False)`` semantics, the ``as_completed`` timeout contract,
the process→thread degradation ladder, and the end-to-end jewel: a serving
job whose worker is killed mid-run recovers with counts bit-identical to a
fault-free submission.
"""

import threading
from concurrent.futures import BrokenExecutor, CancelledError

import pytest

from repro.core import ContextDescriptor, ExecPolicy, ServiceError, package, phase_register
from repro.core.errors import (
    DeadlineExceededError,
    QueueFullError,
    TransientExecutionError,
    WorkerCrashError,
)
from repro.oplib import measurement, qft_operator
from repro.services import JobService, RetryPolicy, ServiceStats
from repro.services import serving as serving_module


def qft_bundle(name, *, width=4, seed=1, samples=256, options=None):
    reg = phase_register("p", width)
    return package(
        reg,
        [qft_operator(reg, do_swaps=True), measurement(reg)],
        ContextDescriptor(
            exec=ExecPolicy(
                engine="gate.aer_simulator",
                samples=samples,
                seed=seed,
                options=dict(options or {}),
            )
        ),
        name=name,
    )


@pytest.fixture
def gated_submit(monkeypatch):
    """Replace runtime_submit with a gate: jobs block until ``release`` is set."""
    real_submit = serving_module.runtime_submit
    started = threading.Event()
    release = threading.Event()

    def submit(bundle, **kwargs):
        started.set()
        assert release.wait(timeout=60)
        return real_submit(bundle, **kwargs)

    monkeypatch.setattr(serving_module, "runtime_submit", submit)
    yield started, release
    release.set()  # never leave an abandoned attempt blocked


# -- RetryPolicy --------------------------------------------------------------------

def test_retry_policy_validation():
    with pytest.raises(ServiceError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ServiceError, match="backoff_s"):
        RetryPolicy(backoff_s=-1.0)
    with pytest.raises(ServiceError, match="multiplier"):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ServiceError, match="jitter"):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ServiceError, match="seed"):
        RetryPolicy(seed=-1)
    for field, bad in [
        ("max_attempts", "3"),
        ("backoff_s", "0.1"),
        ("multiplier", None),
        ("jitter", "x"),
        ("jitter", True),
    ]:
        with pytest.raises(ServiceError, match=field):
            RetryPolicy(**{field: bad})
    with pytest.raises(ServiceError, match="RetryPolicy"):
        JobService(retry_policy="twice")
    for lanes in ("2", 1.5, True, 0):
        with pytest.raises(ServiceError, match="lanes"):
            JobService(lanes=lanes)


def test_retry_backoff_is_deterministic_and_exponential():
    policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.2, seed=7)
    # Same (seed, job, attempt) triple -> same delay, across instances.
    again = RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.2, seed=7)
    for job_id in (1, 2, 17):
        for attempt in (0, 1, 2):
            delay = policy.delay_s(job_id, attempt)
            assert delay == again.delay_s(job_id, attempt)
            base = 0.1 * 2.0 ** attempt
            assert base * 0.8 <= delay <= base * 1.2
    # Jitter decorrelates jobs; zero jitter is exact.
    assert policy.delay_s(1, 0) != policy.delay_s(2, 0)
    exact = RetryPolicy(backoff_s=0.1, multiplier=3.0, jitter=0.0)
    assert exact.delay_s(5, 2) == pytest.approx(0.9)


def test_transient_failures_retry_to_success(monkeypatch):
    real_submit = serving_module.runtime_submit
    calls = []

    def flaky_submit(bundle, **kwargs):
        calls.append(bundle.name)
        if len(calls) < 3:
            raise TransientExecutionError("worker flaked")
        return real_submit(bundle, **kwargs)

    monkeypatch.setattr(serving_module, "runtime_submit", flaky_submit)
    policy = RetryPolicy(max_attempts=3, backoff_s=0.001, jitter=0.0)
    with JobService(retry_policy=policy) as service:
        result = service.submit(qft_bundle("flaky")).result(timeout=60)
        stats = service.stats()
    assert len(calls) == 3
    assert result.metadata["serving"]["attempts"] == 3
    assert stats["retries"] == 2
    assert stats["completed"] == 1
    assert stats["failed"] == 0


def test_transient_failures_exhaust_attempts(monkeypatch):
    def doomed_submit(bundle, **kwargs):
        raise TransientExecutionError("always flakes")

    monkeypatch.setattr(serving_module, "runtime_submit", doomed_submit)
    policy = RetryPolicy(max_attempts=2, backoff_s=0.001, jitter=0.0)
    with JobService(retry_policy=policy) as service:
        ticket = service.submit(qft_bundle("doomed"))
        assert isinstance(ticket.exception(timeout=60), TransientExecutionError)
        stats = service.stats()
    assert stats["retries"] == 1
    assert stats["failed"] == 1


def test_permanent_failures_never_retry(monkeypatch):
    calls = []

    def broken_submit(bundle, **kwargs):
        calls.append(bundle.name)
        raise ValueError("bad amplitude")

    monkeypatch.setattr(serving_module, "runtime_submit", broken_submit)
    policy = RetryPolicy(max_attempts=5, backoff_s=0.001)
    with JobService(retry_policy=policy) as service:
        ticket = service.submit(qft_bundle("permanent"))
        assert isinstance(ticket.exception(timeout=60), ValueError)
        stats = service.stats()
    assert calls == ["permanent"]  # exactly one attempt
    assert stats["retries"] == 0
    assert stats["failed"] == 1


# -- deadlines ----------------------------------------------------------------------

def test_deadline_kills_overrunning_job(gated_submit):
    started, release = gated_submit
    # Even with retries configured, a deadline kill is permanent.
    policy = RetryPolicy(max_attempts=3, backoff_s=0.001)
    with JobService(retry_policy=policy, default_deadline_s=0.1) as service:
        ticket = service.submit(qft_bundle("overrun"))
        exc = ticket.exception(timeout=60)
        assert isinstance(exc, DeadlineExceededError)
        release.set()  # unblock the abandoned attempt
        stats = service.stats()
    assert stats["deadline_kills"] == 1
    assert stats["failed"] == 1
    assert stats["retries"] == 0


def test_deadline_message_names_the_job_and_its_deadline(gated_submit):
    started, release = gated_submit
    with JobService() as service:
        ticket = service.submit(qft_bundle("late", options={"deadline_s": 1}))
        exc = ticket.exception(timeout=60)
        release.set()
    assert isinstance(exc, DeadlineExceededError)
    assert "job 'late' exceeded its 1.0s deadline" in str(exc)


def test_deadline_from_bundle_options_and_fast_jobs_pass():
    bundle = qft_bundle("quick", options={"deadline_s": 60})
    with JobService() as service:
        result = service.submit(bundle).result(timeout=60)
    assert result.counts.shots == 256


def test_invalid_deadline_rejected_at_admission():
    with JobService() as service:
        with pytest.raises(ServiceError, match="deadline_s"):
            service.submit(qft_bundle("bad", options={"deadline_s": -1}))
        assert service.stats()["submitted"] == 0
    with pytest.raises(ServiceError, match="default_deadline_s"):
        JobService(default_deadline_s=0)


# -- backpressure -------------------------------------------------------------------

def test_max_pending_bounds_admission(gated_submit):
    started, release = gated_submit
    with JobService(max_pending=2, coalesce=False) as service:
        service.submit(qft_bundle("a"))
        service.submit(qft_bundle("b"))
        with pytest.raises(QueueFullError, match="max_pending=2"):
            service.submit(qft_bundle("c"))
        stats = service.stats()
        assert stats["rejected"] == 1
        assert stats["submitted"] == 2
        release.set()
        service.drain()
        # Settled jobs free their slots: admission works again.
        assert service.submit(qft_bundle("c")).result(timeout=60) is not None
    with pytest.raises(ServiceError, match="max_pending"):
        JobService(max_pending=0)


def test_submit_many_is_all_or_nothing_against_the_bound(gated_submit):
    started, release = gated_submit
    with JobService(max_pending=3, coalesce=False) as service:
        service.submit(qft_bundle("live"))
        bundles = [qft_bundle(f"batch{i}") for i in range(3)]
        with pytest.raises(QueueFullError, match="batch of 3"):
            service.submit_many(bundles)
        stats = service.stats()
        assert stats["submitted"] == 1  # nothing from the batch was enqueued
        assert stats["rejected"] == 3
        release.set()


def test_submit_many_is_all_or_nothing_against_live_names(gated_submit):
    started, release = gated_submit
    with JobService(lanes=1) as service:
        service.submit(qft_bundle("a"))
        assert started.wait(timeout=60)  # "a" is live on the single lane
        with pytest.raises(ServiceError, match="'a' is already queued or running"):
            service.submit_many([qft_bundle("b"), qft_bundle("a")])
        submitted = service.stats()["submitted"]
        release.set()
        drained = [ticket.name for ticket in service.drain()]
    assert submitted == 1  # "b" was not enqueued either
    assert drained == ["a"]


# -- cancellation and close(drain=False) --------------------------------------------

def test_cancel_pending_job(gated_submit):
    started, release = gated_submit
    with JobService(lanes=1, coalesce=False) as service:
        running = service.submit(qft_bundle("running"))
        assert started.wait(timeout=60)
        queued = service.submit(qft_bundle("queued"))
        assert queued.cancel() is True
        assert queued.cancel() is True  # idempotent, still counted once
        assert running.cancel() is False  # already running: cooperative only
        with pytest.raises(CancelledError):
            queued.result(timeout=60)
        release.set()
        assert running.result(timeout=60) is not None
        # The cancelled ticket still appears in the completion stream.
        seen = {ticket.name for ticket in service.as_completed(timeout=60)}
        assert seen == {"running", "queued"}
        stats = service.stats()
    assert stats["cancelled"] == 1
    assert stats["completed"] == 1


def test_close_without_drain_cancels_outstanding(gated_submit):
    started, release = gated_submit
    service = JobService(lanes=1, coalesce=False)
    running = service.submit(qft_bundle("running"))
    assert started.wait(timeout=60)
    queued = [service.submit(qft_bundle(f"q{i}")) for i in range(2)]
    closer = threading.Thread(target=lambda: service.close(drain=False))
    closer.start()
    # Queued tickets fail fast with CancelledError while the running
    # attempt is allowed to finish.
    for ticket in queued:
        with pytest.raises(CancelledError):
            ticket.result(timeout=60)
    release.set()
    closer.join(timeout=60)
    assert not closer.is_alive()
    assert running.result(timeout=60) is not None
    stats = service.stats()
    assert stats["cancelled"] == 2
    assert stats["completed"] == 1
    # drain() treats cancelled tickets as settled and never re-raises.
    assert len(service.drain()) == 3


# -- as_completed timeout -----------------------------------------------------------

def test_as_completed_timeout_preserves_cursor(gated_submit):
    started, release = gated_submit
    with JobService() as service:
        service.submit(qft_bundle("slowpoke"))
        assert started.wait(timeout=60)
        with pytest.raises(TimeoutError, match="cursor is preserved"):
            list(service.as_completed(timeout=0.05))
        release.set()
        # The cursor survived the timeout: resuming yields the job once.
        seen = [ticket.name for ticket in service.as_completed(timeout=60)]
    assert seen == ["slowpoke"]


# -- degradation ladder -------------------------------------------------------------

def test_pool_breakage_degrades_to_thread_executor(monkeypatch):
    real_submit = serving_module.runtime_submit
    executors = []
    budget = serving_module.FALLBACK_AFTER_BREAKAGES
    assert budget == 3  # the shipped ladder; the test drives it unpatched
    with pytest.raises(TypeError):
        JobService(fallback_after=1)  # a constant, not a service option

    def crashing_submit(bundle, **kwargs):
        executors.append(bundle.context.exec.options.get("trajectory_executor"))
        if len(executors) <= budget:
            raise BrokenExecutor("process pool died")
        return real_submit(bundle, **kwargs)

    monkeypatch.setattr(serving_module, "runtime_submit", crashing_submit)
    policy = RetryPolicy(max_attempts=budget + 1, backoff_s=0.001)
    with JobService(
        retry_policy=policy,
        exec_options={"trajectory_executor": "process"},
    ) as service:
        result = service.submit(qft_bundle("degraded")).result(timeout=60)
        stats = service.stats()
        typed = service.service_stats()
    # The first three attempts ran on the requested process executor and
    # each broke the pool; the third breakage spent the budget, so the next
    # retry was forced onto the thread executor.
    assert executors == ["process"] * budget + ["thread"]
    assert result.metadata["serving"]["executor_fallback"] is True
    assert stats["pool_breakages"] == budget
    assert stats["executor_fallback"] == 1
    assert isinstance(typed, ServiceStats)
    assert typed.executor_fallback is True
    assert typed.retries == budget


def test_recovered_crashes_count_toward_stats(monkeypatch):
    real_submit = serving_module.runtime_submit

    def recovered_submit(bundle, **kwargs):
        result = real_submit(bundle, **kwargs)
        result.metadata["executor_recovery"] = {
            "pool_rebuilds": 3,
            "groups_redispatched": 3,
        }
        return result

    monkeypatch.setattr(serving_module, "runtime_submit", recovered_submit)
    with JobService() as service:
        result = service.submit(qft_bundle("survivor")).result(timeout=60)
        stats = service.stats()
    assert result.metadata["serving"]["attempts"] == 1
    assert stats["crashes_recovered"] == 3
    assert stats["pool_breakages"] == 3
    assert stats["executor_fallback"] == 1  # budget spent by recovered crashes


def test_exhausted_crash_recovery_counts_every_rebuild(monkeypatch):
    real_submit = serving_module.runtime_submit
    executors = []

    def exhausted_submit(bundle, **kwargs):
        executors.append(bundle.context.exec.options.get("trajectory_executor"))
        if len(executors) == 1:
            # What the process executor raises after its third pool rebuild.
            raise WorkerCrashError("worker pool broke 3 times in one run", rebuilds=3)
        return real_submit(bundle, **kwargs)

    monkeypatch.setattr(serving_module, "runtime_submit", exhausted_submit)
    with JobService(
        retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.001),
        exec_options={"trajectory_executor": "process"},
    ) as service:
        result = service.submit(qft_bundle("exhausted")).result(timeout=60)
        stats = service.stats()
    # Three breakages in one run spend the whole budget: the retry degrades.
    assert executors == ["process", "thread"]
    assert stats["pool_breakages"] == 3
    assert stats["crashes_recovered"] == 0
    assert stats["retries"] == 1
    assert result.metadata["serving"]["executor_fallback"] is True


# -- end to end: injected crash through the serving stack ---------------------------

def test_serving_job_with_killed_worker_matches_fault_free():
    from repro.simulators.gate.procpool import shutdown_worker_pool

    process_options = {
        "trajectory_executor": "process",
        "noise": {"oneq_error": 1e-3},
        "max_batch_memory": 128 * 32,
    }
    try:
        with JobService() as service:
            clean = service.submit(
                qft_bundle("clean", width=3, options=process_options)
            ).result(timeout=120)
            crashed = service.submit(
                qft_bundle(
                    "crashed",
                    width=3,
                    options={
                        **process_options,
                        # JSON-safe spec, exactly as a remote client would send.
                        "fault_plan": {"events": [{"kind": "kill", "chunk_id": 0}]},
                    },
                )
            ).result(timeout=120)
            stats = service.stats()
        assert crashed.metadata["executor_recovery"]["pool_rebuilds"] == 1
        assert dict(crashed.counts) == dict(clean.counts)
        assert stats["crashes_recovered"] == 1
        assert stats["completed"] == 2
        assert stats["failed"] == 0
    finally:
        shutdown_worker_pool()
