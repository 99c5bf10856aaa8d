"""Tests for the async serving queue (:mod:`repro.services.serving`).

The headline contract is grouping: N submissions of one intent and context
(seeds and sample counts free to differ) share one group key, form one
execution group, pay one fusion/template compile, and still stream N
independent results; ``coalesce=False`` is the one switch that turns
grouping off.  The rest covers admission control (no context, no capable
engine, duplicate live names, a bundle that fails validation, malformed
service arguments), the service-wide exec-option merge, mixed batches, and
QEC bundles riding the same queue.
"""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.core import ContextDescriptor, ExecPolicy, ServiceError, package, phase_register
from repro.oplib import measurement, qft_operator, repetition_memory_operator, repetition_register
from repro.services import CostAwareScheduler, JobService
from repro.simulators.gate.fusion import clear_compile_caches, compile_cache_info
from repro.workflows import build_qaoa_bundle
from repro.problems import MaxCutProblem


def qft_bundle(name, *, width=4, seed=1, samples=256):
    reg = phase_register("p", width)
    return package(
        reg,
        [qft_operator(reg, do_swaps=True), measurement(reg)],
        ContextDescriptor(
            exec=ExecPolicy(engine="gate.aer_simulator", samples=samples, seed=seed)
        ),
        name=name,
    )


def qec_bundle(name, *, distance=5, rounds=3, seed=7):
    reg = repetition_register("patch", distance)
    return package(
        reg,
        [repetition_memory_operator(reg, distance, rounds=rounds)],
        ContextDescriptor(
            exec=ExecPolicy(
                engine="gate.aer_simulator",
                samples=200,
                seed=seed,
                options={
                    "trajectory_engine": "auto",
                    "noise": {"oneq_error": 1e-3, "twoq_error": 2e-3},
                },
            )
        ),
        name=name,
    )


def test_submit_many_coalesces_identical_structures():
    # N jobs of one intent -> 1 group, 1 template compile,
    # N independent result streams.
    clear_compile_caches()
    bundles = [qft_bundle(f"user{i}", seed=i + 1) for i in range(5)]
    with JobService(lanes=1) as service:
        tickets = service.submit_many(bundles)
        results = {ticket.name: ticket.result(timeout=60) for ticket in tickets}
        stats = service.stats()
    assert stats == {
        "submitted": 5,
        "completed": 5,
        "failed": 0,
        "groups": 1,
        "coalesced": 4,
        "merged_groups": 1,
        "merged_jobs": 5,
        "retries": 0,
        "crashes_recovered": 0,
        "deadline_kills": 0,
        "cancelled": 0,
        "rejected": 0,
        "pool_breakages": 0,
        "executor_fallback": 0,
    }
    assert compile_cache_info()["template"]["misses"] == 1
    assert len(results) == 5
    positions = set()
    for ticket in tickets:
        serving = results[ticket.name].metadata["serving"]
        assert serving["group_size"] == 5
        assert serving["job_id"] == ticket.job_id
        assert serving["merged"] is True
        positions.add(serving["group_position"])
    assert positions == set(range(5))
    # Different seeds really did run independently.
    assert results["user1"].counts.shots == 256


def test_coalescing_disabled_gives_singleton_groups():
    bundles = [qft_bundle(f"solo{i}", seed=i + 1) for i in range(3)]
    with JobService(lanes=1, coalesce=False) as service:
        service.submit_many(bundles)
        service.drain()
        stats = service.stats()
    assert stats["groups"] == 3
    assert stats["coalesced"] == 0
    assert stats["completed"] == 3


def test_grouping_has_one_switch():
    with pytest.raises(TypeError):
        JobService(coalesce_merge=False)


def test_as_completed_streams_every_submission():
    with JobService(lanes=2) as service:
        service.submit_many([qft_bundle(f"s{i}", seed=i + 1) for i in range(4)])
        seen = [ticket.name for ticket in service.as_completed(timeout=60)]
    assert sorted(seen) == ["s0", "s1", "s2", "s3"]


def test_duplicate_live_name_rejected_then_reusable(monkeypatch):
    from repro.services import serving as serving_module

    real_submit = serving_module.runtime_submit
    started = threading.Event()
    release = threading.Event()

    def gated_submit(bundle, **kwargs):
        started.set()
        assert release.wait(timeout=60)
        return real_submit(bundle, **kwargs)

    monkeypatch.setattr(serving_module, "runtime_submit", gated_submit)
    with JobService(lanes=1) as service:
        first = service.submit(qft_bundle("dup"))
        assert started.wait(timeout=60)  # job is live on the lane
        with pytest.raises(ServiceError, match="already queued or running"):
            service.submit(qft_bundle("dup"))
        release.set()
        assert first.result(timeout=60).counts.shots == 256
        # After completion the name is free again.
        second = service.submit(qft_bundle("dup", seed=2))
        assert second.result(timeout=60) is not None
        assert service.ticket("dup") is second


def test_admission_requires_context():
    bundle = qft_bundle("bare").with_context(None)
    with JobService() as service:
        with pytest.raises(ServiceError, match="no execution context"):
            service.submit(bundle)
        assert service.stats()["submitted"] == 0


def test_admission_requires_capable_engine():
    # A gate-only scheduler cannot place an annealing bundle.
    from repro.workflows import build_anneal_bundle

    scheduler = CostAwareScheduler(engines=("gate.aer_simulator",))
    bundle = build_anneal_bundle(MaxCutProblem.cycle(4))
    with JobService(scheduler=scheduler) as service:
        with pytest.raises(ServiceError):
            service.submit(bundle)
        assert service.stats()["submitted"] == 0


def _measured_then_prepared(name):
    # Packaged unchecked: operator #2 acts on "p" after it was measured.
    from repro.oplib import prep_uniform

    reg = phase_register("p", 3)
    return package(
        reg,
        [prep_uniform(reg), measurement(reg), prep_uniform(reg)],
        ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", samples=64, seed=1)),
        name=name,
        validate=False,
    )


def test_admission_validates_like_runtime_submit():
    from repro.backends import runtime
    from repro.core import CompatibilityError, JobBundle

    bundle = _measured_then_prepared("interfering")
    with pytest.raises(CompatibilityError, match="after it has been measured"):
        runtime.submit(bundle)
    # A document round trip is only schema-checked; admission still catches it.
    reloaded = JobBundle.from_dict(bundle.to_dict())
    with JobService(lanes=1) as service:
        for candidate in (bundle, reloaded):
            with pytest.raises(CompatibilityError, match="after it has been measured"):
                service.submit(candidate)
        # submit_many is all-or-nothing: the valid bundle is not enqueued either.
        with pytest.raises(CompatibilityError):
            service.submit_many([qft_bundle("fine"), _measured_then_prepared("bad")])
        assert service.stats()["submitted"] == 0
        assert service.submit(qft_bundle("fine")).result(timeout=60).counts.shots == 256


def test_admission_rejects_a_negative_seed():
    from repro.core import SchemaValidationError

    bundle = build_qaoa_bundle(
        MaxCutProblem.cycle(4),
        context=ContextDescriptor(exec=ExecPolicy(engine="gate.aer_simulator", seed=1)),
    )
    bundle.context.exec.seed = -5  # the constructor rejects it; an edit must not slip by
    with JobService(lanes=1) as service:
        with pytest.raises(SchemaValidationError, match="below minimum"):
            service.submit(bundle)
        assert service.stats()["submitted"] == 0


def test_submit_after_close_rejected():
    service = JobService()
    service.close()
    with pytest.raises(ServiceError, match="closed"):
        service.submit(qft_bundle("late"))


def test_exec_options_merge_reaches_backend():
    bundle = build_qaoa_bundle(MaxCutProblem.cycle(4))
    overrides = {"noise": {"oneq_error": 1e-3}, "max_batch_memory": 4096}
    with JobService(exec_options=overrides) as service:
        result = service.submit(bundle).result(timeout=60)
    assert result.metadata["num_batches"] > 1
    assert result.metadata["trajectory_executor"] == "thread"
    # The caller's bundle is untouched: the merge happens on a copy.
    assert "noise" not in bundle.context.exec.options


def test_mixed_batch_places_per_bundle_and_qec_uses_stabilizer():
    bundles = [
        qft_bundle("fourier"),
        qec_bundle("memory"),
        build_qaoa_bundle(MaxCutProblem.cycle(4), name="maxcut"),
    ]
    with JobService(lanes=2) as service:
        tickets = {t.name: t for t in service.submit_many(bundles)}
        service.drain()
        stats = service.stats()
    assert stats["completed"] == 3
    assert stats["failed"] == 0
    qec_result = tickets["memory"].result()
    assert qec_result.metadata["trajectory_engine"] == "stabilizer"
    assert qec_result.counts.shots == 200
    assert tickets["fourier"].engine.startswith("gate.")


def test_failure_routes_to_ticket_not_service(monkeypatch):
    from repro.services import serving as serving_module

    def exploding_submit(bundle, **kwargs):
        raise RuntimeError("backend fell over")

    monkeypatch.setattr(serving_module, "runtime_submit", exploding_submit)
    with JobService() as service:
        ticket = service.submit(qft_bundle("doomed"))
        exc = ticket.exception(timeout=60)
        assert isinstance(exc, RuntimeError)
        with pytest.raises(RuntimeError, match="fell over"):
            ticket.result()
        stats = service.stats()
    assert stats["failed"] == 1
    assert stats["completed"] == 0


# -- ticket retention: collected tickets are dropped --------------------------------

def test_drained_ticket_is_garbage_collected_once_the_caller_drops_it():
    with JobService(lanes=1) as service:
        service.submit(qft_bundle("first"))
        ref = weakref.ref(service.drain()[0])
        # The lane may still be returning from the job; once it has, nothing
        # the service owns (queues, name index, idle dispatcher) holds it.
        for _ in range(500):
            gc.collect()
            if ref() is None:
                break
            time.sleep(0.01)
        assert ref() is None
        with pytest.raises(ServiceError, match="no uncollected job"):
            service.ticket("first")


def test_second_drain_returns_only_tickets_submitted_after_the_first():
    with JobService(lanes=1) as service:
        service.submit_many([qft_bundle(f"a{i}") for i in range(2)])
        assert [ticket.name for ticket in service.drain()] == ["a0", "a1"]
        later = service.submit(qft_bundle("b"))
        assert service.drain() == [later]
        assert service.drain() == []


def test_as_completed_skips_tickets_drain_already_returned():
    with JobService(lanes=1) as service:
        service.submit_many([qft_bundle(f"d{i}") for i in range(3)])
        assert len(service.drain()) == 3
        assert list(service.as_completed(timeout=60)) == []
        service.submit(qft_bundle("fresh"))
        assert [ticket.name for ticket in service.as_completed(timeout=60)] == ["fresh"]
        # Streaming collected it too: nothing is left for drain().
        assert service.drain() == []


def test_concurrent_drain_and_stream_hand_out_every_ticket_once():
    # More lanes than cores and a short switch interval: a lost update to the
    # uncollected set or the completion deque would duplicate, lose or pin
    # a ticket.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with JobService(lanes=4, coalesce=False) as service:
            names = {f"c{i}" for i in range(40)}
            service.submit_many([qft_bundle(name, width=3, samples=64) for name in names])
            streamed = []
            consumer = threading.Thread(
                target=lambda: streamed.extend(service.as_completed(timeout=60))
            )
            consumer.start()
            drained = service.drain()
            consumer.join(timeout=60)
            assert not consumer.is_alive()
            streamed_names = [ticket.name for ticket in streamed]
            assert len(streamed_names) == len(set(streamed_names))
            assert set(streamed_names) | {ticket.name for ticket in drained} == names
            assert service.drain() == []
            assert list(service.as_completed(timeout=1)) == []
            for name in names:
                with pytest.raises(ServiceError):
                    service.ticket(name)
    finally:
        sys.setswitchinterval(interval)
