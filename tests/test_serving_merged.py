"""Tests for the serving layer's merged (batch-axis) group execution.

The serving contract on top of :meth:`StatevectorSimulator.run_merged`: jobs
that share one group key (engine plus
:meth:`~repro.backends.gate_backend.GateBackend.merge_key`) execute as
**one** backend call, each ticket gets back exactly the counts a standalone
submission would produce, and the fast path degrades gracefully — a
different-intent job runs alone, and cancelled members, a member's deadline
expiry, and whole-group failures all isolate to the affected ticket while
the rest of the group still completes (merged when ``>= 2`` members remain
live, solo otherwise).  Also covered: admission lowers nothing and a merged
group lowers and transpiles once, a bundle whose lowering raises fails only
its own ticket, ``GateBackend.run_merged`` rejects members with different
merge keys, and a barrier keeps jobs out of one merge.  A solo job is a group
of one in the same attempt loop: a merged transient failure re-runs members
alone without spending retries, a shared run's recovered crash counts once,
and solo and merged results carry the same serving keys.
"""

import threading
from concurrent.futures import CancelledError

import pytest

from repro.backends import gate_backend, runtime
from repro.backends.lowering import (
    GATE_LOWERING_RULES,
    clear_lowering_cache,
    lowering_cache_info,
    register_gate_lowering,
)
from repro.core import ContextDescriptor, ExecPolicy, package, phase_register
from repro.core.errors import (
    BackendError,
    DeadlineExceededError,
    LoweringError,
    TransientExecutionError,
)
from repro.oplib import build_operator, measurement, qft_operator
from repro.oplib.stateprep import prep_uniform
from repro.problems import MaxCutProblem
from repro.services import CostAwareScheduler, JobService, RetryPolicy
from repro.services import serving as serving_module
from repro.simulators.gate.transpiler import transpile
from repro.workflows import build_anneal_bundle, build_qaoa_bundle
from repro.workflows.maxcut import default_gate_context


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


NOISY = {"noise": {"oneq_error": 0.01, "twoq_error": 0.02}, "max_batch_memory": 16 * 1024}


def group(prefix, size, *, options=None):
    """A merge-eligible group: same structure, per-job samples and seeds."""
    return [
        qft_bundle(
            f"{prefix}{i}", seed=i + 1, samples=128 + 64 * i, options=options
        )
        for i in range(size)
    ]


def counts_by_name(service, bundles):
    tickets = service.submit_many(bundles)
    return {t.name: dict(t.result(timeout=120).counts) for t in tickets}, tickets


# -- bit-identity through the service -----------------------------------------------

@pytest.mark.parametrize("options", [None, NOISY], ids=["exact", "trajectories"])
def test_merged_service_counts_match_back_to_back(options):
    bundles = group("m", 4, options=options)
    with JobService(lanes=1) as merged_service:
        merged, tickets = counts_by_name(merged_service, bundles)
        merged_stats = merged_service.stats()
    with JobService(lanes=1, coalesce=False) as solo_service:
        solo, _ = counts_by_name(solo_service, group("m", 4, options=options))
        solo_stats = solo_service.stats()
    assert merged == solo
    assert merged_stats["merged_groups"] == 1
    assert merged_stats["merged_jobs"] == 4
    assert solo_stats["merged_groups"] == 0
    assert solo_stats["merged_jobs"] == 0
    for ticket in tickets:
        serving = ticket.result().metadata["serving"]
        assert serving["merged"] is True
        assert serving["group_size"] == 4


def test_per_job_opt_out_runs_solo_next_to_the_merge():
    bundles = group("o", 3)
    bundles.append(qft_bundle("o3", width=5, seed=4, samples=320))  # another intent
    with JobService(lanes=1) as service:
        results, tickets = counts_by_name(service, bundles)
        stats = service.stats()
    assert stats["merged_groups"] == 1
    assert stats["merged_jobs"] == 3
    assert stats["completed"] == 4
    by_name = {t.name: t for t in tickets}
    assert by_name["o3"].result().metadata["serving"]["merged"] is False
    assert by_name["o0"].result().metadata["serving"]["merged"] is True
    # The job that ran alone matches its own standalone submission.
    with JobService(lanes=1, coalesce=False) as solo_service:
        alone = solo_service.submit(
            qft_bundle("o3", width=5, seed=4, samples=320)
        ).result(timeout=120)
    assert results["o3"] == dict(alone.counts)


@pytest.fixture
def qft_lowerings():
    """Names of the QFT operators really lowered (memo hits do not count).

    Wraps the ``QFT_TEMPLATE`` rule; registering a rule also empties the
    lowering memo, so nothing lowered before the test can hit.
    """
    original = GATE_LOWERING_RULES["QFT_TEMPLATE"]
    calls = []

    def counting_rule(op, qdts, allocation, circuit, clbit_offset):
        calls.append(op.name)
        original(op, qdts, allocation, circuit, clbit_offset)

    register_gate_lowering("QFT_TEMPLATE", counting_rule, replace=True)
    yield calls
    register_gate_lowering("QFT_TEMPLATE", original, replace=True)


def test_lowering_happens_once_per_job(qft_lowerings):
    # The group key digests the intent without lowering it; execution
    # lowers the merged group's one intent once.
    with JobService(lanes=1) as service:
        tickets = service.submit_many(group("lo", 3))
        keyed = len(qft_lowerings)
        for ticket in tickets:
            ticket.result(timeout=120)
        stats = service.stats()
    assert keyed == 0  # admission lowers nothing
    assert len(qft_lowerings) == 1  # the merged group lowers once
    assert stats["merged_groups"] == 1

    clear_lowering_cache()
    del qft_lowerings[:]
    mixed = [qft_bundle(f"lw{i}", width=4 + i % 2, seed=i + 1) for i in range(4)]
    with JobService(lanes=1) as service:
        for ticket in service.submit_many(mixed):
            ticket.result(timeout=120)
    assert len(qft_lowerings) == 2  # two distinct intents, each lowered once


@pytest.fixture
def failing_prep_uniform():
    """Make every ``PREP_UNIFORM`` lowering raise; the real rule returns after."""
    original = GATE_LOWERING_RULES["PREP_UNIFORM"]

    def failing_rule(op, qdts, allocation, circuit, clbit_offset):
        raise LoweringError("injected lowering failure")

    register_gate_lowering("PREP_UNIFORM", failing_rule, replace=True)
    yield
    register_gate_lowering("PREP_UNIFORM", original, replace=True)


def test_a_bundle_whose_lowering_raises_is_admitted_and_fails_alone(failing_prep_uniform):
    bundles = group("ok", 2) + [barrier_bundle("bad", barrier=False, seed=5)]
    with JobService(lanes=1) as service:
        tickets = service.submit_many(bundles)  # admission lowers nothing
        assert isinstance(tickets[2].exception(timeout=120), LoweringError)
        results = [ticket.result(timeout=120) for ticket in tickets[:2]]
        stats = service.stats()
    assert (stats["completed"], stats["failed"], stats["merged_jobs"]) == (2, 1, 2)
    assert all(result.metadata["serving"]["merged"] for result in results)


def test_run_merged_rejects_members_without_one_merge_key(monkeypatch):
    transpiles = []
    real_transpile = gate_backend.transpile_cached

    def counting_transpile(circuit, **kwargs):
        transpiles.append(circuit.name)
        return real_transpile(circuit, **kwargs)

    monkeypatch.setattr(gate_backend, "transpile_cached", counting_transpile)
    problem = MaxCutProblem.cycle(4)
    angles = [
        build_qaoa_bundle(problem, gammas=[gamma], betas=[0.4], name=f"g{gamma}")
        for gamma in (0.3, 0.5)
    ]
    widths = [qft_bundle("w4", width=4), qft_bundle("w5", width=5)]
    backend = gate_backend.GateBackend()
    for pair in (angles, widths):
        before = lowering_cache_info()
        with pytest.raises(BackendError, match="merge key"):
            backend.run_merged(pair)
        with pytest.raises(BackendError, match="merge key"):
            runtime.submit_merged(pair, backend=backend)
        assert lowering_cache_info() == before  # rejected before any work
    assert transpiles == []


def qaoa_group(size):
    """Merge-eligible QAOA bundles on a routed ring-with-chord target."""
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    problem = MaxCutProblem.from_edges(edges, [0.5 + 0.1 * k for k in range(len(edges))])
    return [
        build_qaoa_bundle(
            problem,
            gammas=[0.35],
            betas=[2.65],
            context=default_gate_context(problem, samples=256 + 32 * i, seed=i + 1),
            name=f"t{i}",
        )
        for i in range(size)
    ]


def test_one_transpile_per_merged_group_metadata_unchanged(monkeypatch):
    calls = []
    real_transpile = gate_backend.transpile_cached

    def counting_transpile(circuit, **kwargs):
        calls.append(circuit.name)
        return real_transpile(circuit, **kwargs)

    bundles = qaoa_group(8)
    monkeypatch.setattr(gate_backend, "transpile_cached", counting_transpile)
    with JobService(lanes=1) as service:
        results = [ticket.result(timeout=120) for ticket in service.submit_many(bundles)]
        stats = service.stats()
    assert stats["merged_groups"] == 1 and stats["merged_jobs"] == 8
    assert calls == ["t0"]  # the first member's transpile serves the group
    monkeypatch.undo()

    ignored = {"wall_time_s", "merged", "serving"}
    backend = gate_backend.GateBackend()
    for bundle, result in zip(bundles, results):
        served = result.metadata
        solo = runtime.submit(bundle).metadata
        assert {k: v for k, v in served.items() if k not in ignored} == {
            k: v for k, v in solo.items() if k not in ignored
        }
        lowered, _ = backend.build_circuit(bundle)
        target = bundle.context.exec.target
        transpiled = transpile(
            lowered,
            basis_gates=list(target.basis_gates),
            coupling_map=list(target.coupling_map),
            optimization_level=bundle.context.exec.options["optimization_level"],
        ).circuit
        fresh = {
            "lowered_depth": lowered.depth(),
            "lowered_twoq": lowered.num_twoq_gates(),
            "transpiled_depth": transpiled.depth(),
            "transpiled_twoq": transpiled.num_twoq_gates(),
        }
        assert {key: served[key] for key in fresh} == fresh
        assert all(type(served[key]) is int for key in fresh)
        assert fresh["transpiled_twoq"] > fresh["lowered_twoq"]  # the chord was routed
    # Every member owns its metadata: mutating one result touches no other.
    results[0].metadata["transpile_metrics"]["depth"] = -1.0
    assert all(r.metadata["transpile_metrics"]["depth"] > 0 for r in results[1:])


def barrier_bundle(name, *, barrier, seed):
    """H, [barrier,] H, measure on three qubits under heavy 1q noise."""
    reg = phase_register("p", 3)
    operators = [prep_uniform(reg, name="h1")]
    if barrier:
        operators.append(build_operator("bar", "BARRIER", reg))
    operators += [prep_uniform(reg, name="h2"), measurement(reg)]
    context = ContextDescriptor(
        exec=ExecPolicy(
            engine="gate.aer_simulator",
            samples=512,
            seed=seed,
            options={"noise": {"oneq_error": 0.2}},
        )
    )
    return package(reg, operators, context, name=name)


def test_barrier_keeps_jobs_out_of_one_merge():
    # Without the barrier the peephole passes cancel H.H, so A transpiles to
    # no gates and no noise; B's barrier keeps its gates (and their noise).
    # The two share a structure but not an intent, so not a group either.
    bundles = [
        barrier_bundle("A", barrier=False, seed=11),
        barrier_bundle("B", barrier=True, seed=22),
    ]
    with JobService(lanes=1) as service:
        served, tickets = counts_by_name(service, bundles)
        stats = service.stats()
    assert stats["groups"] == 2
    assert stats["merged_groups"] == 0  # two groups of one, each run solo
    assert served["A"] == {"000": 512}
    assert len(served["B"]) == 8
    for bundle, ticket in zip(bundles, tickets):
        solo = runtime.submit(bundle)
        assert served[bundle.name] == dict(solo.counts)
        metrics = ticket.result().metadata["transpile_metrics"]
        assert metrics == solo.metadata["transpile_metrics"]
    assert tickets[0].result().metadata["transpile_metrics"]["gates"] == 0
    assert tickets[1].result().metadata["transpile_metrics"]["gates"] == 6


# -- failure isolation --------------------------------------------------------------

def test_cancelled_member_does_not_poison_the_merge(monkeypatch):
    real_submit = serving_module.runtime_submit
    started = threading.Event()
    release = threading.Event()

    def gated_submit(bundle, **kwargs):
        started.set()
        assert release.wait(timeout=60)
        return real_submit(bundle, **kwargs)

    monkeypatch.setattr(serving_module, "runtime_submit", gated_submit)
    with JobService(lanes=1) as service:
        # A structurally different blocker pins the single lane so the
        # group is still pending when one member is cancelled.
        blocker = service.submit(qft_bundle("blocker", width=3))
        assert started.wait(timeout=60)
        tickets = service.submit_many(group("c", 3))
        assert tickets[1].cancel() is True
        release.set()
        assert blocker.result(timeout=120) is not None
        with pytest.raises(CancelledError):
            tickets[1].result(timeout=120)
        survivors = [tickets[0], tickets[2]]
        for ticket in survivors:
            serving = ticket.result(timeout=120).metadata["serving"]
            assert serving["merged"] is True  # two live members still merge
        stats = service.stats()
    assert stats["cancelled"] == 1
    assert stats["merged_groups"] == 1
    assert stats["merged_jobs"] == 2
    assert stats["completed"] == 3  # blocker + two survivors


def test_deadline_member_fails_alone_survivors_rerun_solo(monkeypatch):
    release = threading.Event()

    def stuck_merged(bundles, **kwargs):
        assert release.wait(timeout=60)
        raise AssertionError("the abandoned merged attempt must be discarded")

    monkeypatch.setattr(serving_module, "runtime_submit_merged", stuck_merged)
    bundles = group("d", 3)
    bundles[1] = qft_bundle(
        "d1", seed=2, samples=192, options={"deadline_s": 0.15}
    )
    try:
        with JobService(lanes=1) as service:
            tickets = service.submit_many(bundles)
            # The member with the spent deadline fails permanently...
            assert isinstance(
                tickets[1].exception(timeout=120), DeadlineExceededError
            )
            # ...while the deadline-free members re-run solo and succeed.
            for ticket in (tickets[0], tickets[2]):
                serving = ticket.result(timeout=120).metadata["serving"]
                assert serving["merged"] is False
            stats = service.stats()
    finally:
        release.set()
    assert stats["deadline_kills"] == 1
    assert stats["failed"] == 1
    assert stats["completed"] == 2
    assert stats["merged_jobs"] == 0


def test_merged_failure_falls_back_to_solo_for_every_member(monkeypatch):
    attempts = []

    def exploding_merged(bundles, **kwargs):
        attempts.append(len(bundles))
        raise RuntimeError("merged path fell over")

    monkeypatch.setattr(serving_module, "runtime_submit_merged", exploding_merged)
    bundles = group("f", 3)
    with JobService(lanes=1) as service:
        merged, tickets = counts_by_name(service, bundles)
        stats = service.stats()
    assert attempts == [3]  # one merged attempt for the whole group
    assert stats["completed"] == 3
    assert stats["failed"] == 0
    assert stats["merged_groups"] == 0  # nothing completed via the fast path
    for ticket in tickets:
        assert ticket.result().metadata["serving"]["merged"] is False
    # The solo fallback still produces standalone-identical counts.
    with JobService(lanes=1, coalesce=False) as solo_service:
        solo, _ = counts_by_name(solo_service, group("f", 3))
    assert merged == solo


# -- one attempt loop: a solo job is a group of one ---------------------------------

SERVING_KEYS = {
    "job_id", "engine", "group_size", "group_position", "attempts",
    "executor_fallback", "merged",
}


def test_merged_transient_failure_reruns_alone_without_spending_retries(monkeypatch):
    attempts = []

    def flaky_merged(bundles, **kwargs):
        attempts.append(len(bundles))
        raise TransientExecutionError("merged run flaked")

    monkeypatch.setattr(serving_module, "runtime_submit_merged", flaky_merged)
    policy = RetryPolicy(max_attempts=3, backoff_s=0.001, jitter=0.0)
    with JobService(lanes=1, retry_policy=policy) as service:
        merged, tickets = counts_by_name(service, group("r", 3))
        stats = service.stats()
    assert attempts == [3]  # the merged attempt is not retried as a group
    for ticket in tickets:
        serving = ticket.result().metadata["serving"]
        assert serving["attempts"] == 1
        assert serving["merged"] is False
    assert stats["retries"] == 0
    with JobService(lanes=1, retry_policy=policy, coalesce=False) as solo_service:
        solo, _ = counts_by_name(solo_service, group("r", 3))
        solo_stats = solo_service.stats()
    assert merged == solo
    # Every counter but the grouping ones reads as if the jobs had run alone.
    assert (stats["groups"], stats["coalesced"]) == (1, 2)
    assert (solo_stats["groups"], solo_stats["coalesced"]) == (3, 0)
    grouping = {"groups", "coalesced"}
    assert {k: v for k, v in stats.items() if k not in grouping} == {
        k: v for k, v in solo_stats.items() if k not in grouping
    }


def test_merged_recovered_crash_counts_once(monkeypatch):
    real_merged = serving_module.runtime_submit_merged

    def recovered_merged(bundles, **kwargs):
        results = real_merged(bundles, **kwargs)
        for result in results:  # one shared run, stamped on every member
            result.metadata["executor_recovery"] = {
                "pool_rebuilds": 1,
                "groups_redispatched": 1,
            }
        return results

    monkeypatch.setattr(serving_module, "runtime_submit_merged", recovered_merged)
    with JobService(lanes=1) as service:
        counts_by_name(service, group("k", 3))
        stats = service.stats()
    assert stats["merged_groups"] == 1
    assert stats["crashes_recovered"] == 1
    assert stats["pool_breakages"] == 1


def test_group_of_one_and_merged_member_carry_the_same_serving_keys():
    bundles = group("s", 2)
    bundles.append(qft_bundle("s2", width=5, seed=3, samples=256))  # another intent
    with JobService(lanes=1) as service:
        _, tickets = counts_by_name(service, bundles)
    merged = tickets[0].result().metadata["serving"]
    alone = tickets[2].result().metadata["serving"]
    assert set(merged) == set(alone) == SERVING_KEYS
    assert (merged["merged"], alone["merged"]) == (True, False)
    assert (merged["group_size"], alone["group_size"]) == (2, 1)
    assert (merged["group_position"], alone["group_position"]) == (0, 0)


def test_submit_places_like_a_batch_of_one():
    bundles = [
        qft_bundle("gate"),
        build_anneal_bundle(MaxCutProblem.cycle(4), name="anneal"),
    ]
    with JobService(lanes=1) as single, JobService(lanes=1) as batch:
        for bundle in bundles:
            alone = single.submit(bundle)
            (member,) = batch.submit_many([bundle])
            chosen = CostAwareScheduler().choose_engine(bundle)
            assert (alone.engine, alone.estimated_runtime_s) == chosen
            assert (member.engine, member.estimated_runtime_s) == chosen
