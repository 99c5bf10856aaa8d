"""Tests for the gate backend's lowering memo.

The memo keys a bundle's lowered ``(circuit, allocation)`` pair on the
content of its intent: the registers in declaration order (with their map
keys), the operators in order, and each operator's registry ``measures``
flag.  Covered: a hit equals a fresh lowering, is named after its own bundle
and shares nothing mutable with the memo; intents that may lower differently
(a changed registry ``measures`` flag among them) never share a key;
registering a lowering rule or a gate empties the memo; a failing lowering is
never stored; concurrent lookups of one intent leave one entry; a
``job.json`` round trip lowers identically and hits; and a repeated
submission is one miss, then one hit, with identical results.  The gate
backend's merge key, which the serving layer groups jobs by, uses the same
intent digest: computing it lowers nothing, it ignores name, samples, seed and
deadline, and it changes with the engine, the target, any other option and
any operator parameter.
"""

import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.backends import (
    GATE_LOWERING_RULES,
    GateBackend,
    clear_lowering_cache,
    lowering_cache_info,
    register_gate_lowering,
    submit,
)
from repro.core import (
    ContextDescriptor,
    ExecPolicy,
    JobBundle,
    LoweringError,
    ResultSchema,
    TargetSpec,
    boolean_register,
    integer_register,
    ising_register,
    package,
    phase_register,
)
from repro.core.registry import get_rep_kind, register_rep_kind
from repro.oplib import (
    adder_operator,
    build_operator,
    controlled_phase_operator,
    cost_layer,
    cswap_operator,
    measurement,
    mixer_layer,
    prep_amplitude,
    prep_angle,
    prep_basis_state,
    prep_uniform,
    qft_operator,
    qpe_operator,
    register_adder_operator,
    repetition_memory_operator,
    repetition_register,
    swap_test_operator,
)
from repro.simulators.gate.gates import _GATES, register_gate


@pytest.fixture(autouse=True)
def empty_memo():
    clear_lowering_cache()
    yield
    clear_lowering_cache()


def context(seed=1, samples=256, options=None):
    return ContextDescriptor(
        exec=ExecPolicy(
            engine="gate.aer_simulator", samples=samples, seed=seed, options=dict(options or {})
        )
    )


def bundle_of(qdts, operators, *, name="job", seed=1):
    return package(qdts, operators, context(seed=seed), name=name, validate=False)


def qec_bundle(name="qec", *, distance=5, rounds=2, seed=1):
    patch = repetition_register("patch", distance)
    operator = repetition_memory_operator(patch, distance, rounds=rounds)
    return bundle_of(patch, [operator], name=name, seed=seed)


def qft_bundle(name="qft", *, width=4):
    reg = phase_register("p", width)
    return bundle_of(reg, [qft_operator(reg), measurement(reg)], name=name)


def swap_test_bundle(name="swap"):
    a, b = integer_register("a", 2), integer_register("b", 2)
    ancilla = ising_register("anc", 1)
    operators = [prep_basis_state(a, 1), prep_basis_state(b, 2), swap_test_operator(a, b, ancilla)]
    return bundle_of([a, b, ancilla], operators, name=name)


def shape(lowered):
    """Everything of a lowered pair a caller can read, the circuit's name aside."""
    circuit, allocation = lowered
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        list(circuit.instructions),
        dict(circuit.metadata),
        allocation,
    )


def entries():
    return lowering_cache_info()["entries"]


# -- hits ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [qec_bundle, swap_test_bundle], ids=["qec", "swap_test"])
def test_a_hit_equals_a_fresh_lowering_and_is_named_after_its_bundle(make):
    backend = GateBackend()
    backend.build_circuit(make("first"))
    again = make("second")  # the same intent under another name
    hit = backend.build_circuit(again)
    info = lowering_cache_info()
    assert (info["misses"], info["hits"], info["entries"]) == (1, 1, 1)
    assert info["maxsize"] == 256
    clear_lowering_cache()
    fresh = backend.build_circuit(again)
    assert shape(hit) == shape(fresh)
    assert hit[0].instructions == fresh[0].instructions  # instruction for instruction
    assert hit[0].name == fresh[0].name == "second"


def test_mutating_a_returned_pair_leaves_the_next_hit_unchanged():
    backend = GateBackend()
    bundle = swap_test_bundle()
    circuit, allocation = backend.build_circuit(bundle)  # the miss: the caller owns it
    expected = shape((circuit.copy(), GateBackend().allocate(bundle)))
    circuit.append("x", [0])
    allocation.qubit_map["a"].append(99)

    hit_circuit, hit_allocation = backend.build_circuit(bundle)
    assert shape((hit_circuit, hit_allocation)) == expected
    hit_circuit.append("h", [1])
    hit_circuit.metadata["touched"] = True
    hit_allocation.qubit_map["b"].reverse()
    hit_allocation.clbit_offsets.clear()

    assert shape(backend.build_circuit(bundle)) == expected
    assert lowering_cache_info()["hits"] == 2


# -- keys ---------------------------------------------------------------------------


def _parameter_value():
    reg = ising_register("s", 2)
    return [bundle_of(reg, [prep_angle(reg, [0.1, angle])]) for angle in (0.2, 0.3)]


def _int_against_float():
    patch = repetition_register("patch", 501)
    operator = repetition_memory_operator(patch, 501)
    return [bundle_of(patch, [op]) for op in (operator, operator.with_params(distance=501.0))]


def _register_order():
    a, b = integer_register("a", 2), integer_register("b", 3)
    operators = [prep_uniform(a), prep_basis_state(b, 5)]
    return [bundle_of(qdts, operators) for qdts in ([a, b], [b, a])]


def _operator_order():
    reg = ising_register("s", 2)
    first, second = prep_angle(reg, [0.1, 0.2]), build_operator("rst", "RESET", reg)
    return [bundle_of(reg, ops) for ops in ([first, second], [second, first])]


def _renamed_operator():
    # The allocation keys each measuring operator's clbit block on its name.
    reg = integer_register("n", 2)
    return [bundle_of(reg, [measurement(reg, name=name)]) for name in ("m1", "m2")]


def _clbit_order():
    reg = integer_register("n", 2)
    reversed_order = ResultSchema.for_register(reg)
    reversed_order.clbit_order = list(reversed(reversed_order.clbit_order))
    return [
        bundle_of(reg, [measurement(reg, result_schema=schema)])
        for schema in (ResultSchema.for_register(reg), reversed_order)
    ]


def _register_map_key():
    # Rules look registers up by map key and allocate by ``qdt.id``: the same
    # registers under swapped keys lower to other qubits.
    a, b = integer_register("a", 2), integer_register("b", 3)
    operators = [prep_uniform(b)]
    return [
        JobBundle(qdts=qdts, operators=operators, context=context())
        for qdts in ({"a": a, "b": b}, {"b": a, "a": b})
    ]


@pytest.mark.parametrize(
    "make_pair",
    [
        _parameter_value,
        _int_against_float,
        _register_order,
        _operator_order,
        _renamed_operator,
        _clbit_order,
        _register_map_key,
    ],
    ids=[
        "parameter_value",
        "501_against_501.0",
        "register_order",
        "operator_order",
        "renamed_operator",
        "clbit_order",
        "register_map_key",
    ],
)
def test_distinct_intents_never_share_an_entry(make_pair):
    backend = GateBackend()
    first, second = make_pair()
    lowered = [backend.build_circuit(first), backend.build_circuit(second)]
    info = lowering_cache_info()
    assert (info["misses"], info["hits"], info["entries"]) == (2, 0, 2)
    # Each entry is its own intent's lowering.
    for bundle, expected in zip((first, second), lowered):
        assert shape(backend.build_circuit(bundle)) == shape(expected)


def test_a_changed_measures_flag_is_another_intent():
    # Allocation gives clbits to operators whose kind measures; job.json does
    # not hold the registry flag, so the key must.
    backend = GateBackend()
    bundle = RULE_BUNDLES["QPE_TEMPLATE"]
    plain = backend.build_circuit(bundle)
    info = get_rep_kind("QPE_TEMPLATE")
    try:
        register_rep_kind(dataclasses.replace(info, measures=True), replace=True)
        measuring = backend.build_circuit(bundle)
    finally:
        register_rep_kind(info, replace=True)
    assert lowering_cache_info()["misses"] == 2
    assert "qpe" in measuring[1].clbit_offsets
    assert "qpe" not in plain[1].clbit_offsets


def test_swapped_register_map_keys_lower_to_other_qubits():
    backend = GateBackend()
    plain, swapped = _register_map_key()
    assert [i.qubits for i in backend.build_circuit(plain)[0].instructions] == [(2,), (3,), (4,)]
    assert [i.qubits for i in backend.build_circuit(swapped)[0].instructions] == [(2,), (3,)]


# -- invalidation and failures ------------------------------------------------------


def test_registering_a_lowering_rule_empties_the_memo():
    GateBackend().build_circuit(qft_bundle())
    assert entries() == 1
    register_gate_lowering("QFT_TEMPLATE", GATE_LOWERING_RULES["QFT_TEMPLATE"], replace=True)
    assert entries() == 0


def test_redefining_a_gate_empties_the_memo():
    GateBackend().build_circuit(qft_bundle())
    assert entries() == 1
    name = "probe_gate_for_lowering_memo"
    try:
        register_gate(name, 1, 0, lambda: np.eye(2, dtype=complex), replace=True)
        assert entries() == 0
    finally:
        _GATES.pop(name, None)


def test_a_failing_lowering_is_raised_again_and_never_stored():
    backend = GateBackend()
    backend.build_circuit(qft_bundle())
    reg = integer_register("n", 4)  # PREP_AMPLITUDE lowers only up to width 3
    wide = bundle_of(reg, [prep_amplitude(reg, [1.0] * 16), measurement(reg)])
    for _ in range(3):
        with pytest.raises(LoweringError):
            backend.build_circuit(wide)
        assert entries() == 1
    assert lowering_cache_info()["misses"] == 4


def test_eight_threads_lowering_one_intent_leave_one_entry():
    backend = GateBackend()
    bundle = qec_bundle()
    start = threading.Barrier(8, timeout=60)

    def lower(_):
        start.wait()
        return backend.build_circuit(bundle)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the lookups as finely as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lower, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(shape(result) == shape(results[0]) for result in results)
    assert len({id(circuit) for circuit, _ in results}) == 8
    info = lowering_cache_info()
    assert info["entries"] == 1
    assert info["hits"] + info["misses"] == 8


def test_a_repeated_submission_is_one_miss_then_one_hit():
    bundle = qec_bundle(distance=7, rounds=3)
    bundle.context.exec.options.update(
        trajectory_engine="stabilizer", noise={"twoq_error": 0.01, "readout_error": 0.02}
    )
    first = submit(bundle)
    assert (lowering_cache_info()["misses"], lowering_cache_info()["hits"]) == (1, 0)
    second = submit(bundle)
    assert (lowering_cache_info()["misses"], lowering_cache_info()["hits"]) == (1, 1)
    assert dict(second.counts) == dict(first.counts)
    first.metadata.pop("wall_time_s")
    second.metadata.pop("wall_time_s")
    assert second.metadata == first.metadata


# -- job.json round trip ---------------------------------------------------------------


def _rule_bundles():
    """One bundle per registered gate lowering rule (both adder kinds)."""
    p = phase_register("p", 3)
    n, m = integer_register("n", 3), integer_register("m", 3)
    s = ising_register("s", 4)
    a, b = integer_register("a", 2), integer_register("b", 2)
    ancilla = ising_register("anc", 1)
    flag = boolean_register("flag", 1)
    target = integer_register("t", 1)
    patch = repetition_register("patch", 5)
    edges = [(0, 1), (1, 2), (2, 3)]
    cases = {
        "PREP_UNIFORM": (s, [prep_uniform(s), measurement(s)]),
        "PREP_BASIS_STATE": (n, [prep_basis_state(n, 5), measurement(n)]),
        "PREP_ANGLE": (s, [prep_angle(s, [0.1, 0.2, 0.3, 0.4]), measurement(s)]),
        "PREP_AMPLITUDE": (a, [prep_amplitude(a, [0.1, 0.2, 0.3, 0.4]), measurement(a)]),
        "QFT_TEMPLATE": (p, [qft_operator(p, do_swaps=False), measurement(p)]),
        "ISING_COST_PHASE": (
            s,
            [cost_layer(s, edges, weights=[1.0, 0.5, 2.0], h=[0.0, 0.3, 0.0, 0.1], gamma=0.4)],
        ),
        "MIXER_RX": (s, [mixer_layer(s, beta=0.7), measurement(s, basis="X")]),
        "ISING_EVOLUTION": (
            s,
            [
                build_operator(
                    "evolve",
                    "ISING_EVOLUTION",
                    s,
                    params={"time": 0.5, "edges": [[0, 1], [2, 3]], "trotter_steps": 2},
                )
            ],
        ),
        "CONTROLLED_PHASE": ([a, b], [controlled_phase_operator(a, b, 0.7, control_index=1)]),
        "ADDER_TEMPLATE-classical_constant": (n, [adder_operator(n, 3), measurement(n)]),
        "ADDER_TEMPLATE-register": ([m, n], [register_adder_operator(n, m), measurement(n)]),
        "CSWAP_TEMPLATE": ([flag, a, b], [cswap_operator(flag, a, b)]),
        "SWAP_TEST": ([a, b, ancilla], [swap_test_operator(a, b, ancilla)]),
        "QPE_TEMPLATE": (
            [p, target],
            [
                qpe_operator(p, target, controlled_phase_operator(p, target, 2 * math.pi * 5 / 8)),
                measurement(p),
            ],
        ),
        "MEASUREMENT": (s, [measurement(s, basis="Y")]),
        "REPETITION_MEMORY": (patch, [repetition_memory_operator(patch, 5, rounds=2)]),
        "BARRIER": (s, [prep_uniform(s), build_operator("fence", "BARRIER", s)]),
        "IDENTITY": (s, [build_operator("pad", "IDENTITY", s)]),
        "RESET": (s, [prep_uniform(s), build_operator("rst", "RESET", s)]),
    }
    return {case: bundle_of(qdts, ops, name=case) for case, (qdts, ops) in cases.items()}


RULE_BUNDLES = _rule_bundles()


def test_round_trip_cases_cover_every_gate_lowering_rule():
    kinds = {op.rep_kind for bundle in RULE_BUNDLES.values() for op in bundle.operators}
    assert kinds == set(GATE_LOWERING_RULES)
    adders = [
        op.params["kind"]
        for bundle in RULE_BUNDLES.values()
        for op in bundle.operators
        if op.rep_kind == "ADDER_TEMPLATE"
    ]
    assert sorted(adders) == ["classical_constant", "register"]


@pytest.mark.parametrize("case", sorted(RULE_BUNDLES))
def test_a_job_json_round_trip_lowers_identically_and_hits(case):
    backend = GateBackend()
    bundle = RULE_BUNDLES[case]
    restored = JobBundle.from_dict(bundle.to_dict())
    original = backend.build_circuit(bundle)
    clear_lowering_cache()
    assert shape(backend.build_circuit(restored)) == shape(original)

    clear_lowering_cache()
    backend.build_circuit(bundle)
    misses = lowering_cache_info()["misses"]
    assert shape(backend.build_circuit(restored)) == shape(original)
    assert lowering_cache_info()["misses"] == misses
    assert lowering_cache_info()["hits"] == 1


# -- the merge key ---------------------------------------------------------------------


def with_exec(bundle, *, name=None, **changes):
    """*bundle* under a copy of its exec policy with *changes* applied."""
    ctx = bundle.context
    renamed = dataclasses.replace(bundle, name=name) if name else bundle
    return renamed.with_context(dataclasses.replace(ctx, exec=dataclasses.replace(ctx.exec, **changes)))


def test_merge_key_lowers_nothing():
    backend = GateBackend()
    before = lowering_cache_info()
    keys = {backend.merge_key(bundle) for bundle in RULE_BUNDLES.values()}
    assert len(keys) == len(RULE_BUNDLES)
    assert lowering_cache_info() == before


@pytest.mark.parametrize("case", sorted(RULE_BUNDLES))
def test_merge_key_ignores_name_samples_seed_and_deadline(case):
    backend = GateBackend()
    bundle = RULE_BUNDLES[case]
    options = {**bundle.context.exec.options, "deadline_s": 2.5}
    copy = with_exec(bundle, name="copy", samples=77, seed=99, options=options)
    assert backend.merge_key(copy) == backend.merge_key(bundle)
    original = backend.build_circuit(bundle)
    clear_lowering_cache()
    assert shape(backend.build_circuit(copy)) == shape(original)


@pytest.mark.parametrize("case", sorted(RULE_BUNDLES))
def test_merge_key_changes_with_engine_target_options_and_operator_params(case):
    backend = GateBackend()
    bundle = RULE_BUNDLES[case]
    options = bundle.context.exec.options
    variants = [
        with_exec(bundle, engine="gate.reference"),
        with_exec(bundle, target=TargetSpec(basis_gates=["rz", "sx", "cx"])),
        with_exec(bundle, target=TargetSpec(coupling_map=[(0, 1), (1, 2)])),
        with_exec(bundle, options={**options, "optimization_level": 2}),
        with_exec(bundle, options={**options, "noise": {"oneq_error": 0.01}}),
        # A retired option is an option like any other.
        with_exec(bundle, options={**options, "coalesce_merge": False}),
    ]
    for index, op in enumerate(bundle.operators):
        for param in op.params:
            operators = list(bundle.operators)
            operators[index] = op.with_params(**{param: "changed"})
            variants.append(dataclasses.replace(bundle, operators=operators))
    key = backend.merge_key(bundle)
    assert all(backend.merge_key(variant) != key for variant in variants)
