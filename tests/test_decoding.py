"""Tests for result-schema-driven decoding of counts."""

import random
from fractions import Fraction

import pytest

from repro.core import DecodingError, ResultSchema, integer_register, ising_register, phase_register
from repro.results import Counts, decode_counts


def test_decode_boolean_register(ising_vars):
    schema = ResultSchema.for_register(ising_vars)
    counts = Counts({"0101": 600, "1010": 400})
    decoded = decode_counts(counts, schema, {ising_vars.id: ising_vars})
    reg = decoded.single()
    assert reg.shots == 1000
    assert reg.most_likely().value == (0, 1, 0, 1)
    dist = reg.distribution()
    assert abs(dist[(0, 1, 0, 1)] - 0.6) < 1e-12


def test_decode_phase_register(reg_phase10):
    schema = ResultSchema.for_register(reg_phase10)
    counts = Counts({"0000000110": 900, "0000000000": 100})
    decoded = decode_counts(counts, schema, {reg_phase10.id: reg_phase10})
    reg = decoded["reg_phase"]
    assert reg.most_likely().value == Fraction(3, 8)
    expectation = reg.expectation(lambda v: float(v))
    assert abs(expectation - 0.9 * 0.375) < 1e-12


def test_decode_respects_clbit_order():
    reg = integer_register("n", 3)
    # clbit 0 holds carrier 2, clbit 2 holds carrier 0 (reversed wiring)
    schema = ResultSchema(
        basis="Z", datatype="AS_INT", bit_significance="LSB_0",
        clbit_order=["n[2]", "n[1]", "n[0]"],
    )
    counts = Counts({"100": 10})  # clbit0=1 -> carrier2=1 -> value 4
    decoded = decode_counts(counts, schema, {"n": reg})
    assert decoded["n"].most_likely().value == 4


def test_decode_multi_register():
    a = integer_register("a", 2)
    b = ising_register("b", 1)
    schema = ResultSchema(
        basis="Z", datatype="AS_BOOL",
        clbit_order=["a[0]", "a[1]", "b[0]"],
    )
    counts = Counts({"101": 7, "011": 3})
    decoded = decode_counts(counts, schema, {"a": a, "b": b})
    assert decoded.register_ids() == ["a", "b"]
    assert decoded["a"].most_likely().value == 1  # bits "10" -> LSB_0 -> 1
    assert decoded["b"].most_likely().value == (1,)
    with pytest.raises(DecodingError):
        decoded.single()


def test_width_mismatch_rejected(ising_vars):
    schema = ResultSchema.for_register(ising_vars)
    with pytest.raises(DecodingError):
        decode_counts(Counts({"01": 5}), schema, {ising_vars.id: ising_vars})


def test_unknown_register_rejected(ising_vars):
    schema = ResultSchema(basis="Z", datatype="AS_BOOL", clbit_order=["ghost[0]"])
    with pytest.raises(Exception):
        decode_counts(Counts({"0": 1}), schema, {ising_vars.id: ising_vars})


def test_raw_counts_preserved(ising_vars):
    schema = ResultSchema.for_register(ising_vars)
    counts = Counts({"0101": 1})
    decoded = decode_counts(counts, schema, {ising_vars.id: ising_vars})
    assert decoded.raw_counts is counts


def test_zero_width_counts_rejected_up_front(ising_vars):
    schema = ResultSchema.for_register(ising_vars)
    with pytest.raises(DecodingError):
        decode_counts(Counts({"": 5}), schema, {ising_vars.id: ising_vars})


def test_decode_matches_per_outcome_register_bits():
    a = integer_register("a", 3)
    b = ising_register("b", 3)  # carrier b[1] is never measured
    schema = ResultSchema(
        basis="Z", datatype="AS_RAW",
        clbit_order=["b[2]", "a[0]", "b[0]", "a[2]", "a[1]"],
    )
    qdts = {"a": a, "b": b}
    assert schema.register_bits("10110", a) == "001"
    assert schema.register_bits("10110", b) == "101"

    rng = random.Random(7)
    keys = {"".join(rng.choice("01") for _ in range(5)) for _ in range(24)}
    counts = Counts({key: rng.randint(1, 50) for key in keys})
    decoded = decode_counts(counts, schema, qdts)
    assert decoded.register_ids() == ["b", "a"]
    for register_id, qdt in qdts.items():
        per_bits = {}
        for bitstring, count in counts.items():
            bits = schema.register_bits(bitstring, qdt)
            per_bits[bits] = per_bits.get(bits, 0) + count
        got = decoded[register_id].outcomes
        assert [(o.bits, o.count) for o in got] == sorted(
            per_bits.items(), key=lambda kv: (-kv[1], kv[0])
        )
        assert [o.value for o in got] == [qdt.decode_bits(o.bits) for o in got]
        assert [o.probability for o in got] == [o.count / counts.shots for o in got]
    assert all(o.bits[1] == "0" for o in decoded["b"].outcomes)
