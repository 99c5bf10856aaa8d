"""Tests for result schemas and clbit references."""

import pytest

from repro.core import DescriptorError, ResultSchema, ising_register, phase_register
from repro.core.result_schema import ClbitRef


def test_clbit_ref_parsing():
    ref = ClbitRef.parse("reg_phase[3]")
    assert ref.register == "reg_phase" and ref.index == 3
    assert str(ref) == "reg_phase[3]"
    with pytest.raises(DescriptorError):
        ClbitRef.parse("reg_phase")
    with pytest.raises(DescriptorError):
        ClbitRef.parse("reg[x]")


def test_for_register_matches_listing3(reg_phase10):
    schema = ResultSchema.for_register(reg_phase10)
    doc = schema.to_dict()
    assert doc["basis"] == "Z"
    assert doc["datatype"] == "AS_PHASE"
    assert doc["bit_significance"] == "LSB_0"
    assert doc["clbit_order"] == [f"reg_phase[{i}]" for i in range(10)]
    assert schema.num_clbits == 10


def test_round_trip():
    schema = ResultSchema(basis="Z", datatype="AS_BOOL", clbit_order=["s[0]", "s[1]"])
    rebuilt = ResultSchema.from_dict(schema.to_dict())
    assert rebuilt.to_dict() == schema.to_dict()
    assert ResultSchema.from_dict(None) is None


def test_invalid_basis_rejected():
    with pytest.raises(DescriptorError):
        ResultSchema(basis="W", clbit_order=["s[0]"])


def test_register_bits_extraction(ising_vars):
    schema = ResultSchema.for_register(ising_vars)
    # counts key char c = clbit c; clbit c maps to carrier c here
    assert schema.register_bits("0101", ising_vars) == "0101"
    # reversed clbit order maps clbit 0 to carrier 3
    reversed_schema = ResultSchema(
        basis="Z",
        datatype="AS_BOOL",
        clbit_order=[f"ising_vars[{i}]" for i in (3, 2, 1, 0)],
    )
    assert reversed_schema.register_bits("0001", ising_vars) == "1000"


def test_register_bits_wrong_length(ising_vars):
    schema = ResultSchema.for_register(ising_vars)
    with pytest.raises(DescriptorError):
        schema.register_bits("01", ising_vars)


def test_validate_against_unknown_register(ising_vars):
    schema = ResultSchema(basis="Z", datatype="AS_BOOL", clbit_order=["ghost[0]"])
    with pytest.raises(DescriptorError):
        schema.validate_against({"ising_vars": ising_vars})
    out_of_range = ResultSchema(basis="Z", datatype="AS_BOOL", clbit_order=["ising_vars[9]"])
    with pytest.raises(DescriptorError):
        out_of_range.validate_against({"ising_vars": ising_vars})


def test_multi_register_schema():
    a = ising_register("a", 2)
    b = ising_register("b", 1)
    schema = ResultSchema(
        basis="Z", datatype="AS_BOOL", clbit_order=["a[0]", "b[0]", "a[1]"]
    )
    assert schema.registers() == ["a", "b"]
    assert schema.clbits_for_register("a") == [(0, 0), (2, 1)]
    assert schema.register_bits("110", a) == "10"
    assert schema.register_bits("110", b) == "1"


def counting_parse(monkeypatch):
    """Count ClbitRef.parse calls from here on; returns the one-item counter."""
    calls = [0]
    parse = ClbitRef.parse.__func__

    def counted(cls, text):
        calls[0] += 1
        return parse(cls, text)

    monkeypatch.setattr(ClbitRef, "parse", classmethod(counted))
    return calls


def test_references_are_parsed_once_at_construction(monkeypatch):
    register = ising_register("patch", 1001)
    schema = ResultSchema.for_register(register)
    calls = counting_parse(monkeypatch)
    schema.validate_against({"patch": register})
    assert schema.registers() == ["patch"]
    assert schema.clbits_for_register("patch") == [(c, c) for c in range(1001)]
    assert schema.register_bits("1" + "0" * 1000, register) == "1" + "0" * 1000
    assert calls[0] == 0
    references = schema.references()
    references.clear()  # a fresh list each call: the kept one is untouched
    assert len(schema.references()) == 1001 and calls[0] == 0


def test_changed_clbit_order_is_what_validates_and_decodes(monkeypatch):
    a = ising_register("a", 2)
    b = ising_register("b", 1)
    schema = ResultSchema(basis="Z", datatype="AS_BOOL", clbit_order=["a[0]"])
    calls = counting_parse(monkeypatch)
    schema.clbit_order.append("b[0]")  # in place
    assert schema.registers() == ["a", "b"]
    assert schema.register_bits("01", b) == "1"
    schema.validate_against({"a": a, "b": b})
    with pytest.raises(DescriptorError):
        schema.validate_against({"a": a})
    assert calls[0] == 2  # parsed again once, then kept
    schema.clbit_order = ["a[1]", "a[0]"]  # rebound
    assert schema.clbits_for_register("a") == [(0, 1), (1, 0)]
    assert schema.register_bits("10", a) == "01"
    schema.clbit_order[0] = "a[7]"  # in place, one entry
    with pytest.raises(DescriptorError):
        schema.validate_against({"a": a})
    schema.clbit_order[0] = "bad"
    with pytest.raises(DescriptorError):
        schema.references()
