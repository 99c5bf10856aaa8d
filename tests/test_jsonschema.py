"""Tests for the embedded JSON Schema validator.

The compiled validator is held against the schema walker it replaced
(``engine_testlib.WalkerJSONSchemaValidator``): a seeded mutation fuzz over
real descriptor documents, hand cases for every keyword, and malformed
schemas.
"""

import copy

import numpy as np
import pytest

from engine_testlib import WalkerJSONSchemaValidator
from repro.core import (
    AnnealPolicy,
    CommPolicy,
    ContextDescriptor,
    ExecPolicy,
    PulsePolicy,
    QECPolicy,
    TargetSpec,
    package,
    phase_register,
)
from repro.core.errors import SchemaValidationError
from repro.core.jsonschema import JSONSchemaValidator, is_valid, iter_errors, validate
from repro.core.schemas import SCHEMAS
from repro.oplib import measurement, qft_operator, repetition_memory_operator, repetition_register
from repro.problems import MaxCutProblem
from repro.workflows import build_anneal_bundle, build_qaoa_bundle


def test_type_checks():
    assert is_valid(3, {"type": "integer"})
    assert is_valid(3.5, {"type": "number"})
    assert not is_valid(3.5, {"type": "integer"})
    assert not is_valid(True, {"type": "integer"})  # bools are not integers here
    assert is_valid("x", {"type": "string"})
    assert is_valid(None, {"type": "null"})
    assert is_valid([1, 2], {"type": "array"})
    assert is_valid({"a": 1}, {"type": "object"})


def test_union_types():
    schema = {"type": ["string", "integer"]}
    assert is_valid("x", schema)
    assert is_valid(4, schema)
    assert not is_valid(4.5, schema)


def test_required_and_additional_properties():
    schema = {
        "type": "object",
        "properties": {"a": {"type": "integer"}},
        "required": ["a"],
        "additionalProperties": False,
    }
    validate({"a": 1}, schema)
    with pytest.raises(SchemaValidationError):
        validate({}, schema)
    with pytest.raises(SchemaValidationError):
        validate({"a": 1, "b": 2}, schema)


def test_nested_property_error_path():
    schema = {
        "type": "object",
        "properties": {"exec": {"type": "object", "properties": {"samples": {"type": "integer"}}}},
    }
    errors = list(iter_errors({"exec": {"samples": "lots"}}, schema))
    assert errors and "$.exec.samples" in errors[0].path


def test_enum_and_const():
    assert is_valid("LSB_0", {"enum": ["LSB_0", "MSB_0"]})
    assert not is_valid("MIDDLE", {"enum": ["LSB_0", "MSB_0"]})
    assert is_valid(7, {"const": 7})
    assert not is_valid(8, {"const": 7})


def test_array_items_and_bounds():
    schema = {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 3}
    validate([1, 2], schema)
    with pytest.raises(SchemaValidationError):
        validate([], schema)
    with pytest.raises(SchemaValidationError):
        validate([1, 2, 3, 4], schema)
    with pytest.raises(SchemaValidationError):
        validate([1, "x"], schema)


def test_number_bounds():
    schema = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}
    validate(0, schema)
    validate(0.99, schema)
    with pytest.raises(SchemaValidationError):
        validate(1, schema)
    with pytest.raises(SchemaValidationError):
        validate(-0.1, schema)


def test_string_constraints():
    schema = {"type": "string", "minLength": 2, "pattern": r"^\d+/\d+$"}
    validate("1/1024", schema)
    with pytest.raises(SchemaValidationError):
        validate("x", schema)
    with pytest.raises(SchemaValidationError):
        validate("abc", schema)


def test_anyof_oneof_not():
    any_schema = {"anyOf": [{"type": "string"}, {"type": "integer"}]}
    assert is_valid("x", any_schema)
    assert not is_valid(1.5, any_schema)
    one_schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    assert is_valid(1.5, one_schema)  # matches only "number"
    assert not is_valid(2, one_schema)  # matches both -> fails oneOf
    not_schema = {"not": {"type": "string"}}
    assert is_valid(3, not_schema)
    assert not is_valid("x", not_schema)


def test_local_ref_resolution():
    schema = {
        "definitions": {"positive": {"type": "integer", "minimum": 1}},
        "type": "object",
        "properties": {"width": {"$ref": "#/definitions/positive"}},
    }
    validator = JSONSchemaValidator(schema)
    assert validator.is_valid({"width": 3})
    assert not validator.is_valid({"width": 0})


def test_false_schema_rejects_everything():
    schema = {"type": "object", "properties": {"x": False}}
    assert is_valid({}, schema)  # absent property is fine
    assert not is_valid({"x": 1}, schema)
    errors = list(iter_errors({"x": 1}, schema))
    assert errors and "forbids" in errors[0].message


# -- the compiled validator against the schema walker ----------------------------------

#: Values a mutation writes: every JSON kind, plus strings and numbers that
#: sit on either side of the embedded schemas' enums and bounds.
_MUTANTS = (
    None, True, False, 0, 1, -1, 2, 0.5, 1.5, -0.25, 10**6, float("nan"),
    "", "x", "Z", "LSB_0", "AS_PHASE", "PHASE_REGISTER", "1/1024", "p[0]",
    [], [0], [0, 1], ["a", "b"], [1, "a", None], {}, {"engine": "gate"},
    {"oneq": -1}, {"code_family": "surface", "distance": 0},
)


def _corpus():
    """Job, QDT, QOD and context documents from the bundle builders."""
    problem = MaxCutProblem.cycle(4)
    phase = phase_register("p", 3)
    patch = repetition_register("patch", 5)
    bundles = [
        build_qaoa_bundle(problem),
        build_anneal_bundle(problem),
        package(
            phase,
            [qft_operator(phase, do_swaps=True), measurement(phase)],
            ContextDescriptor(
                exec=ExecPolicy(
                    engine="gate.aer_simulator",
                    seed=3,
                    target=TargetSpec(basis_gates=["rz", "sx", "cx"], coupling_map=[(0, 1), (1, 2)]),
                ),
                comm=CommPolicy(max_qpus=2),
                pulse=PulsePolicy(gate_durations_ns={"cx": 300.0}),
            ),
            name="qft",
        ),
        package(
            patch,
            [repetition_memory_operator(patch, 5, rounds=2)],
            ContextDescriptor(
                exec=ExecPolicy(engine="gate.aer_simulator", options={"trajectory_engine": "auto"}),
                qec=QECPolicy(code_family="repetition", distance=5),
                anneal=AnnealPolicy(num_reads=10, beta_range=(0.1, 4.0)),
            ),
            name="qec",
        ),
    ]
    docs = []
    for bundle in bundles:
        job = bundle.to_dict()
        docs.append(job)
        docs.extend(job["qdts"])
        docs.extend(job["operators"])
        docs.append(job["context"])
    return docs


def _mutate(doc, rng):
    """Replace, delete or add one to three keys or items at random depth."""
    doc = copy.deepcopy(doc)
    for _ in range(int(rng.integers(1, 4))):
        node = doc
        for _ in range(int(rng.integers(0, 6))):
            children = list(node.values()) if isinstance(node, dict) else list(node)
            children = [c for c in children if isinstance(c, (dict, list)) and c]
            if not children:
                break
            node = children[int(rng.integers(len(children)))]
        value = copy.deepcopy(_MUTANTS[int(rng.integers(len(_MUTANTS)))])
        action = int(rng.integers(3))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if action == 2 or not keys:
            if isinstance(node, dict):
                node[str(rng.choice(["extra", "type", "width", "params", "exec", "basis"]))] = value
            else:
                node.append(value)
        elif action == 1:
            del node[keys[int(rng.integers(len(keys)))]]
        else:
            node[keys[int(rng.integers(len(keys)))]] = value
    return doc


def _report(validator, doc):
    return [(e.message, e.path, e.schema_path) for e in validator.iter_errors(doc)]


def test_compiled_validator_matches_walker_on_mutated_documents():
    pairs = [(JSONSchemaValidator(s), WalkerJSONSchemaValidator(s)) for s in SCHEMAS.values()]
    rng = np.random.default_rng(1818)
    corpus = _corpus()
    compared = with_errors = 0
    for round_ in range(300):
        doc = corpus[round_ % len(corpus)]
        mutated = doc if round_ < len(corpus) else _mutate(doc, rng)
        for compiled, walker in pairs:
            expected = _report(walker, mutated)
            assert _report(compiled, mutated) == expected, (round_, mutated)
            assert compiled.is_valid(mutated) == (not expected)
            compared += 1
            with_errors += bool(expected)
    assert compared == 300 * len(pairs)
    # The fuzz is not vacuous: both valid and invalid documents are compared.
    assert 0.3 * compared < with_errors < compared


_RECURSIVE = {
    "definitions": {
        "node": {
            "type": "object",
            "required": ["value"],
            "properties": {
                "value": {"type": "integer", "minimum": 0},
                "children": {"type": "array", "items": {"$ref": "#/definitions/node"}},
            },
            "additionalProperties": False,
        }
    },
    "$ref": "#/definitions/node",
}

_HAND_CASES = [
    ({"anyOf": [{"type": "string", "minLength": 2}, {"type": "integer"}]}, ["x", "xy", 3, 2.5, None]),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}, {"const": "n"}]}, [1.5, 2, "n", "m", True]),
    ({"not": {"type": "string"}}, ["x", 3, None]),
    ({"not": {"enum": [1, 2]}, "type": "integer"}, [1, 3, "3"]),
    (
        {"allOf": [{"type": "number", "minimum": 0}, {"exclusiveMaximum": 1}, {"maximum": 0.5}]},
        [0.25, 0.75, 1, -1, "x"],
    ),
    (_RECURSIVE, [
        {"value": 1},
        {"value": 1, "children": [{"value": 2, "children": [{"value": -1}, {}]}]},
        {"value": 1, "children": [{"value": 2, "extra": 1}, "leaf"]},
        [],
    ]),
    ({"type": "object", "properties": {"x": False, "y": True, "z": {}}}, [{"x": 1, "y": 2}, {"z": 3}]),
    ({"type": "array", "items": False}, [[], [1, 2]]),
    ({"type": ["string", "integer", "null"]}, ["x", 3, None, 2.5, [], True]),
    # A type mismatch that also trips a string or a number keyword.
    ({"type": "integer", "minLength": 2, "pattern": "^a"}, ["b", 3, 3.5]),
    ({"type": "string", "minimum": 3, "exclusiveMaximum": 0}, [1, -1, "x"]),
    ({"type": "array", "minItems": 2, "maxItems": 1, "items": {"type": "string"}}, [[], [1, "a"], "ab"]),
    ({"type": "array", "items": [{"type": "string"}, {"type": "integer"}]}, [["a", 1], [1, "a", 3], [0]]),
    (
        {"type": "object", "properties": {"a": {"type": "integer"}}, "additionalProperties": {"type": "string"}},
        [{"a": 1, "b": "x"}, {"a": "1", "b": 2, "c": None}],
    ),
    ({"required": ["a", "b"], "additionalProperties": False}, [{}, {"a": 1, "c": 2, "b": 0}, 5]),
    ({"enum": [1, "a", None], "const": "a"}, [1, "a", None, True, 2]),
]


@pytest.mark.parametrize("schema, instances", _HAND_CASES)
def test_compiled_validator_matches_walker_on_every_keyword(schema, instances):
    compiled, walker = JSONSchemaValidator(schema), WalkerJSONSchemaValidator(schema)
    saw_error = False
    for instance in instances:
        expected = _report(walker, instance)
        assert _report(compiled, instance) == expected, instance
        saw_error = saw_error or bool(expected)
    assert saw_error


def test_primitive_items_name_only_the_failing_element():
    schema = {"type": "array", "items": {"type": "string", "minLength": 1}}
    errors = list(iter_errors(["a"] * 500 + ["", 7] + ["b"] * 500, schema))
    assert [(e.message, e.path) for e in errors] == [
        ("string shorter than minLength 1", "$[500]"),
        ("expected type 'string', got int", "$[501]"),
    ]


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "bogus"}, 1),
        ({"type": ["string", "bogus"]}, 3),
        ({"type": "object", "properties": {"a": 5}}, {"a": 1}),
        ({"type": "array", "items": [{"type": "integer"}, "nope"]}, [1, 2]),
        ({"$ref": "#/definitions/missing"}, 1),
        ({"$ref": "http://example.org/schema"}, 1),
    ],
)
def test_malformed_schema_raises_the_walker_error_at_validation(schema, instance):
    compiled = JSONSchemaValidator(schema)  # compiling waits for the first validation
    with pytest.raises(SchemaValidationError) as walked:
        WalkerJSONSchemaValidator(schema).validate(instance)
    with pytest.raises(SchemaValidationError) as raised:
        compiled.validate(instance)
    assert str(raised.value) == str(walked.value)


def test_malformed_node_raises_only_when_a_document_reaches_it():
    # As in the walk, an unknown type after a matching one, or a malformed
    # property the document lacks, is never reached.
    assert is_valid("x", {"type": ["string", "bogus"]})
    assert is_valid({}, {"type": "object", "properties": {"a": 5}})
    with pytest.raises(SchemaValidationError, match="schema must be a JSON object"):
        JSONSchemaValidator(["not", "a", "schema"])
