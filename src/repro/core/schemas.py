"""Embedded JSON Schemas for the middle-layer interchange artifacts.

The paper's descriptors each name their schema through a ``$schema`` field
(``qdt-core.schema.json``, ``qod.schema.json``, ``ctx.schema.json``); job
bundles add ``job.schema.json``.  This module embeds those schemas so the
library is self-contained and descriptor files can be validated offline.

The schemas are deliberately permissive where the paper leaves room for
evolution (``params`` and ``extensions`` are open objects) and strict where
ambiguity would break composability (encoding kinds, bit order, measurement
semantics are closed enums).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from .errors import SchemaValidationError
from .jsonschema import JSONSchemaValidator

__all__ = [
    "QDT_SCHEMA_ID",
    "QOD_SCHEMA_ID",
    "CTX_SCHEMA_ID",
    "JOB_SCHEMA_ID",
    "QDT_SCHEMA",
    "QOD_SCHEMA",
    "CTX_SCHEMA",
    "JOB_SCHEMA",
    "SCHEMAS",
    "ENCODING_KINDS",
    "BIT_ORDERS",
    "MEASUREMENT_SEMANTICS",
    "MEASUREMENT_BASES",
    "get_schema",
    "get_validator",
    "validate_document",
]

# Canonical "$schema" identifiers, matching the listings in the paper.
QDT_SCHEMA_ID = "qdt-core.schema.json"
QOD_SCHEMA_ID = "qod.schema.json"
CTX_SCHEMA_ID = "ctx.schema.json"
JOB_SCHEMA_ID = "job.schema.json"

# Closed vocabularies (Section 4.1 of the paper plus the ISING_SPIN kind used
# by the proof of concept in Section 5).
ENCODING_KINDS = [
    "INT_REGISTER",
    "UINT_REGISTER",
    "BOOL_REGISTER",
    "ISING_SPIN",
    "QUBO_BINARY",
    "PHASE_REGISTER",
    "FIXED_POINT_REGISTER",
    "AMPLITUDE_REGISTER",
    "ANGLE_REGISTER",
]

BIT_ORDERS = ["LSB_0", "MSB_0"]

MEASUREMENT_SEMANTICS = [
    "AS_INT",
    "AS_UINT",
    "AS_BOOL",
    "AS_SPIN",
    "AS_PHASE",
    "AS_FIXED_POINT",
    "AS_AMPLITUDE",
    "AS_RAW",
]

MEASUREMENT_BASES = ["Z", "X", "Y"]

_COST_HINT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "oneq": {"type": "number", "minimum": 0},
        "twoq": {"type": "number", "minimum": 0},
        "depth": {"type": "number", "minimum": 0},
        "ancilla": {"type": "number", "minimum": 0},
        "communication": {"type": "number", "minimum": 0},
        "duration_ns": {"type": "number", "minimum": 0},
        "shots": {"type": "number", "minimum": 0},
        "reads": {"type": "number", "minimum": 0},
        "variables": {"type": "number", "minimum": 0},
        "couplers": {"type": "number", "minimum": 0},
        "extras": {"type": "object"},
    },
    "additionalProperties": True,
}

_RESULT_SCHEMA_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "basis": {"type": "string", "enum": MEASUREMENT_BASES},
        "datatype": {"type": "string", "enum": MEASUREMENT_SEMANTICS},
        "bit_significance": {"type": "string", "enum": BIT_ORDERS},
        "clbit_order": {
            "type": "array",
            "items": {"type": "string", "minLength": 1},
            "minItems": 1,
        },
    },
    "required": ["basis", "datatype", "clbit_order"],
    "additionalProperties": True,
}

QDT_SCHEMA: Dict[str, Any] = {
    "$id": QDT_SCHEMA_ID,
    "title": "Quantum Data Type descriptor",
    "type": "object",
    "properties": {
        "$schema": {"type": "string"},
        "id": {"type": "string", "minLength": 1},
        "name": {"type": "string", "minLength": 1},
        "width": {"type": "integer", "minimum": 1},
        "encoding_kind": {"type": "string", "enum": ENCODING_KINDS},
        "bit_order": {"type": "string", "enum": BIT_ORDERS},
        "measurement_semantics": {"type": "string", "enum": MEASUREMENT_SEMANTICS},
        "phase_scale": {"type": "string", "pattern": r"^\d+\s*/\s*\d+$"},
        "signed": {"type": "boolean"},
        "fraction_bits": {"type": "integer", "minimum": 0},
        "carrier": {"type": "string", "enum": ["qubit", "qumode", "spin", "logical"]},
        "metadata": {"type": "object"},
    },
    "required": ["id", "width", "encoding_kind", "bit_order", "measurement_semantics"],
    "additionalProperties": False,
}

QOD_SCHEMA: Dict[str, Any] = {
    "$id": QOD_SCHEMA_ID,
    "title": "Quantum Operator Descriptor",
    "type": "object",
    "properties": {
        "$schema": {"type": "string"},
        "name": {"type": "string", "minLength": 1},
        "rep_kind": {"type": "string", "minLength": 1},
        "domain_qdt": {
            "anyOf": [
                {"type": "string", "minLength": 1},
                {"type": "array", "items": {"type": "string", "minLength": 1}},
            ]
        },
        "codomain_qdt": {
            "anyOf": [
                {"type": "string", "minLength": 1},
                {"type": "array", "items": {"type": "string", "minLength": 1}},
            ]
        },
        "params": {"type": "object"},
        "cost_hint": _COST_HINT_SCHEMA,
        "result_schema": _RESULT_SCHEMA_SCHEMA,
        "metadata": {"type": "object"},
    },
    "required": ["name", "rep_kind", "domain_qdt"],
    "additionalProperties": False,
}

_TARGET_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "basis_gates": {"type": "array", "items": {"type": "string"}},
        "coupling_map": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "num_qubits": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": True,
}

_EXEC_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "engine": {"type": "string", "minLength": 1},
        "samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "target": _TARGET_SCHEMA,
        "options": {"type": "object"},
    },
    "required": ["engine"],
    "additionalProperties": True,
}

_QEC_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "code_family": {"type": "string"},
        "distance": {"type": "integer", "minimum": 1},
        "allocator": {"type": "string"},
        "decoder": {"type": "string"},
        "logical_gate_set": {"type": "array", "items": {"type": "string"}},
        "physical_error_rate": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "cycle_time_ns": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["code_family", "distance"],
    "additionalProperties": True,
}

_ANNEAL_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "num_reads": {"type": "integer", "minimum": 1},
        "num_sweeps": {"type": "integer", "minimum": 1},
        "beta_range": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "schedule": {"type": "string", "enum": ["geometric", "linear"]},
        "seed": {"type": "integer", "minimum": 0},
        "embedding": {"type": "object"},
    },
    "additionalProperties": True,
}

_COMM_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "allow_teleportation": {"type": "boolean"},
        "max_qpus": {"type": "integer", "minimum": 1},
        "qpu_capacity": {"type": "integer", "minimum": 1},
        "epr_fidelity": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
    "additionalProperties": True,
}

_PULSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "dt_ns": {"type": "number", "exclusiveMinimum": 0},
        "shape": {"type": "string"},
        "gate_durations_ns": {"type": "object"},
    },
    "additionalProperties": True,
}

CTX_SCHEMA: Dict[str, Any] = {
    "$id": CTX_SCHEMA_ID,
    "title": "Execution Context descriptor",
    "type": "object",
    "properties": {
        "$schema": {"type": "string"},
        "exec": _EXEC_SCHEMA,
        "qec": _QEC_SCHEMA,
        "anneal": _ANNEAL_SCHEMA,
        "comm": _COMM_SCHEMA,
        "pulse": _PULSE_SCHEMA,
        # The paper's Fig. 3 nests anneal settings under "contexts".
        "contexts": {"type": "object"},
        "extensions": {"type": "object"},
        "metadata": {"type": "object"},
    },
    "additionalProperties": False,
}

JOB_SCHEMA: Dict[str, Any] = {
    "$id": JOB_SCHEMA_ID,
    "title": "Middle-layer submission bundle (job.json)",
    "type": "object",
    "properties": {
        "$schema": {"type": "string"},
        "name": {"type": "string"},
        "qdts": {"type": "array", "items": QDT_SCHEMA, "minItems": 1},
        "operators": {"type": "array", "items": QOD_SCHEMA, "minItems": 1},
        "context": CTX_SCHEMA,
        "provenance": {"type": "object"},
        "metadata": {"type": "object"},
    },
    "required": ["qdts", "operators"],
    "additionalProperties": False,
}

SCHEMAS: Dict[str, Dict[str, Any]] = {
    QDT_SCHEMA_ID: QDT_SCHEMA,
    QOD_SCHEMA_ID: QOD_SCHEMA,
    CTX_SCHEMA_ID: CTX_SCHEMA,
    JOB_SCHEMA_ID: JOB_SCHEMA,
}

_VALIDATORS: Dict[str, JSONSchemaValidator] = {}


def get_schema(schema_id: str) -> Dict[str, Any]:
    """Return the embedded schema registered under *schema_id*."""
    try:
        return SCHEMAS[schema_id]
    except KeyError:
        raise SchemaValidationError(f"unknown schema id {schema_id!r}") from None


def get_validator(schema_id: str) -> JSONSchemaValidator:
    """Return (and cache) a validator for the schema *schema_id*."""
    if schema_id not in _VALIDATORS:
        _VALIDATORS[schema_id] = JSONSchemaValidator(get_schema(schema_id))
    return _VALIDATORS[schema_id]


def validate_document(document: Mapping[str, Any], schema_id: str | None = None) -> None:
    """Validate *document* against *schema_id* or its own ``$schema`` field."""
    if schema_id is None:
        schema_id = document.get("$schema")  # type: ignore[assignment]
        if not schema_id:
            raise SchemaValidationError("document has no $schema field and no schema_id given")
    get_validator(schema_id).validate(document)
