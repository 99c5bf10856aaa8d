"""A small, dependency-free JSON Schema validator.

The middle layer keeps descriptors as plain JSON documents (the paper's
Listings 2--5).  Each document names its schema via ``$schema`` and is
validated before it is consumed.  The validator implements the subset of
JSON Schema draft-07 that the embedded schemas in :mod:`repro.core.schemas`
use:

``type`` (including union types), ``properties``, ``required``,
``additionalProperties``, ``enum``, ``const``, ``items``,
``minItems``/``maxItems``, ``minimum``/``maximum``,
``exclusiveMinimum``/``exclusiveMaximum``, ``minLength``/``maxLength``,
``pattern``, ``anyOf``, ``oneOf``, ``allOf``, ``not`` and local ``$ref``
references of the form ``#/definitions/<name>``.

Each schema compiles once, on first validation, into check closures that
run only the keywords a node declares (``$ref`` targets compile on first
use).  Errors and malformed-schema raises are those of a keyword-by-keyword
walk; ``bench_ablation_overhead`` measures the cost.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import SchemaValidationError

__all__ = ["validate", "is_valid", "iter_errors", "JSONSchemaValidator"]

#: ``check(value, path, errors)`` appends every violation found at *value*.
Check = Callable[[Any, str, List[SchemaValidationError]], None]


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_is_array, _is_string, _is_number = (_TYPE_CHECKS[k] for k in ("array", "string", "number"))

# The primitive keywords in check order: (keyword, the value kind it applies
# to or None for every value, fails(value, bound), message template over the
# value v, the bound b, its type name t and its length n).  A ``type`` bound
# is the pair (declared type, compiled test).
_RULES = (
    ("type", None, lambda v, b: not b[1](v), "expected type {b[0]!r}, got {t}"),
    ("enum", None, lambda v, b: v not in b, "value {v!r} not in enum {b!r}"),
    ("const", None, operator.ne, "value {v!r} != const {b!r}"),
    ("minItems", _is_array, lambda v, b: len(v) < b, "array has {n} items, minimum is {b}"),
    ("maxItems", _is_array, lambda v, b: len(v) > b, "array has {n} items, maximum is {b}"),
    ("minLength", _is_string, lambda v, b: len(v) < b, "string shorter than minLength {b}"),
    ("maxLength", _is_string, lambda v, b: len(v) > b, "string longer than maxLength {b}"),
    ("pattern", _is_string, lambda v, b: not re.search(b, v),
     "string does not match pattern {b!r}"),
    ("minimum", _is_number, operator.lt, "value {v} below minimum {b}"),
    ("maximum", _is_number, operator.gt, "value {v} above maximum {b}"),
    ("exclusiveMinimum", _is_number, operator.le, "value {v} not above exclusiveMinimum {b}"),
    ("exclusiveMaximum", _is_number, operator.ge, "value {v} not below exclusiveMaximum {b}"),
)


def _raise(error: Exception) -> Any:
    raise error


def _type_test(expected: Any) -> Callable[[Any], bool]:
    names = [expected] if isinstance(expected, str) else list(expected)
    tests = [_TYPE_CHECKS.get(name) or (
        lambda v, name=name: _raise(SchemaValidationError(f"unknown schema type {name!r}"))
    ) for name in names]
    return tests[0] if len(tests) == 1 else (lambda v: any(test(v) for test in tests))


_accept: Check = lambda value, path, errors: None  # noqa: E731


def _rules(rules: list) -> Tuple[Optional[Check], Callable[[Any], bool]]:
    """The check (``None`` when *rules* is empty) and the predicate of primitive rules."""
    def check(value, path, errors):
        for kind, fails, message, bound, kpath in rules:
            if (kind is None or kind(value)) and fails(value, bound):
                errors.append(SchemaValidationError(message.format(
                    v=value, b=bound, t=type(value).__name__, n=kind is _is_array and len(value)
                ), path, kpath))

    def ok(value):
        for kind, fails, _, bound, _ in rules:
            if (kind is None or kind(value)) and fails(value, bound):
                return False
        return True
    return (check if rules else None), ok


# keyword -> (how passing subschemas count (``any`` stops at the first pass),
# fails(count), message template over the count n).
_COMBINATORS = {
    "anyOf": (any, operator.not_, "value does not satisfy any subschema of anyOf"),
    "oneOf": (sum, lambda n: n != 1, "value satisfies {n} subschemas of oneOf (need exactly 1)"),
    "not": (any, bool, "value must not satisfy the 'not' subschema"),
}


def _combined(subs: List[Check], count, fails, message, kpath: str) -> Check:
    def passes(sub, value, path):
        found: List[SchemaValidationError] = []
        sub(value, path, found)
        return not found

    def check(value, path, errors):
        passed = count(passes(sub, value, path) for sub in subs)
        if fails(passed):
            errors.append(SchemaValidationError(message.format(n=passed), path, kpath))
    return check


class JSONSchemaValidator:
    """Validate JSON-like Python objects against a JSON Schema document.

    Parameters
    ----------
    schema:
        The schema document.  ``definitions`` at the top level are resolvable
        through ``$ref`` references of the form ``#/definitions/<name>``.
        It is compiled on the first validation and not re-read afterwards.
    """

    def __init__(self, schema: Mapping[str, Any]):
        if not isinstance(schema, Mapping):
            raise SchemaValidationError("schema must be a JSON object")
        self.schema = schema
        self._check: Optional[Check] = None
        self._refs: Dict[str, Check] = {}

    # -- public API ---------------------------------------------------------
    def validate(self, instance: Any) -> None:
        """Raise :class:`SchemaValidationError` on the first violation."""
        errors = self._errors(instance)
        if errors:
            raise errors[0]

    def is_valid(self, instance: Any) -> bool:
        """Return ``True`` when *instance* satisfies the schema."""
        return not self._errors(instance)

    def iter_errors(self, instance: Any):
        """Yield every :class:`SchemaValidationError` found in *instance*."""
        yield from self._errors(instance)

    # -- internals ----------------------------------------------------------
    def _errors(self, instance: Any) -> List[SchemaValidationError]:
        if self._check is None:
            self._check = self._compile(self.schema, "#")[0]
        errors: List[SchemaValidationError] = []
        self._check(instance, "$", errors)
        return errors

    def _resolve_ref(self, ref: str) -> Mapping[str, Any]:
        if not ref.startswith("#/"):
            raise SchemaValidationError(f"only local $ref supported, got {ref!r}")
        node: Any = self.schema
        for part in ref[2:].split("/"):
            if not isinstance(node, Mapping) or part not in node:
                raise SchemaValidationError(f"unresolvable $ref {ref!r}")
            node = node[part]
        return node

    def _compile(self, schema: Any, spath: str) -> Tuple[Check, Optional[Callable]]:
        """Compile one node into ``(check, ok)``; ``ok`` exists for primitive nodes."""
        if schema is True or schema == {}:
            return _accept, lambda v: True
        if schema is False:
            return (lambda value, path, errors: errors.append(
                SchemaValidationError("schema forbids any value", path, spath)
            )), lambda v: False
        if not isinstance(schema, Mapping):
            return (lambda value, path, errors: _raise(
                SchemaValidationError(f"invalid schema node at {spath}")
            )), None
        if "$ref" in schema:
            ref = schema["$ref"]

            def follow(value, path, errors):
                target = self._refs.get(ref)
                if target is None:
                    target = self._refs[ref] = self._compile(self._resolve_ref(ref), ref)[0]
                target(value, path, errors)
            return follow, None

        rules = [(kind, fails, message, (schema[key], _type_test(schema[key]))
                  if key == "type" else schema[key], f"{spath}/{key}")
                 for key, kind, fails, message in _RULES if key in schema]
        combinators = self._combinators(schema, spath)
        object_check = self._object_check(schema, spath)
        items_check = self._items_check(schema, spath)
        if not (combinators or object_check or items_check):
            check, ok = _rules(rules)
            return check or _accept, ok
        # Kind-free rules (type, enum, const) come first in _RULES; the
        # structural checks run between them and the kind-bound rules.
        head = [rule for rule in rules if rule[0] is None]
        parts = [_rules(head)[0], *combinators, object_check,
                 _rules(rules[len(head):])[0], items_check]
        parts = [part for part in parts if part is not None]

        def check(value, path, errors):
            for part in parts:
                part(value, path, errors)
        return check, None

    def _combinators(self, schema, spath) -> List[Check]:
        checks = [
            self._compile(sub, f"{spath}/allOf/{i}")[0]
            for i, sub in enumerate(schema["allOf"] if "allOf" in schema else ())
        ]
        for key, (count, fails, message) in _COMBINATORS.items():
            if key in schema:
                kpath = f"{spath}/{key}"
                subs = [self._compile(schema[key], kpath)[0]] if key == "not" else [
                    self._compile(sub, f"{kpath}/{i}")[0] for i, sub in enumerate(schema[key])
                ]
                checks.append(_combined(subs, count, fails, message, kpath))
        return checks

    def _object_check(self, schema, spath) -> Optional[Check]:
        if not {"required", "properties", "additionalProperties"} & schema.keys():
            return None
        properties = schema.get("properties", {})
        required = schema.get("required", [])
        props = [
            (name, f".{name}", self._compile(sub, f"{spath}/properties/{name}")[0])
            for name, sub in properties.items()
        ]
        rpath, xpath = f"{spath}/required", f"{spath}/additionalProperties"
        additional = schema.get("additionalProperties", True)
        extra = self._compile(additional, xpath)[0] if isinstance(additional, Mapping) else None

        def check(value, path, errors):
            if not (type(value) is dict or isinstance(value, Mapping)):
                return
            for name in required:
                if name not in value:
                    errors.append(SchemaValidationError(
                        f"missing required property {name!r}", path, rpath
                    ))
            for name, suffix, sub in props:
                if name in value:
                    sub(value[name], path + suffix, errors)
            if additional is False:
                unknown = [k for k in value if k not in properties]
                if unknown:
                    errors.append(SchemaValidationError(
                        f"additional properties not allowed: {sorted(unknown)!r}", path, xpath
                    ))
            elif extra is not None:
                for k, v in value.items():
                    if k not in properties:
                        extra(v, f"{path}.{k}", errors)
        return check

    def _items_check(self, schema, spath) -> Optional[Check]:
        items = schema.get("items")
        if items is None:
            return None
        if not (isinstance(items, Mapping) or items in (True, False)):
            # positional tuple validation
            subs = [self._compile(sub, f"{spath}/items/{i}")[0] for i, sub in enumerate(items)]

            def positional(value, path, errors):
                if _is_array(value):
                    for i, (element, sub) in enumerate(zip(value, subs)):
                        sub(element, f"{path}[{i}]", errors)
            return positional
        sub, ok = self._compile(items, f"{spath}/items")

        def check(value, path, errors):
            if not _is_array(value) or (ok is not None and all(map(ok, value))):
                return
            for i, element in enumerate(value):
                if ok is None or not ok(element):
                    sub(element, f"{path}[{i}]", errors)
        return check


def validate(instance: Any, schema: Mapping[str, Any]) -> None:
    """Validate *instance* against *schema*, raising on the first error."""
    JSONSchemaValidator(schema).validate(instance)


def is_valid(instance: Any, schema: Mapping[str, Any]) -> bool:
    """Return ``True`` when *instance* satisfies *schema*."""
    return JSONSchemaValidator(schema).is_valid(instance)


def iter_errors(instance: Any, schema: Mapping[str, Any]):
    """Yield every validation error of *instance* against *schema*."""
    return JSONSchemaValidator(schema).iter_errors(instance)
