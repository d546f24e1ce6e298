"""A minimal JSON-schema validator for scenario parameter schemas.

Scenario packs declare a JSON-schema fragment per scenario (see
:mod:`repro.experiments.packs`); this module validates a concrete
parameter mapping against it without any third-party dependency.  The
supported subset is deliberately small but covers everything the
built-in packs need:

* ``type`` — ``"object"``, ``"array"``, ``"number"``, ``"integer"``,
  ``"string"``, ``"boolean"``, ``"null"`` (or a list of these).
  Python tuples count as arrays (scenario defaults use tuples), and
  ``bool`` is *not* an ``integer``/``number`` (JSON semantics).  JSON
  has no infinity or NaN, so a non-finite float fails every schema it is
  checked against: Python's ``json`` module reads ``1e999`` and
  ``Infinity`` as ``inf``, and a simulation horizon of ``inf`` would
  never end.
* ``properties`` / ``required`` / ``additionalProperties`` (bool) for
  objects;
* ``items`` (a single schema applied to every element), ``minItems``,
  ``maxItems`` for arrays;
* ``minimum`` / ``maximum`` / ``exclusiveMinimum`` / ``exclusiveMaximum``
  (draft-2020 numeric form) for numbers;
* ``enum`` for literal sets.

Validation returns a *list of error strings* (empty = valid), each
prefixed with the JSON-path of the offending value, so callers can
assemble actionable messages naming the scenario and parameter.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Mapping

__all__ = ["validate_schema", "schema_errors"]

_TYPE_NAMES = ("object", "array", "number", "integer", "string", "boolean", "null")


def _type_of(value: Any) -> str:
    """The JSON type name of a Python value (tuples are arrays)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, numbers.Integral):
        return "integer"
    if isinstance(value, numbers.Real):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, Mapping):
        return "object"
    if isinstance(value, (list, tuple)):
        return "array"
    return type(value).__name__


def _matches_type(value: Any, expected: str) -> bool:
    actual = _type_of(value)
    if expected == "number":
        return actual in ("number", "integer")
    return actual == expected


def schema_errors(value: Any, schema: Mapping[str, Any], path: str = "") -> list[str]:
    """All violations of ``schema`` by ``value`` as ``path: problem`` strings.

    ``path`` names the value being validated (e.g. ``"params"``); nested
    errors extend it (``params.rhos[1]``).  An empty list means valid.
    """
    errors: list[str] = []
    here = path or "value"

    expected = schema.get("type")
    if expected is not None:
        allowed = [expected] if isinstance(expected, str) else list(expected)
        unknown = [t for t in allowed if t not in _TYPE_NAMES]
        if unknown:
            raise ValueError(f"schema at {here} names unknown type(s) {unknown}")
        if not any(_matches_type(value, t) for t in allowed):
            want = " or ".join(allowed)
            errors.append(f"{here}: expected {want}, got {_type_of(value)} {value!r}")
            return errors  # type mismatch: further keywords are meaningless

    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append(f"{here}: {value!r} is not one of {list(schema['enum'])}")
            return errors

    if isinstance(value, bool):
        return errors  # bools match no numeric bounds below

    if isinstance(value, numbers.Real):
        v = float(value)
        if not math.isfinite(v):
            errors.append(f"{here}: {value!r} is not a finite number")
            return errors
        if "minimum" in schema and v < schema["minimum"]:
            errors.append(f"{here}: {value!r} is below the minimum {schema['minimum']}")
        if "maximum" in schema and v > schema["maximum"]:
            errors.append(f"{here}: {value!r} is above the maximum {schema['maximum']}")
        if "exclusiveMinimum" in schema and v <= schema["exclusiveMinimum"]:
            errors.append(
                f"{here}: {value!r} must be strictly greater than "
                f"{schema['exclusiveMinimum']}"
            )
        if "exclusiveMaximum" in schema and v >= schema["exclusiveMaximum"]:
            errors.append(
                f"{here}: {value!r} must be strictly less than "
                f"{schema['exclusiveMaximum']}"
            )

    if isinstance(value, (list, tuple)):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(
                f"{here}: needs at least {schema['minItems']} item(s), "
                f"got {len(value)}"
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(
                f"{here}: allows at most {schema['maxItems']} item(s), "
                f"got {len(value)}"
            )
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(value):
                errors.extend(schema_errors(item, item_schema, f"{here}[{i}]"))

    if isinstance(value, Mapping):
        props = schema.get("properties", {})
        for name, sub in props.items():
            if name in value:
                sub_path = f"{here}.{name}" if path else name
                errors.extend(schema_errors(value[name], sub, sub_path))
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{here}: missing required property {name!r}")
        if schema.get("additionalProperties") is False:
            extra = sorted(set(value) - set(props))
            if extra:
                errors.append(
                    f"{here}: unknown propert{'y' if len(extra) == 1 else 'ies'} "
                    f"{', '.join(map(repr, extra))}; known: {sorted(props)}"
                )

    return errors


def validate_schema(value: Any, schema: Mapping[str, Any], path: str = "") -> None:
    """Raise ``ValueError`` listing every violation of ``schema`` by
    ``value`` (see :func:`schema_errors`); returns ``None`` when valid."""
    errors = schema_errors(value, schema, path)
    if errors:
        raise ValueError("; ".join(errors))
