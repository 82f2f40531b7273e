"""A tiny JSON-Schema-subset validator (stdlib only) for the obs file formats.

Supports exactly what the checked-in schemas use — ``type`` (including
union lists), ``required``, ``properties``, ``additionalProperties``
(boolean or schema), ``items`` — so CI can enforce
``docs/trace.schema.json``, ``docs/metrics.schema.json`` and
``docs/accesslog.schema.json`` without a ``jsonschema`` dependency.
``scripts/validate_obs.py`` is the CLI wrapper.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "validate",
    "validate_trace_file",
    "validate_metrics_file",
    "validate_jsonl_file",
    "validate_access_log_file",
]

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    if isinstance(value, bool) and name in ("integer", "number"):
        return False  # bool is an int subclass; JSON keeps them distinct
    return isinstance(value, _TYPES[name])


def validate(instance, schema: dict, path: str = "$") -> list[str]:
    """Check ``instance`` against ``schema``; returns human-readable violations."""
    errors: list[str] = []
    stype = schema.get("type")
    if stype is not None:
        names = stype if isinstance(stype, list) else [stype]
        if not any(_type_ok(instance, name) for name in names):
            return [f"{path}: expected {'/'.join(names)}, got {type(instance).__name__}"]
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in properties:
                errors.extend(validate(value, properties[key], f"{path}.{key}"))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                errors.extend(validate(value, additional, f"{path}.{key}"))
    if isinstance(instance, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for i, value in enumerate(instance):
                errors.extend(validate(value, items, f"{path}[{i}]"))
    return errors


def validate_jsonl_file(
    path: str | os.PathLike, schema: dict, *, kind: str = "JSONL"
) -> list[str]:
    """Validate a JSONL file line by line (every line one record)."""
    errors: list[str] = []
    with open(path, encoding="utf-8") as handle:
        n_records = 0
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                errors.append(f"line {lineno}: blank line in JSONL")
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                errors.append(f"line {lineno}: not JSON ({error})")
                continue
            n_records += 1
            errors.extend(f"line {lineno}: {e}" for e in validate(record, schema))
    if n_records == 0:
        errors.append(f"{kind} file holds no records")
    return errors


def validate_trace_file(path: str | os.PathLike, schema: dict) -> list[str]:
    """Validate a trace JSONL file line by line (every line one span record)."""
    return validate_jsonl_file(path, schema, kind="trace")


def validate_access_log_file(path: str | os.PathLike, schema: dict) -> list[str]:
    """Validate a serve access-log JSONL file (every line one request record)."""
    return validate_jsonl_file(path, schema, kind="access-log")


def validate_metrics_file(path: str | os.PathLike, schema: dict) -> list[str]:
    """Validate a ``--metrics`` JSON dump against the metrics schema."""
    try:
        with open(path, encoding="utf-8") as handle:
            instance = json.load(handle)
    except json.JSONDecodeError as error:
        return [f"not JSON: {error}"]
    return validate(instance, schema)
