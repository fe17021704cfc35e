"""Field checker and record builder of every input document, run configurations
(``cli.parse_config``) and schedules (``compiler.schedule_from_json``): a schema
error or a record's refusal names the field's path and is a ``ConfigError``.  It
needs no other fmosim module.
"""

from __future__ import annotations

import sys

_JSON_TYPES = {
    "an integer": (int,),
    "a finite number": (int, float),
    "a string": (str,),
    "a list": (list,),
    "an object": (dict,),
}


class ConfigError(ValueError):
    """An input document, a run configuration or a schedule, violates its schema."""


def _build(record, where: str, *args):
    """``record(*args)``; its ``ValueError`` becomes a ``ConfigError`` prefixed with the
    record's path ``where``."""
    try:
        return record(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _json(value, kind: str, where: str):
    """``value`` if it is JSON ``kind``, a key of ``_JSON_TYPES`` (never a boolean)."""
    types = _JSON_TYPES[kind]
    if type(value) not in types or float in types and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be {kind}")
    return value


def _json_object(doc, where: str, required: set, optional: set = frozenset()) -> None:
    """Refuse all but a JSON object with every ``required`` key and others only from ``optional``."""
    _json(doc, "an object", where)
    missing, unknown = required - set(doc), set(doc) - required - optional
    if missing:
        raise ConfigError(f"{where} is missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")


def _json_list(values, where: str) -> list:
    """(entry, its path) for each entry of the JSON list ``values``."""
    return [(v, f"{where}[{i}]") for i, v in enumerate(_json(values, "a list", where))]


def _json_ints(values, where: str) -> tuple[int, ...]:
    return tuple(_json(q, "an integer", at) for q, at in _json_list(values, where))


def _site_number(text: str) -> int | None:
    """The number a run of ASCII digits names, else None (also for a run ``int()`` refuses)."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than the interpreter converts
        return None
