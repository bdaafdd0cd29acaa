"""Typed reads of a parsed JSON config.

Each reader takes a value and its JSON path (``estimator/proxy/q_star``)
and returns the value as the Python type the builders pass on, or raises
``ConfigError`` naming the path.  These hold the JSON type rules only; a
range or choice rule lives in the constructor of the object it constrains.
"""

from __future__ import annotations

import numpy as np

_REQUIRED = object()


class ConfigError(ValueError):
    """A config that cannot be read; the message names its JSON path."""


def field(section: dict, key: str, read, default=_REQUIRED, *, path: str = ""):
    """``section[key]`` through ``read``, or ``default`` when the key is
    absent; a key without a default is required.  ``path`` is the path of
    ``section``, empty for the top level."""
    where = f"{path}/{key}" if path else key
    if key in section:
        return read(section[key], where)
    if default is _REQUIRED:
        raise ConfigError(f"{where}: required key is missing")
    return default


def _expect(value, where: str, ok: bool, expected: str):
    if not ok:
        raise ConfigError(f"{where}: must be {expected} (got {value!r})")
    return value


def as_object(value, where: str) -> dict:
    return _expect(value, where, isinstance(value, dict), "an object")


def as_list(value, where: str) -> list:
    return _expect(value, where, isinstance(value, list), "a list")


def as_string(value, where: str) -> str:
    return _expect(value, where, isinstance(value, str), "a string")


def as_number(value, where: str) -> float:
    """A JSON number as a float; a bool is not a number, nor is NaN, which
    Python's ``json`` reads though JSON has no such number."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and value == value
    return float(_expect(value, where, ok, "a number"))


def whole(value):
    """An integral float (a JSON ``1e5``, which counts as an integer) as an
    int; any other value as it is."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def as_integer(value, where: str) -> int:
    value = whole(value)
    ok = isinstance(value, int) and not isinstance(value, bool)
    return _expect(value, where, ok, "an integer")


def as_numbers(value, where: str) -> np.ndarray:
    return np.array([as_number(v, f"{where}/{i}")
                     for i, v in enumerate(as_list(value, where))], dtype=float)
