"""Checked reads of JSON input files, the one place that tests JSON types.

A value of the wrong type, or a missing required key, raises one
``SchemaError`` that names the value's JSON path.  A reader takes the
object or array that holds the value, the value's key or index there and
the holder's path: a tuple of the root's name and the keys and indexes down
to the holder, formatted only to raise (``("$", "pages", 0)`` reads
``$.pages[0]``).  Each file but the document has a root that names it, as
``"model: $"``.  With a ``default`` a key is optional.
"""

from __future__ import annotations

import json
import reprlib
from math import inf, isfinite

ROOT = ("$",)
_REQUIRED = object()


class SchemaError(ValueError):
    """A required field is missing or has the wrong JSON type."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def decode_json(data: "bytes | str"):
    """``json.loads`` for input files: JSON nested too deeply for the decoder
    raises ValueError, as malformed JSON does, not RecursionError."""
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def load_json(path: str):
    """Read and decode a JSON input file.  A file that is not JSON raises
    ValueError naming it; one that cannot be read raises OSError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return decode_json(data)
    except ValueError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from e


def json_path(where: tuple) -> str:
    return where[0] + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where[1:])


def field(holder, key, where: tuple):
    """``holder[key]``: an array's item, or an object's value if it has one."""
    if isinstance(holder, list) or key in holder:
        return holder[key]
    raise SchemaError(json_path(where + (key,)), "missing required field")


def _read(holder, key, where: tuple, default, kind: str, *types):
    """``holder[key]`` if it is an instance of ``types``.  A bool is an int
    to Python but not to JSON, so it passes only as a bool."""
    if default is not _REQUIRED and key not in holder:
        return default
    value = field(holder, key, where)
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        raise SchemaError(json_path(where + (key,)), f"expected {kind}, got {type(value).__name__}")
    return value


def _known(value: dict, where: tuple, known) -> dict:
    if known is not None:
        for key in value:
            if key not in known:
                raise SchemaError(json_path(where), f"unknown key {reprlib.repr(key)}")
    return value


def top(data, where: tuple = ROOT, known=None) -> dict:
    """A whole file as an object, decoding ``bytes`` or ``str`` first.  With
    ``known``, a key outside it raises."""
    if isinstance(data, (bytes, str)):
        try:
            data = decode_json(data)
        except ValueError as exc:
            raise SchemaError(json_path(where), f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(json_path(where), f"expected object, got {type(data).__name__}")
    return _known(data, where, known)


def obj(holder, key, where: tuple, default=_REQUIRED, known=None) -> dict:
    """An object.  With ``known``, a key outside it raises."""
    value = _read(holder, key, where, default, "object", dict)
    return value if value is default else _known(value, where + (key,), known)


def array(holder, key, where: tuple, default=_REQUIRED) -> list:
    return _read(holder, key, where, default, "array", list)


def items(read, holder, key, where: tuple, default=_REQUIRED) -> list:
    """The array ``holder[key]``, each item read by ``read(array, index,
    path)``."""
    values = array(holder, key, where, default)
    where += (key,)
    return [read(values, i, where) for i in range(len(values))]


def string(holder, key, where: tuple, default=_REQUIRED) -> str:
    return _read(holder, key, where, default, "string", str)


def boolean(holder, key, where: tuple, default=_REQUIRED) -> bool:
    return _read(holder, key, where, default, "boolean", bool)


def integer(holder, key, where: tuple, default=_REQUIRED) -> int:
    return _read(holder, key, where, default, "integer", int)


def number(holder, key, where: tuple, default=_REQUIRED) -> float:
    """A JSON number as a float.  An integer past the float range reads as
    an infinity, so that a test for finite numbers rejects it."""
    value = _read(holder, key, where, default, "number", int, float)
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def finite(holder, key, where: tuple, default=_REQUIRED) -> float:
    """A finite JSON number, as a float."""
    value = number(holder, key, where, default)
    if not isfinite(value):
        raise SchemaError(json_path(where + (key,)), "must be finite")
    return value


def one_of(holder, key, where: tuple, values: "tuple[str, ...]") -> str:
    """A string among ``values``."""
    value = string(holder, key, where)
    if value not in values:
        raise SchemaError(json_path(where + (key,)),
                          f"expected one of {', '.join(values)}, got {reprlib.repr(value)}")
    return value


def file_path(holder, key, where: tuple) -> str:
    """A file path: a non-empty string without a NUL character."""
    value = string(holder, key, where)
    if not value or "\0" in value:
        raise SchemaError(json_path(where + (key,)), "expected a file path")
    return value


def nullable(read, holder, key, where: tuple, default=_REQUIRED):
    """``read(holder, key, where)``, or None where the value is null (or,
    with a default of None, missing)."""
    return None if holder.get(key, default) is None else read(holder, key, where)
