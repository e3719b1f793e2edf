"""Checked reads of JSON input files, the one place that tests JSON types.

A value of the wrong type raises one ``SchemaError`` that names the
value's JSON path and reads ``expected T, got U``; a missing required key
raises one that reads ``missing required field``.  A reader takes the
object or array that holds the value, the value's key or index there and
the holder's path: a tuple of the root's name and the keys and indexes down
to the holder, formatted only to raise (``("$", "pages", 0)`` reads
``$.pages[0]``).  Each file but the document has a root that names it, as
``"model: $"``.  With a ``default`` a key is optional.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from json.decoder import scanstring
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


def _read(holder, key, where: tuple, default, kind: str, *types):
    """``holder[key]`` (an array's item, or an object's value if it has one)
    if it is an instance of ``types``.  A bool is an int to Python but not
    to JSON, so it passes only as a bool."""
    if isinstance(holder, list) or key in holder:
        value = holder[key]
    elif default is _REQUIRED:
        raise SchemaError(json_path(where + (key,)), "missing required field")
    else:
        return default
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
            raise _invalid(where, exc) from exc
    if not isinstance(data, dict):
        raise SchemaError(json_path(where), f"expected object, got {type(data).__name__}")
    return _known(data, where, known)


def _invalid(where: tuple, exc: ValueError) -> SchemaError:
    return SchemaError(json_path(where), f"invalid JSON: {exc}")


def streamed_items(read, data: "bytes | str", key: str, where: tuple = ROOT):
    """``items(read, top(data), key, where)`` as a generator that decodes the
    array's items one at a time.

    ``bytes`` are decoded to text as ``json.loads`` decodes them, on the
    call.  Then the document's top-level object is scanned in order: its
    other values are decoded and dropped, and each item of the array ``key``
    is decoded when reached and yielded as ``read({i: item}, i, path)`` (a
    one-item holder, so that the item reads as item i of the array).  So no
    item's decoded JSON outlives the next item's read.

    A document that ``top`` or ``array`` rejects raises the error they
    raise, but only when the scan reaches the fault, after the items before
    it were yielded.  So does a document whose object holds ``key`` more
    than once (``json.loads`` keeps the last), and one nested too deeply for
    the scan's decoder, which then raise SchemaError.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode(json.detect_encoding(data), "surrogatepass")
        except ValueError as exc:  # as json.loads raises it
            raise _invalid(where, exc) from exc
    at = where + (key,)
    return (read({i: item}, i, at) for i, item in enumerate(_array_items(data, key, where)))


_skip = re.compile(r"[ \t\n\r]*").match  # JSON whitespace
_raw_decode = json.JSONDecoder().raw_decode  # the decoder json.loads uses
# Frames of recursion the scan's decoder is denied.  Decoding the whole
# document reaches an item through more frames and two more levels of
# nesting (seven more in all, measured from the CLI), so with this margin the scan
# never takes an item nested too deeply for that decode.
_DEPTH_MARGIN = 50


def _decode(text: str, pos: int):
    """``raw_decode(text, pos)`` with the recursion limit lowered by
    _DEPTH_MARGIN.  (From Python 3.12 the decoder's nesting limit is a C
    stack budget that the recursion limit does not set.)"""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - _DEPTH_MARGIN)
    try:
        return _raw_decode(text, pos)
    finally:
        sys.setrecursionlimit(limit)


def _array_items(text: str, key: str, where: tuple):
    """The items of the array ``key`` of ``text``'s top-level object, each
    decoded when reached.  Anything the scan does not take (a fault of the
    JSON, a missing key, a value of the key that is not an array, a repeated
    key) leaves the scan, and decoding the whole text names the fault."""
    reason = "appears more than once"  # what the whole text may not name
    found = closed = False
    try:
        pos = _skip(text).end()
        if text.startswith("{", pos):
            pos = _skip(text, pos + 1).end()
            closed = text.startswith("}", pos)
        while not closed and text.startswith('"', pos):
            name, pos = scanstring(text, pos + 1)
            pos = _skip(text, pos).end()
            if not text.startswith(":", pos):
                break
            pos = _skip(text, pos + 1).end()
            if name != key:
                pos = _decode(text, pos)[1]
            elif found or not text.startswith("[", pos):
                break
            else:
                found = True
                pos = _skip(text, pos + 1).end()
                if not text.startswith("]", pos):
                    while True:
                        item, pos = _decode(text, pos)
                        yield item
                        pos = _skip(text, pos).end()
                        if not text.startswith(",", pos):
                            break
                        pos = _skip(text, pos + 1).end()
                    if not text.startswith("]", pos):
                        break
                pos += 1
            pos = _skip(text, pos).end()
            closed = text.startswith("}", pos)
            if not closed:
                if not text.startswith(",", pos):
                    break
                pos = _skip(text, pos + 1).end()
        if closed and found and _skip(text, pos + 1).end() == len(text):
            return
    except RecursionError:
        reason = "nested too deeply"
    except ValueError:  # from the decoder
        pass
    array(top(text, where), key, where)
    raise SchemaError(json_path(where + (key,)), f"cannot be read one item at a time: {reason}")


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
