"""Canonical JSON output, and the one JSON input reader.

All JSON artifacts are written with sorted keys, a trailing newline, and
shortest-round-trip float formatting, so identical in-memory values always
produce byte-identical files.  Only the top two levels are indented, two
spaces a level: the top value's members and theirs each start a line, and
every value deeper down (one tree of a model, one region of a report) is
written whole on its line, as ``json.dumps`` writes it without an indent.
That keeps each record greppable and lets ``json``'s C encoder write it; an
``indent`` sends the whole value through the pure-Python one.  Any JSON
reader, :func:`load_json` among them, reads both this layout and a fully
indented one.
"""

from __future__ import annotations

import json

from .errors import DataError


# Levels whose containers are spread over lines; deeper values take one line.
_INDENTED_LEVELS = 2


def _one_line(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, ensure_ascii=False)


def _indented(obj: object, level: int) -> str:
    if level == _INDENTED_LEVELS or not isinstance(obj, (dict, list, tuple)) or not obj:
        return _one_line(obj)
    if isinstance(obj, dict):
        # a key as json writes it, by json's own rules for non-string keys:
        # '{"k": null}' less its brace and ': null}'
        items = [f"{_one_line({key: None})[1:-7]}: {_indented(value, level + 1)}"
                 for key, value in sorted(obj.items())]
        brackets = "{}"
    else:
        items = [_indented(value, level + 1) for value in obj]
        brackets = "[]"
    pad = "\n" + "  " * level
    return f"{brackets[0]}{pad}  " + f",{pad}  ".join(items) + f"{pad}{brackets[1]}"


def canonical_json(obj: object) -> str:
    """``obj`` as its artifact's text: sorted keys, the top two levels
    indented (see the module docstring), a trailing newline; ValueError on
    a non-finite float."""
    return _indented(obj, 0) + "\n"


def canonical_json_line(obj: object) -> str:
    """Single-line canonical form, for JSONL records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, ensure_ascii=False) + "\n"


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``"\\n"`` newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dump_json(obj: object, path: str) -> None:
    write_text(path, canonical_json(obj))


def load_json(path: str) -> object:
    """The JSON value in a UTF-8 file, less any leading byte-order mark;
    DataError if it does not decode or parse, or if an object repeats a key,
    which would otherwise keep its last value silently."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise DataError(f"{path}: key {key!r} repeats in an object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except ValueError as exc:  # undecodable bytes, malformed JSON
        raise DataError(f"{path}: not valid UTF-8 JSON: {exc}") from None
