"""Canonical JSON output, and the one JSON input reader.

All JSON artifacts are written with sorted keys, two-space indent, a trailing
newline, and shortest-round-trip float formatting, so identical in-memory
values always produce byte-identical files.
"""

from __future__ import annotations

import json

from .errors import DataError


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      ensure_ascii=False) + "\n"


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
    """The JSON value in a UTF-8 file; DataError if it does not decode or
    parse, or if an object repeats a key, which would otherwise keep its last
    value silently."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise DataError(f"{path}: key {key!r} repeats in an object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except ValueError as exc:  # undecodable bytes, malformed JSON
        raise DataError(f"{path}: not valid UTF-8 JSON: {exc}") from None
