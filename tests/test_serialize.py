"""Canonical JSON text: the two-level layout, and the one JSON reader."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from errlens.serialize import canonical_json, load_json

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


def nested(value: object, depth: int) -> object:
    """``value`` at the bottom of ``depth`` alternating lists and objects."""
    for level in range(depth):
        value = [value] if level % 2 else {"ü": value}
    return value


def keys_in_order(pairs: list[tuple[str, object]]) -> dict:
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def members(value: object) -> list:
    """The elements or member values of a container; none for a scalar."""
    if isinstance(value, dict):
        return list(value.values())
    return value if isinstance(value, list) else []


def is_one_member(text: str) -> bool:
    """Whether ``text`` (a trailing comma aside) is a whole array element or
    object member: a value, or a key and its value."""
    text = text.removesuffix(",")
    for brackets in ("[]", "{}"):
        try:
            json.loads(brackets[0] + text + brackets[1])
        except ValueError:
            continue
        return True
    return False


@given(json_values | json_values.map(lambda v: nested(v, 4)) | json_values.map(
    lambda v: nested(v, 7)))
@example(nested({"é": [], "z": {}, "a": "日本"}, 4))
@example({"": [[], {}], "\n": [{"ü": [1, [2, [3]]]}]})
@settings(max_examples=300)
def test_canonical_json_indents_two_levels_and_round_trips(value) -> None:
    text = canonical_json(value)
    assert json.loads(text, object_pairs_hook=keys_in_order) == value
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text[:-1].split("\n")
    for line in lines:
        indent = len(line) - len(line.lstrip(" "))
        assert indent in (0, 2, 4)
        if indent == 4:  # a value two levels down is whole on its line
            assert is_one_member(line[4:])
    deep = [v for member in members(value) for v in members(member)]
    assert sum(line.startswith("    ") for line in lines) == len(deep)


def test_shallow_values_keep_the_fully_indented_text() -> None:
    for value in ({}, [], 1.5, "ü", {"b": 1, "a": [1, 2], "c": {"d": None}}):
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise_at_any_depth(depth: int, bad: float) -> None:
    with pytest.raises(ValueError):
        canonical_json(nested(bad, depth))


def test_load_json_skips_a_leading_byte_order_mark(tmp_path) -> None:
    path = tmp_path / "c.json"
    path.write_text('\ufeff{"jobs": 1, "seed": 3}', encoding="utf-8")
    assert load_json(str(path)) == {"jobs": 1, "seed": 3}


def test_both_layouts_load_to_the_same_value(tmp_path) -> None:
    value = {"trees": [[{"leaf": 0.5}, {"feature": 0, "left": 1}]], "name": "é"}
    for name, text in (("new.json", canonical_json(value)),
                       ("old.json", json.dumps(value, sort_keys=True, indent=2))):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert load_json(str(path)) == value
