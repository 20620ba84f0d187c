"""The streaming writer against its oracle, json.dumps(obj, indent=2)."""

import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wzwkit.jsonout import iterencode, write

SPECIAL_FLOATS = [0.0, -0.0, 1e16, 1e-16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  0.1, float("nan"), float("inf"), -float("inf")]
SPECIAL_TEXT = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff",
                "\U0001f600", "/"]

text = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(SPECIAL_TEXT)))
ints = st.one_of(st.integers(), st.integers(-2**200, 2**200), st.booleans())
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
leaves = st.one_of(st.none(), ints, floats, floats.map(np.float64), text)
keys = st.one_of(text, st.integers(), st.floats(), st.booleans(), st.none())


def _rows(items):
    """Lists of equal-length rows (the writer's block path), occasionally ragged."""
    row = st.integers(0, 5).flatmap(lambda w: st.lists(items, min_size=w, max_size=w))
    equal = st.integers(0, 5).flatmap(
        lambda w: st.lists(st.lists(items, min_size=w, max_size=w), max_size=12))
    return st.one_of(equal, st.lists(row, max_size=6), equal.map(lambda rs: [tuple(r) for r in rs]))


blocks = st.one_of(
    _rows(st.integers()),
    _rows(st.one_of(st.integers(), st.booleans())),
    _rows(st.floats(allow_nan=False, allow_infinity=False)),
    _rows(floats),
    _rows(st.one_of(st.floats(), floats.map(np.float64))),
    _rows(leaves),
)
trees = st.recursive(
    st.one_of(leaves, blocks),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


@given(trees)
def test_matches_json_dumps(obj):
    assert "".join(iterencode(obj)) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, [[], []], [[[]]], {"": {}},
    [[1, 2], [3, 4]], [[1, True], [2, 3]], [[1.5, -0.0], [float("nan"), 1.0]],
    {1: 2, 1.5: 3, True: 4, None: 5, float("nan"): 6, -float("inf"): 7},
    {"k": [[1.0, 2.0]] * 9000}, {"k": [[1, 2, 3]] * 4096}, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
    [[np.float64(0.1), 0.2]], [[2**100, -5]], [[1], [2, 3]], "\ud800", 1e16,
])
def test_edge_cases(obj):
    assert "".join(iterencode(obj)) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    np.int64(3), [np.int64(3)], [[1, np.int64(2)], [3, 4]], {"a": np.int64(1)},
    {np.int64(1): 2}, [object()], {(1, 2): 3},
])
def test_type_errors_match_json(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        "".join(iterencode(obj))
    assert str(got.value) == str(expected.value)


def test_write_matches_print():
    obj = {"a": [[1, 2]], "b": "x"}
    buf = io.StringIO()
    write(obj, buf)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"
