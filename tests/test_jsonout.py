"""The report writer against its oracle, json.dumps(obj, indent=2), with
an ndarray counting as its tolist()."""

import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wzwkit.jsonout import write

SPECIAL_FLOATS = [0.0, -0.0, 1e16, 1e-16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  0.1, float("nan"), float("inf"), -float("inf")]
SPECIAL_TEXT = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff",
                "\U0001f600", "/"]

text = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(SPECIAL_TEXT)))
ints = st.one_of(st.integers(), st.integers(-2**200, 2**200), st.booleans())
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
# Arrays of every shape; two and three axes (the literal-table path) most often.
shapes = st.one_of(hnp.array_shapes(min_dims=2, max_dims=3, max_side=6),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
arrays = st.one_of(
    hnp.arrays(np.int64, shapes, elements=st.one_of(st.integers(-3, 40),
                                                    st.sampled_from([-2**62, 2**62]))),
    hnp.arrays(np.uint8, shapes),
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(np.float64, shapes, elements=st.sampled_from(SPECIAL_FLOATS)),
)
leaves = st.one_of(st.none(), ints, floats, floats.map(np.float64), text, arrays)
keys = st.one_of(text, st.integers(), st.floats(), st.booleans(), st.none())


def _rows(items):
    """Lists of equal-length rows, occasionally ragged: tables that reach the
    writer as lists are written by json itself."""
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


def _tolist(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, default=_tolist)


def _text(obj) -> str:
    """What write() puts out for obj, less the newline that ends it."""
    buf = io.StringIO()
    write(obj, buf)
    text = buf.getvalue()
    assert text.endswith("\n")
    return text[:-1]


@given(trees)
def test_matches_json_dumps(obj):
    assert _text(obj) == _oracle(obj)


@given(arrays)
def test_array_matches_its_tolist(a):
    assert _text(a) == json.dumps(a.tolist(), indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, [[], []], [[[]]], {"": {}},
    [[1, 2], [3, 4]], [[1, True], [2, 3]], [[1.5, -0.0], [float("nan"), 1.0]],
    {1: 2, 1.5: 3, True: 4, None: 5, float("nan"): 6, -float("inf"): 7},
    {"k": [[1.0, 2.0]] * 9000}, {"k": [[1, 2, 3]] * 4096}, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
    [[np.float64(0.1), 0.2]], [[2**100, -5]], [[1], [2, 3]], "\ud800", 1e16,
])
def test_edge_cases(obj):
    assert _text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0)), np.zeros((2, 0, 3), dtype=np.int64),
    np.array(5), np.array(-0.0), np.array([[True, False], [False, True]]), np.arange(5),
    np.array([0.5, -0.0]), np.array([[7]]), np.array([[0, 10**6], [3, 4]]),
    np.array([[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1e16], [0.1, 2.0]]),
    np.arange(-128, 128, dtype=np.int8).reshape(16, 16),
    np.array([[2**64 - 1, 2**64 - 2]], dtype=np.uint64),
    np.arange(6, dtype=np.float32).reshape(2, 3) / 3,
    np.arange(40000).reshape(-1, 4) % 9,  # 10000 rows: three chunks, the last one short
    (np.arange(60000) / 7).reshape(150, 200, 2),  # rows of 400 scalars over several chunks
    np.asfortranarray(np.arange(12).reshape(3, 4)), np.arange(24).reshape(2, 3, 4)[:, ::2, 1:],
    [{"k": [np.eye(3), np.arange(4).reshape(2, 2)]}, {"z": np.zeros((1, 1, 1))}],
    {"k": [[1, 2, 3]] * 6000},
    np.arange(5).reshape(1, 5),  # one row: the first row's opening, no separator
    np.arange(7).reshape(7, 1),  # one column
    np.arange(40000).reshape(2, 20000) % 13,  # a row wider than one chunk
    (np.arange(18000) / 3).reshape(1, 9000, 2),
    np.arange(16384).reshape(4096, 4) % 5,  # count * width at one chunk exactly
    np.arange(16385).reshape(3277, 5) % 5,  # and one scalar past it
    np.arange(120).reshape(2, 3, 4, 5) - 60,  # four axes
])
def test_array_edge_cases(obj):
    assert _text(obj) == _oracle(obj)


@pytest.mark.parametrize("obj", [
    np.int64(3), [np.int64(3)], [[1, np.int64(2)], [3, 4]], {"a": np.int64(1)},
    {np.int64(1): 2}, [object()], {(1, 2): 3},
    np.array([[1j, 2]]), [np.array([[object()]], dtype=object)],
])
def test_type_errors_match_json(obj):
    with pytest.raises(TypeError) as expected:
        _oracle(obj)
    with pytest.raises(TypeError) as got:
        _text(obj)
    assert str(got.value) == str(expected.value)


def _circular_list():
    lst = [1, {"a": [[1, 2], [3, 4]]}]
    lst.append(lst)
    return lst


def _circular_dict():
    dct = {"S": np.eye(3)}
    dct["self"] = dct
    return dct


@pytest.mark.parametrize("make", [_circular_list, _circular_dict])
def test_circular_containers_match_json(make):
    with pytest.raises(ValueError) as expected:
        _oracle(make())
    with pytest.raises(ValueError) as got:
        _text(make())
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("obj", [
    {"S": np.eye(3), "bad": object()},  # after a table that the writer would stream
    [np.arange(4).reshape(2, 2), np.int64(3)],
    _circular_list(), _circular_dict(),
])
def test_refused_objects_write_nothing(obj):
    buf = io.StringIO()
    with pytest.raises((TypeError, ValueError)):
        write(obj, buf)
    assert buf.getvalue() == ""


def test_write_matches_print():
    obj = {"a": [[1, 2]], "b": "x"}
    buf = io.StringIO()
    write(obj, buf)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"
