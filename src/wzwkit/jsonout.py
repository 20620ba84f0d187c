"""The CLI's JSON writer: the bytes of ``json.dumps(obj, indent=2)``, made fast.

Python's C encoder refuses ``indent``, so ``json.dumps(obj, indent=2)`` runs
the pure-Python encoder, one generator step per scalar.  This writer yields
the same text in chunks instead, and also accepts numpy arrays, written as
their ``tolist()`` would be.

The big tables reach the writer as arrays and stay arrays until they become
text.  An int or float array with at least two axes and no zero-length axis
(S as [re, im] pairs, the fusion and bimodule structure quadruples, the
partition matrices' (i, j, Z_ij) triples) takes a literal table: each
distinct entry is spelt once by ``literal_table``, and the spellings fill one
repeated nested-row template ``%`` per chunk of rows.  ``cache`` writes its
compact S text from the same table.  Any other array (bool, 0-d, 1-d, with a
zero-length axis, or ints spanning more values than it has entries) takes
the general path as ``tolist()``, as does every list, tuple and dict: a
recursive walk with the ``json`` module's own rules for scalars and dict
keys.

Unlike ``json.dumps``, a value that cannot be serialized raises its
``TypeError`` only when the chunks reach it, and circular containers are not
detected.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode
from typing import Iterator, TextIO

import numpy as np

_INDENT = "  "
_ITEMS_PER_CHUNK = 16384  # scalars per % call: bounds the argument tuple and text held at once
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(o) -> str:
    """A non-container leaf, spelt and type-checked as ``json`` does."""
    if isinstance(o, str):
        return _encode(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return _encode(k)
    if isinstance(k, float):
        return _encode(_float(k))
    if k is True or k is False or k is None or isinstance(k, int):
        return _encode(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def literal_table(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(literals, codes) of a non-empty int or float array: the JSON spelling
    of each distinct entry once, as an object array of str, and per entry of
    ``a.ravel()`` the index of its spelling, so ``literals[codes]`` spells a.

    Ints are spelt from the table of ``lo..hi``, and are refused (None) when
    that span has more values than a has entries.  Floats are told apart by
    their bits, so -0.0 is not 0.0, and NaN and the infinities are spelt as
    ``json`` spells them.  Any other dtype is refused."""
    if a.dtype.kind in "iu":
        lo, hi = int(a.min()), int(a.max())
        if hi - lo >= a.size:
            return None
        literals = np.array([int.__repr__(v) for v in range(lo, hi + 1)], dtype=object)
        codes = a - a.min() if a.dtype.kind == "u" else a.astype(np.int64) - lo
        return literals, codes.ravel()
    if a.dtype.kind == "f" and a.dtype.itemsize <= 8:  # longdouble: tolist() keeps numpy scalars
        bits = a.astype(np.float64).view(np.int64).ravel()
        distinct, codes = np.unique(bits, return_inverse=True)
        literals = np.array([_float(x) for x in distinct.view(np.float64).tolist()], dtype=object)
        return literals, codes
    return None


def _nested(shape: tuple[int, ...], level: int) -> str:
    """The template of one nested list of the given shape at indent level,
    as ``json.dumps(..., indent=2)`` lays it out, with ``%s`` for each scalar."""
    if not shape:
        return "%s"
    inner = ",\n" + _INDENT * (level + 1)
    item = _nested(shape[1:], level + 1)
    return "[\n" + _INDENT * (level + 1) + inner.join([item] * shape[0]) + "\n" + _INDENT * level + "]"


def _encode_value(o, level: int) -> Iterator[str]:
    if isinstance(o, (list, tuple)):
        yield from _encode_list(o, level)
    elif isinstance(o, dict):
        yield from _encode_dict(o, level)
    elif isinstance(o, np.ndarray):
        yield from _encode_array(o, level)
    else:
        yield _scalar(o)


def _encode_array(a: np.ndarray, level: int) -> Iterator[str]:
    table = literal_table(a) if a.ndim >= 2 and a.size else None
    if table is None:
        yield from _encode_value(a.tolist(), level)
        return
    literals, codes = table
    count, width = len(a), a.size // len(a)
    row = _nested(a.shape[1:], level + 1)
    step = max(1, _ITEMS_PER_CHUNK // width)
    size = min(count, step)
    sep = ",\n" + _INDENT * (level + 1)
    full = sep.join([row] * size)
    yield "[\n" + _INDENT * (level + 1)
    for start in range(0, count, step):
        stop = min(start + step, count)
        template = full if stop - start == size else sep.join([row] * (stop - start))
        chunk = literals[codes[start * width:stop * width]].tolist()
        yield (sep if start else "") + template % tuple(chunk)
    yield "\n" + _INDENT * level + "]"


def _encode_list(lst: list | tuple, level: int) -> Iterator[str]:
    if not lst:
        yield "[]"
        return
    newline = "\n" + _INDENT * (level + 1)
    sep = "[" + newline
    for x in lst:
        yield sep
        sep = "," + newline
        yield from _encode_value(x, level + 1)
    yield "\n" + _INDENT * level + "]"


def _encode_dict(dct: dict, level: int) -> Iterator[str]:
    if not dct:
        yield "{}"
        return
    newline = "\n" + _INDENT * (level + 1)
    sep = "{" + newline
    for k, v in dct.items():
        yield sep + _key(k) + ": "
        sep = "," + newline
        yield from _encode_value(v, level + 1)
    yield "\n" + _INDENT * level + "}"


def iterencode(obj) -> Iterator[str]:
    """Chunks whose concatenation is ``json.dumps(obj, indent=2)``, an
    ndarray counting as its ``tolist()``."""
    return _encode_value(obj, 0)


def write(obj, fp: TextIO) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to fp, as ``print`` would,
    without building the whole text."""
    fp.writelines(iterencode(obj))
    fp.write("\n")
