"""The CLI's JSON writer: the bytes of ``json.dumps(obj, indent=2)``, made fast.

Python's C encoder refuses ``indent``, so ``json.dumps(obj, indent=2)`` runs
the pure-Python encoder, one generator step per scalar.  This writer yields
the same text in chunks instead.  A list of equal-length rows of plain ints,
or of finite floats, is formatted by one ``%`` over a repeated row template
per chunk of rows; that covers the fusion and structure quadruples, the
``Z`` triples and the ``[re, im]`` rows of S.  Everything else takes a
general recursive path with the ``json`` module's own rules for scalars and
dict keys.

Unlike ``json.dumps``, a value that cannot be serialized raises its
``TypeError`` only when the chunks reach it, and circular containers are not
detected.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _encode
from math import isfinite
from typing import Iterator, TextIO

_INDENT = "  "
_ROWS_PER_CHUNK = 4096  # rows per % call: bounds the argument tuple and text held at once
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


def _row_format(rows: list | tuple) -> tuple[int, str] | None:
    """(width, item format) when rows is a block: equal-length non-empty
    lists or tuples whose items are all ``int`` (never bool), or all finite
    ``float`` (never a subclass, whose ``%r`` would differ)."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1:
        return None
    kinds = set(map(type, chain.from_iterable(rows)))
    if kinds == {int}:
        return widths.pop(), "%d"
    if kinds == {float} and all(map(isfinite, chain.from_iterable(rows))):
        return widths.pop(), "%r"
    return None


def _block(rows: list | tuple, width: int, fmt: str, level: int) -> Iterator[str]:
    """The rows of a block, each a list at indent ``level``, comma-separated."""
    inner = ",\n" + _INDENT * (level + 1)
    row = "[\n" + _INDENT * (level + 1) + inner.join([fmt] * width) + "\n" + _INDENT * level + "]"
    sep = ",\n" + _INDENT * level
    count = min(len(rows), _ROWS_PER_CHUNK)
    full = sep.join([row] * count)
    for start in range(0, len(rows), count):
        part = rows[start:start + count]
        template = full if len(part) == count else sep.join([row] * len(part))
        yield (sep if start else "") + template % tuple(chain.from_iterable(part))


def _encode_value(o, level: int) -> Iterator[str]:
    if isinstance(o, (list, tuple)):
        yield from _encode_list(o, level)
    elif isinstance(o, dict):
        yield from _encode_dict(o, level)
    else:
        yield _scalar(o)


def _encode_list(lst: list | tuple, level: int) -> Iterator[str]:
    if not lst:
        yield "[]"
        return
    newline = "\n" + _INDENT * (level + 1)
    close = "\n" + _INDENT * level + "]"
    block = _row_format(lst)
    if block is not None:
        yield "[" + newline
        yield from _block(lst, *block, level + 1)
        yield close
    else:
        sep = "[" + newline
        for x in lst:
            yield sep
            sep = "," + newline
            yield from _encode_value(x, level + 1)
        yield close


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
    """Chunks whose concatenation is ``json.dumps(obj, indent=2)``."""
    return _encode_value(obj, 0)


def write(obj, fp: TextIO) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to fp, as ``print`` would,
    without building the whole text."""
    fp.writelines(iterencode(obj))
    fp.write("\n")
