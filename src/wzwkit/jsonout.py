"""The CLI's JSON writer: the bytes of ``json.dumps(obj, indent=2)``, with
numpy arrays written as their ``tolist()`` would be.

The standard library writes the report's skeleton; this module writes only
its big tables, which reach the writer as arrays and stay arrays until they
become text.  An int or float array with at least two axes and no
zero-length axis (S as [re, im] pairs, the partition matrices' (i, j, Z_ij)
triples, and the fusion and bimodule structure quadruples, written from the
(m, 4) tables that ``ModularData`` and ``BimoduleRing`` hold) takes a literal
table: each distinct entry is spelt once by ``literal_table``.  The row
layout, split at its scalars, gives the few distinct texts that can follow a
scalar position (the last one closes the row and opens the next), and a
token table holds every spelling followed by each of them.  A chunk of rows
is then one ``"".join`` of the tokens picked by position and entry.

``json.dumps`` leaves a marker string where each such table goes, and the
tables are streamed into the skeleton at its markers.  Any other array
(bool, 0-d, 1-d, with a zero-length axis, or ints spanning more values than
it has entries) goes to ``json`` as its ``tolist()``.  As in ``json.dumps``,
an unserializable value raises ``TypeError`` and a circular container
``ValueError``, both before anything is written.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, TextIO

import numpy as np

_INDENT = "  "
_ITEMS_PER_CHUNK = 16384  # scalars per join: bounds the tokens and text held at once
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


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


def _table_chunks(a: np.ndarray, table: tuple[np.ndarray, np.ndarray], level: int) -> Iterator[str]:
    """Chunks of a's text, as ``json.dumps(a.tolist(), indent=2)`` lays it out
    at indent level, from its ``literal_table``."""
    literals, codes = table
    count, width = len(a), a.size // len(a)
    # The text after each scalar position of a row, up to the next scalar; after
    # the last one it closes the row and opens the next.
    parts = _nested(a.shape[1:], level + 1).split("%s")
    wrap = ",\n" + _INDENT * (level + 1) + parts[0]
    gaps, kind = np.unique(np.array(parts[1:-1] + [parts[-1] + wrap], dtype=object),
                           return_inverse=True)
    tokens = literals + gaps[:, None]  # tokens[kind, v]: entry v's spelling and the gap after it
    codes = codes.reshape(count, width)
    step = max(1, _ITEMS_PER_CHUNK // width)
    yield "[\n" + _INDENT * (level + 1) + parts[0]
    for start in range(0, count, step):
        text = "".join(tokens[kind, codes[start:start + step]].ravel().tolist())
        yield text if start + step < count else text[:-len(wrap)]
    yield "\n" + _INDENT * level + "]"


def write(obj, fp: TextIO) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to fp, as ``print`` would,
    an ndarray counting as its ``tolist()``; the big tables are streamed."""
    marker = os.urandom(16).hex()
    tables = []

    def default(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        table = literal_table(o) if o.ndim >= 2 and o.size else None
        if table is None:
            return o.tolist()
        tables.append((o, table))
        return marker

    pieces = json.dumps(obj, indent=2, default=default).split(f'"{marker}"')
    if len(pieces) != len(tables) + 1:
        raise ValueError("a table marker is missing from the JSON text, or repeated in it")
    for piece, (a, table) in zip(pieces, tables):
        fp.write(piece)
        line = piece[piece.rfind("\n") + 1:]  # the table's line, up to the table
        fp.writelines(_table_chunks(a, table, (len(line) - len(line.lstrip(" "))) // 2))
    fp.write(pieces[-1] + "\n")
