"""Correctness check of one wzwkit CLI report against a recorded reference.

A reference entry holds the expected exit code and, for a report, the SHA-256
of its non-float skeleton plus its float leaves:

* Every non-float value (weights, "p/q" rationals, fusion quadruples,
  conjugation, Z, ring structure, counts, check names and pass flags) must
  match exactly.  The skeleton is the report with each float replaced by a
  marker, serialized canonically.
* Every float leaf (S entries, quantum dimensions, sOmega, margins) must lie
  within TOLERANCE of the reference, the CLI's default --tolerance.  Numbers
  printed in scientific notation inside strings, such as "max err 1.47e-15",
  count as float leaves too: they are residuals, and a change that moves S in
  its last bits is not wrong.

Byte digests are deliberately not compared, for the same reason.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

TOLERANCE = 1e-8
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json.gz"

_FLOAT = "\x00f"
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
# A number in scientific notation; the look-behind keeps out \uXXXX escapes
# such as \u00e9.
_SCI = re.compile(r"(?<![\w.\\])[-+]?\d+(?:\.\d+)?e[-+]?\d+")


def split_report(text: bytes | str) -> tuple[str, list[float]]:
    """Return (digest of the non-float skeleton, float leaves).

    The float leaves are the JSON floats in document order, then the numbers
    in scientific notation found inside strings, also in document order.
    """
    floats: list[float] = []

    def leaf(token: str) -> str:
        floats.append(float(token))
        return _FLOAT

    doc = json.loads(text, parse_float=leaf)
    skeleton = json.dumps(doc, separators=(",", ":"), ensure_ascii=True)
    skeleton = _STRING.sub(lambda s: _SCI.sub(lambda m: leaf(m.group()), s.group()), skeleton)
    return hashlib.sha256(skeleton.encode()).hexdigest(), floats


def reference_entry(exit_code: int, stdout: bytes) -> dict:
    """The reference for one query, from a run known to be correct."""
    if exit_code != 0:
        return {"exit": exit_code}
    digest, floats = split_report(stdout)
    return {"exit": 0, "digest": digest, "floats": floats}


def check_report(ref: dict, exit_code: int | None, stdout: bytes) -> str | None:
    """None when the query's outcome matches its reference, else the reason."""
    if exit_code is None:
        return "timed out"
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    if exit_code != 0:
        return "unexpected output on standard output" if stdout.strip() else None
    try:
        digest, floats = split_report(stdout)
    except ValueError as exc:
        return f"report is not JSON ({exc})"
    if digest != ref["digest"]:
        return "non-float content differs from the reference"
    expected = ref["floats"]
    if len(floats) != len(expected):  # only reachable on a digest collision
        return "float leaf count differs from the reference"
    for i, (got, want) in enumerate(zip(floats, expected)):
        diff = abs(got - want)
        if not diff <= TOLERANCE:  # also rejects NaN
            return f"float leaf {i} is {got!r}, reference {want!r}"
    return None


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, dict]:
    with gzip.open(path, "rt", encoding="ascii") as fh:
        return json.load(fh)


def save_reference(refs: dict[str, dict], path: Path = REFERENCE_PATH) -> None:
    # 12 significant digits keep each stored float within 1e-9 of the
    # measured one for |x| < 1e3, far inside TOLERANCE, and halve the file.
    def shorten(entry: dict) -> dict:
        if "floats" not in entry:
            return entry
        return {**entry, "floats": [float(f"{x:.12g}") if math.isfinite(x) else x
                                    for x in entry["floats"]]}

    text = json.dumps({k: shorten(v) for k, v in sorted(refs.items())},
                      separators=(",", ":"))
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(text.encode("ascii"))
