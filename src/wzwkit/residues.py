"""Exact arithmetic in Q/Z.

All group-theoretic phases in this package (conformal weights mod 1, monodromy
charges, bicharacter values, the 6j-scalars phi) live in Q/Z.  The conformal
weights are read in as `fractions.Fraction`s; from the Picard group on, every
residue is an integer over one denominator, `PicardGroup.charge_den`, and
`format_residue` is the one place where such an integer becomes "p/q".
Exponentials exp(2*pi*i*r) are formed only at output boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


def mod1(x: Fraction | int) -> Fraction:
    """Canonical representative of x in Q/Z, in [0, 1)."""
    x = Fraction(x)
    return Fraction(x.numerator % x.denominator, x.denominator)


def numerators(residues, den: int) -> np.ndarray:
    """Rational residues (nested sequences of Fractions) as integers mod den.

    Raises ValueError for a residue that is not a multiple of 1/den.
    """
    arr = np.array(residues, dtype=object)
    flat = []
    for x in arr.flat:
        if den % x.denominator:
            raise ValueError(f"residue {x} is not a multiple of 1/{den}")
        flat.append(x.numerator * (den // x.denominator))
    return np.array(flat, dtype=np.int64).reshape(arr.shape) % den


def format_rational(x: Fraction) -> str:
    """Serialize a rational as the string "p/q" (always with denominator)."""
    return f"{x.numerator}/{x.denominator}"


def format_residue(v: int, den: int) -> str:
    """The residue v/den mod 1 as "p/q" in lowest terms, "0/1" for zero."""
    v = int(v) % den
    d = gcd(v, den)
    return f"{v // d}/{den // d}"


def snap_to_residue(phase: float, denominator: int, max_distance: float) -> int | None:
    """Snap a phase in [0,1) to the nearest p/denominator: p mod denominator,
    or None if too far.

    Distance is measured circularly in phase units.
    """
    p = round(phase * denominator)
    dist = abs(phase - p / denominator)
    dist = min(dist, abs(dist - 1.0))
    if dist > max_distance:
        return None
    return p % denominator
