"""Exact arithmetic in Q/Z.

All group-theoretic phases in this package (conformal weights mod 1, monodromy
charges, bicharacter values) live in Q/Z and are represented as
`fractions.Fraction` values normalized to [0, 1).  Exponentials exp(2*pi*i*r)
are formed only at output boundaries.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np


def mod1(x: Fraction | int) -> Fraction:
    """Canonical representative of x in Q/Z, in [0, 1)."""
    x = Fraction(x)
    return Fraction(x.numerator % x.denominator, x.denominator)


def numerators(residues, den: int) -> np.ndarray:
    """Rational residues (nested sequences of Fractions) as integers mod den.

    den must be a multiple of every denominator.
    """
    arr = np.array(residues, dtype=object)
    flat = [x.numerator * (den // x.denominator) for x in arr.flat]
    return np.array(flat, dtype=np.int64).reshape(arr.shape) % den


def unit_phase(r: Fraction) -> complex:
    """exp(2*pi*i*r) for a rational residue r."""
    return cmath.exp(2j * cmath.pi * float(mod1(r)))


def format_rational(x: Fraction) -> str:
    """Serialize a rational as the string "p/q" (always with denominator)."""
    return f"{x.numerator}/{x.denominator}"


def snap_to_residue(phase: float, denominator: int, max_distance: float) -> Fraction | None:
    """Snap a phase in [0,1) to the nearest p/denominator, or None if too far.

    Distance is measured circularly in phase units.
    """
    p = round(phase * denominator)
    candidate = Fraction(p % denominator, denominator)
    dist = abs(phase - p / denominator)
    dist = min(dist, abs(dist - 1.0))
    if dist > max_distance:
        return None
    return candidate
