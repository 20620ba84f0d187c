"""Simple Lie types: parsing, rank ranges and Weyl-group orders.

Numpy-free, so the CLI can refuse a bad algebra, rank or Weyl-group size
before the numeric stack loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .config import Config, DEFAULT_CONFIG
from .errors import GroupTooLarge, UnsupportedRank

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class SimpleLieType:
    """A simple Lie algebra series letter plus rank, e.g. A1 or D4."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        if self.series not in _RANK_RANGE:
            raise UnsupportedRank(f"unknown series {self.series!r}")
        lo, hi = _RANK_RANGE[self.series]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise UnsupportedRank(f"rank {self.rank} invalid for series {self.series}")

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def parse_lie_type(text: str, config: Config = DEFAULT_CONFIG) -> SimpleLieType:
    """Parse strings like "A1" or "D4", enforcing the configured rank cap.

    The rank is ASCII digits only: str.isdigit alone would admit "²", which
    int() rejects, and "٣", which int() reads as 3.
    """
    text = text.strip()
    rank = text[1:]
    if (len(text) < 2 or text[0].upper() not in _RANK_RANGE
            or not (rank.isascii() and rank.isdigit())):
        raise UnsupportedRank(f"cannot parse Lie type {text!r}")
    t = SimpleLieType(text[0].upper(), int(rank))
    if t.rank > config.rank_cap:
        raise UnsupportedRank(f"rank {t.rank} exceeds cap {config.rank_cap}")
    return t


def weyl_order(t: SimpleLieType) -> int:
    """|W| from the classical order formulas."""
    n = t.rank
    if t.series == "A":
        return factorial(n + 1)
    if t.series in ("B", "C"):
        return 2**n * factorial(n)
    if t.series == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E": {6: 51840, 7: 2903040, 8: 696729600}, "F": {4: 1152}, "G": {2: 12}}[t.series][n]


def _check_weyl_cap(t: SimpleLieType, config: Config) -> int:
    """|W|, or GroupTooLarge when it exceeds config.weyl_cap."""
    order = weyl_order(t)
    if order > config.weyl_cap:
        raise GroupTooLarge(f"|W({t})| = {order} exceeds cap {config.weyl_cap}")
    return order
