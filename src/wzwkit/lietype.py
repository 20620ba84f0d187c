"""Simple Lie types: parsing, rank ranges, Weyl-group orders, the comarks
and the number of integrable weights at a level.

The closed-form comarks and ``affine``'s half-length table are the one source
of the affine Dynkin data: ``affine.build_root_system`` reads theta, h-vee and
dim g from them.  Free of numpy, fractions and dataclasses, so the CLI can
refuse a bad algebra, rank, Weyl-group size or weight count before the
numeric stack loads.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial

from .config import Config
from .errors import GroupTooLarge, TooManyObjects, UnsupportedRank

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class SimpleLieType(namedtuple("SimpleLieType", "series rank")):
    """A simple Lie algebra series letter plus rank, e.g. A1 or D4: an
    immutable named tuple, as ``Config`` is."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int):
        if series not in _RANK_RANGE:
            raise UnsupportedRank(f"unknown series {series!r}")
        lo, hi = _RANK_RANGE[series]
        if rank < lo or (hi is not None and rank > hi):
            raise UnsupportedRank(f"rank {rank} invalid for series {series}")
        return super().__new__(cls, series, rank)

    @classmethod
    def _make(cls, iterable):  # through __new__, so that _replace is checked too
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def parse_lie_type(text: str) -> SimpleLieType:
    """Parse strings like "A1" or "D4"; ``admit`` applies the rank cap.

    The rank is ASCII digits only: str.isdigit alone would admit "²", which
    int() rejects, and "٣", which int() reads as 3.
    """
    text = text.strip()
    rank = text[1:]
    if (len(text) < 2 or text[0].upper() not in _RANK_RANGE
            or not (rank.isascii() and rank.isdigit())):
        raise UnsupportedRank(f"cannot parse Lie type {text!r}")
    return SimpleLieType(text[0].upper(), int(rank))


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


def admit(t: SimpleLieType, level: int, config: Config) -> None:
    """UnsupportedRank over the rank cap, else ValueError for a level below 1,
    else GroupTooLarge over the Weyl cap, else TooManyObjects over the object
    cap.  The CLI calls it before numpy loads, and ``affine.integrable_weights``
    calls it, so a computed S, a cached one and a fold are refused alike.

    Every diagram has a node of comark 1 or 2, so |P_+^k| > k/2, and a level
    of twice the object cap or more is refused without counting: the count's
    work stays below rank * 2 * cap.
    """
    if t.rank > config.rank_cap:
        raise UnsupportedRank(f"rank {t.rank} exceeds cap {config.rank_cap}")
    if level < 1:
        raise ValueError("level must be a positive integer")
    _check_weyl_cap(t, config)
    if level >= 2 * config.object_cap or object_count(t, level) > config.object_cap:
        raise TooManyObjects(
            f"{t} at level {level} has more than {config.object_cap} integrable weights"
        )


def comarks(t: SimpleLieType) -> tuple[int, ...]:
    """The comarks (dual Coxeter labels) of the nodes, in the node order of
    ``affine.build_root_system``, from their closed forms: the one table of
    them, from which the root system derives theta, h-vee and dim g."""
    n = t.rank
    if t.series in "AC":
        return (1,) * n
    if t.series == "B":
        return (1,) + (2,) * (n - 2) + (1,)
    if t.series == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return {"E": {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1), 8: (2, 3, 4, 6, 5, 4, 3, 2)},
            "F": {4: (2, 3, 2, 1)}, "G": {2: (1, 2)}}[t.series][n]


def object_count(t: SimpleLieType, level: int) -> int:
    """|P_+^k|: the label vectors with sum(comark_i * label_i) <= level.

    The u nodes of comark 1 fill the room r that the others leave in
    C(r + u, u) ways, so the count is that binomial summed over the labels of
    the other nodes: one binomial for A and C.  The sums of those labels are
    tallied up to the level, so the work grows with the level elsewhere.
    """
    cs = comarks(t)
    ones = cs.count(1)
    ways = [1] + [0] * level if len(cs) > ones else [1]  # [s]: labels off comark 1 with weighted sum s
    for c in cs:
        if c > 1:
            for s in range(c, level + 1):
                ways[s] += ways[s - c]
    return sum(w * comb(level - s + ones, ones) for s, w in enumerate(ways) if w)
