"""Runtime configuration shared across modules."""

from __future__ import annotations

from collections import namedtuple
from math import inf


class Config(namedtuple("Config", "tolerance integrality_tolerance weyl_cap rank_cap object_cap",
                        defaults=(1e-8, 1e-6, 10**6, 8, 400))):
    """Numerical tolerances and size caps, an immutable named tuple (a
    ``dataclass`` would cost a numpy-free CLI launch the import of
    ``dataclasses`` and ``inspect``).

    tolerance            -- max-abs tolerance for floating checks (unitarity,
                            symmetry, commutators, ratio spreads)
    integrality_tolerance -- how far a Verlinde coefficient may sit from an
                            integer before it is an error
    weyl_cap             -- refuse algebras whose Weyl group is larger than
                            this (checked from |W|; W is not enumerated)
    rank_cap             -- refuse algebras of larger rank (``lietype.admit``)
    object_cap           -- refuse a level with more integrable weights than
                            this (``lietype.admit``, counted without
                            enumerating them); the fusion table grows as
                            their cube
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # NaN fails every comparison, so `0 < t` refuses it too
        if not all(0 < t < inf for t in (self.tolerance, self.integrality_tolerance)):
            raise ValueError("tolerances must be positive and finite")
        if self.weyl_cap <= 0 or self.rank_cap <= 0 or self.object_cap <= 0:
            raise ValueError("caps must be positive")
        return self

    @classmethod
    def _make(cls, iterable):  # through __new__, so that _replace is checked too
        return cls(*iterable)


DEFAULT_CONFIG = Config()
