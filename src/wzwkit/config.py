"""Runtime configuration shared across modules."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


@dataclass(frozen=True)
class Config:
    """Numerical tolerances and size caps.

    tolerance            -- max-abs tolerance for floating checks (unitarity,
                            symmetry, commutators, ratio spreads)
    integrality_tolerance -- how far a Verlinde coefficient may sit from an
                            integer before it is an error
    weyl_cap             -- refuse algebras whose Weyl group is larger than
                            this (checked from |W|; W is not enumerated)
    rank_cap             -- refuse to build root systems of larger rank
    """

    tolerance: float = 1e-8
    integrality_tolerance: float = 1e-6
    weyl_cap: int = 10**6
    rank_cap: int = 8

    def __post_init__(self) -> None:
        # NaN fails every comparison, so `0 < t` refuses it too
        if not all(0 < t < inf for t in (self.tolerance, self.integrality_tolerance)):
            raise ValueError("tolerances must be positive and finite")
        if self.weyl_cap <= 0 or self.rank_cap <= 0:
            raise ValueError("caps must be positive")


DEFAULT_CONFIG = Config()
