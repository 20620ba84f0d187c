"""Exception hierarchy.

Every failure mode that is part of a documented contract gets its own class,
so callers (and the CLI) can distinguish user errors from mathematical-check
failures without string matching.
"""


class WzwError(Exception):
    """Base class for all library errors."""


# --- root systems / modular data -------------------------------------------

class UnsupportedRank(WzwError):
    """Rank is invalid for the series or exceeds the configured cap."""


class GroupTooLarge(WzwError):
    """The Weyl group exceeds the configured element cap."""


class TooManyObjects(WzwError):
    """The level has more integrable weights than the configured object cap."""


class NormalizationFailure(WzwError):
    """An S-matrix could not be normalized to a unitary symmetric matrix."""


class NonIntegerFusion(WzwError):
    """A Verlinde coefficient deviates from an integer beyond tolerance."""


class NegativeFusion(WzwError):
    """A rounded Verlinde coefficient is negative."""


class NotAPermutation(WzwError):
    """S^2 is not a permutation matrix within tolerance."""


# --- Picard group ------------------------------------------------------------

class QuadraticFormViolation(WzwError):
    """The twist fails a quadratic-form identity; names the offending pair."""


class UnsupportedSeries(WzwError):
    """No diagram automorphism, or more than one, induces the current's fusion action."""


# --- algebra classification ---------------------------------------------------

class NonIntegerEntry(WzwError):
    """A residue is off its integer grid: Xi values that are not integer
    numerators, a group exponent that does not divide the denominator of the
    conformal weights, or monodromy charges that are not additive."""


class InvarianceViolation(WzwError):
    """A partition matrix fails a modular-invariance condition."""


# --- boundary conditions -------------------------------------------------------

class PhiUnavailable(WzwError):
    """A non-cyclic stabilizer needs a phi table and none was supplied."""


# --- bimodules -----------------------------------------------------------------

class FixedPointsPresent(WzwError):
    """The support has fixed points; the free-action ring is undefined."""

    def __init__(self, fixed_weights):
        self.fixed_weights = tuple(fixed_weights)
        super().__init__(
            f"support fixes weights {list(self.fixed_weights)}; "
            "use build_pointed_bimodule_ring instead"
        )


# --- twining ---------------------------------------------------------------------

class UnsupportedFolding(WzwError):
    """The diagram automorphism is outside the folding catalog."""


class LambdaDependence(WzwError):
    """The phi ratio depends on the reference weight beyond tolerance."""


class SnapFailure(WzwError):
    """A phi phase is not close to a small root of unity."""
