"""Classification of haploid algebras supported on simple currents.

An algebra is one value, `SchellekensAlgebra(support, xi)`: a subgroup H of
the Picard group together with a bicharacter Xi on H whose diagonal equals
the twist residues, so Xi cannot be paired with another subgroup than the
one it was made on.  Every residue here is an integer over the Picard
group's `charge_den`: the monodromy charges of its table, the twists and the
values of Xi, which are therefore enumerated, checked and summed as integer
arrays.  Xi is checked once, when the algebra is made, so every reader of
`algebra.xi` (Z here, the bimodule rings, the boundary forms) gets a
bicharacter on H with the twists on its diagonal, reduced mod `charge_den`.
The bulk partition matrix, the algebra's cached `partition`, collapses its
inner character sum to |H| or 0, so every entry is an integer by
construction.  Its modular invariance is checked under the Config its
datum carries, the one S was accepted under; nothing here takes a Config.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import TYPE_CHECKING

import numpy as np

from . import groups
from .affine import ModularData
from .errors import InvarianceViolation, NonIntegerEntry, QuadraticFormViolation
from .picard import PicardGroup

if TYPE_CHECKING:
    from .boundary import Orbit


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of the Picard group, as a tuple of its element indices."""

    picard: PicardGroup
    members: tuple[int, ...]  # pic element indices, identity (0) first

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def local_table(self) -> groups.Table:
        pos = {g: a for a, g in enumerate(self.members)}
        return tuple(
            tuple(pos[self.picard.table[g][h]] for h in self.members)
            for g in self.members
        )

    @cached_property
    def decomposition(self) -> list[tuple[int, int]]:
        """Cyclic decomposition [(local generator index, order)]."""
        return groups.cyclic_decomposition(self.local_table)

    @cached_property
    def exponents(self) -> dict[int, tuple[int, ...]]:
        return groups.exponent_vectors(self.local_table, self.decomposition)

    @cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        """The orbits of H on the simple objects, by
        `boundary.orbit_decomposition`, made once for every algebra on H."""
        from .boundary import orbit_decomposition

        return orbit_decomposition(self)


def enumerate_subgroups(pg: PicardGroup) -> list[Subgroup]:
    """All subgroups of Pic(C), sorted by (order, members)."""
    return [Subgroup(pg, members) for members in groups.subgroups(pg.table)]


@dataclass(frozen=True)
class SchellekensAlgebra:
    """The isomorphism-class datum (support H, bicharacter Xi).

    xi[a][b] is Xi(g_a, g_b) * charge_den, an integer in [0, charge_den),
    for local indices into support.members.  Xi is checked when the algebra
    is made: NonIntegerEntry unless its values are integers additive in both
    arguments on the local table; then QuadraticFormViolation unless
    Xi(g, g) = h_g on every element of H.  It is stored reduced mod
    charge_den.
    """

    support: Subgroup
    xi: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sub = self.support
        den = sub.picard.charge_den
        table = np.array(sub.local_table, dtype=np.intp)
        xi = np.array(self.xi)
        if xi.dtype.kind != "i":  # Fractions, say, which an int64 cast would truncate
            raise NonIntegerEntry(f"Xi values are not integer numerators over {den}")
        left = xi[table] - xi[:, None, :] - xi[None, :, :]  # [a, b, c]: Xi(ab, c) - Xi(a, c) - Xi(b, c)
        right = xi[:, table] - xi[:, :, None] - xi[:, None, :]  # [c, a, b]: Xi(c, ab) - Xi(c, a) - ...
        if (left % den).any() or (right % den).any():
            raise NonIntegerEntry("Xi is not a bihomomorphism on H x H")
        xi %= den
        off = np.flatnonzero(xi.diagonal() != sub.picard.twists[list(sub.members)])
        if len(off):
            raise QuadraticFormViolation(f"Xi(g, g) != h_g for support element {sub.members[off[0]]}")
        object.__setattr__(self, "xi", tuple(map(tuple, xi.tolist())))

    @property
    def picard(self) -> PicardGroup:
        return self.support.picard

    @cached_property
    def partition(self) -> np.ndarray:
        """Z, by partition_function."""
        return partition_function(self)


def enumerate_ksbs(support: Subgroup) -> list[SchellekensAlgebra]:
    """The algebras on H: one per bicharacter Xi with Xi(g, g) = h_g mod 1
    for every g in H.

    A candidate is fixed by its values G on pairs of generators: the twist on
    the diagonal, any multiple of 1/gcd of the two orders off it.  Over the
    exponent matrix E (elements by generators) it is (E @ G @ E.T) mod
    charge_den, kept when its diagonal is the twist on every element, not
    only on the generators.  An empty list is a valid outcome (no algebra
    with this support).
    """
    den = support.picard.charge_den
    twists = support.picard.twists[list(support.members)]
    gens = [g for g, _ in support.decomposition]
    orders = [o for _, o in support.decomposition]
    t = len(gens)
    # generator diagonal values are forced by the twist; they must be
    # compatible with the generator order, otherwise no KSB exists at all
    if any(o * twists[g] % den for g, o in support.decomposition):
        return []
    e = np.array([support.exponents[x] for x in range(len(support))], dtype=np.int64)
    off_pairs = [(a, b) for a in range(t) for b in range(t) if a != b]
    steps = [gcd(orders[a], orders[b]) for a, b in off_pairs]
    combos = np.array(list(itertools.product(*map(range, steps))), dtype=np.int64)
    g = np.zeros((len(combos), t, t), dtype=np.int64)
    g[:, range(t), range(t)] = twists[gens]
    for p, ((a, b), step) in enumerate(zip(off_pairs, steps)):
        g[:, a, b] = combos[:, p] * (den // step)
    values = e @ g @ e.T % den  # [candidate, x, y]
    kept = values[(values.diagonal(axis1=1, axis2=2) == twists).all(axis=1)]
    return [SchellekensAlgebra(support, tuple(map(tuple, v))) for v in sorted(kept.tolist())]


def partition_function(algebra: SchellekensAlgebra) -> np.ndarray:
    """Z_ij = (1/|H|) sum_{g,h in H} theta_i(h) Xi(h, g) [j_bar = g.i], exactly.

    The h-sum is a character sum: for fixed i and g the map
    h -> Q_i(h) + Xi(h, g) is additive, so the sum is |H| when the residue
    vanishes for every h and 0 otherwise.  The charges Q come from the Picard
    group's table, whose rows are checked to be characters when it is built,
    and Xi is checked when the algebra is made.
    Z is returned as a read-only int64 array over the objects of algebra.picard.md.
    """
    sub = algebra.support
    pg = algebra.picard
    members = list(sub.members)
    xi = np.array(algebra.xi)  # [b, a]: Xi(g_b, g_a)
    q = pg.charges[:, members]  # [i, a]: Q_i(g_a)
    trivial = ((q[:, :, None] + xi) % pg.charge_den == 0).all(axis=1)  # [i, a]
    i, a = np.nonzero(trivial)
    n = len(pg.md)
    z = np.zeros((n, n), dtype=np.int64)
    np.add.at(z, (i, np.asarray(pg.md.conjugation)[pg.action[members][a, i]]), 1)
    z.flags.writeable = False
    return z


def verify_modular_invariance(md: ModularData, z: np.ndarray) -> float:
    """Check [S, Z] within the tolerance md was assembled under (its
    config), TZ = ZT exactly, Z00 = 1, entries >= 0.

    Returns the commutator norm max |SZ - ZS|; any failed check raises
    InvarianceViolation.
    """
    if z.shape != (len(md), len(md)):
        raise InvarianceViolation("partition matrix has wrong shape")
    if np.min(z) < 0:
        raise InvarianceViolation("negative entry")
    if z[md.vacuum, md.vacuum] != 1:
        raise InvarianceViolation(f"Z00 = {z[md.vacuum, md.vacuum]} != 1")
    for i, j in zip(*np.nonzero(z)):
        if md.t_exponents[i] != md.t_exponents[j]:
            raise InvarianceViolation(
                f"T-condition fails at entry ({i}, {j}): h_i - h_j not an integer"
            )
    s = md.s_matrix
    norm = float(np.max(np.abs(s @ z - z @ s)))
    if norm > md.config.tolerance:
        raise InvarianceViolation(f"commutator norm {norm:.3e} exceeds tolerance")
    return norm


def classify_algebras(pg: PicardGroup) -> list[SchellekensAlgebra]:
    """Every (H, Xi) pair, subgroups in canonical order."""
    return [algebra for sub in enumerate_subgroups(pg) for algebra in enumerate_ksbs(sub)]
