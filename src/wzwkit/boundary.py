"""Orbits, stabilizers and boundary-condition counting for a fixed algebra.

Boundary conditions are labeled by an H-orbit of simple objects together with
an irreducible representation of the twisted group algebra of the stabilizer;
for abelian stabilizers the irrep count is the order of the radical of the
alternating form eps_U.  On a cyclic stabilizer eps_U is forced to vanish, so
the 6j-table phi is consulted only for non-cyclic stabilizers.  phi is a plain
mapping (U, g, h) -> int, keyed by weight index and Picard element indices,
whose values are residues over the Picard group's `charge_den`, as are the
values of eps_U.  The orbits are read from the rows of the Picard group's
action, and a count always uses its algebra's own support, whose `orbits`
are decomposed once for every algebra on it: no function here takes orbits
from the caller.  An orbit's least member is its representative.  A form
eps_U is held as its values alone, a square of residues indexed like the
orbit's `stabilizer` tuple; a count holds one per orbit of `orbits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PhiUnavailable, WzwError

if TYPE_CHECKING:
    from collections.abc import Mapping

    from .picard import PicardGroup
    from .schellekens import SchellekensAlgebra, Subgroup


@dataclass(frozen=True)
class Orbit:
    members: tuple[int, ...]  # ascending: members[0] is the representative
    stabilizer: tuple[int, ...]  # pic element indices, identity first


def orbit_decomposition(sub: Subgroup) -> tuple[Orbit, ...]:
    """Partition P_+^k under the permutation action of H, with stabilizers,
    in the order of the least member of each orbit, its representative.
    The action is a group action, being read from an associative fusion
    table."""
    images = sub.picard.action[list(sub.members)].T.tolist()  # [i][h]: g_h . i
    orbits = []
    for rep, row in enumerate(images):
        if min(row) != rep:  # rep is not the least member of its orbit
            continue
        stab = tuple(g for g, j in zip(sub.members, row) if j == rep)
        orbits.append(Orbit(tuple(sorted(set(row))), stab))
    return tuple(orbits)


def _stabilizer_is_cyclic(pg: PicardGroup, stab: tuple[int, ...]) -> bool:
    """A subgroup of an abelian group is cyclic iff one of its elements has order |stab|."""
    return any(pg.orders[g] == len(stab) for g in stab)


def epsilon_form(
    orbit: Orbit, algebra: SchellekensAlgebra, phi: Mapping[tuple[int, int, int], int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """The values eps_U(g, h) = phi_U(g, h) + Xi(h, g) on the stabilizer of the
    orbit, [a][b] for its a-th and b-th elements.

    For a cyclic stabilizer an alternating bicharacter is identically zero,
    so the zero form is returned and phi is not consulted.  Otherwise phi
    must hold (U, g, h) for the orbit's representative U and every g, h in
    the stabilizer.  phi, Xi and eps are residues over charge_den.
    """
    sub = algebra.support
    stab = orbit.stabilizer
    n = len(stab)
    if _stabilizer_is_cyclic(sub.picard, stab):
        return ((0,) * n,) * n
    if phi is None:
        raise PhiUnavailable(
            f"stabilizer of orbit at weight {orbit.members[0]} is non-cyclic; "
            "a phi table from the twining module is required"
        )
    u = orbit.members[0]
    den = sub.picard.charge_den
    rows = []
    for g in stab:
        row = []
        for h in stab:
            if (u, g, h) not in phi:
                raise PhiUnavailable(f"phi table lacks entry (U={u}, g={g}, h={h})")
            xi = algebra.xi[sub.members.index(h)][sub.members.index(g)]
            row.append((phi[u, g, h] + xi) % den)
        rows.append(tuple(row))
    for a in range(n):
        if rows[a][a] != 0:
            raise WzwError(f"eps_U is not alternating at stabilizer element {stab[a]}")
    return tuple(rows)


@dataclass(frozen=True)
class BoundaryCount:
    """eps_U of each orbit of `support.orbits`, and the boundary conditions
    read from it: #Irr of the twisted stabilizer algebra, which for abelian
    stabilizers is |rad eps_U|, the stabilizer elements whose row of eps_U
    vanishes."""

    forms: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def per_orbit(self) -> tuple[int, ...]:
        return tuple(sum(not any(row) for row in eps) for eps in self.forms)

    @property
    def total(self) -> int:
        return sum(self.per_orbit)


def count_boundary_conditions(
    algebra: SchellekensAlgebra, phi: Mapping[tuple[int, int, int], int] | None = None
) -> BoundaryCount:
    """The simple modules per orbit of the algebra's support, as the eps_U
    forms their count is read from; `total` sums them."""
    orbits = algebra.support.orbits
    return BoundaryCount(tuple(epsilon_form(orbit, algebra, phi) for orbit in orbits))
