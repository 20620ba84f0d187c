"""Orbits, stabilizers and boundary-condition counting for a fixed algebra.

Boundary conditions are labeled by an H-orbit of simple objects together with
an irreducible representation of the twisted group algebra of the stabilizer;
for abelian stabilizers the irrep count is the order of the radical of the
alternating form eps_U.  On a cyclic stabilizer eps_U is forced to vanish, so
the 6j-table phi is consulted only for non-cyclic stabilizers.  phi is a plain
mapping (U, g, h) -> int, keyed by weight index and Picard element indices,
whose values are residues over the Picard group's `charge_den`, as are the
values of eps_U.  Every function reads the simple objects and the action
from the algebra's Picard group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PhiUnavailable, WzwError

if TYPE_CHECKING:
    from collections.abc import Mapping

    from .picard import PicardGroup
    from .schellekens import KSB, SchellekensAlgebra, Subgroup


@dataclass(frozen=True)
class Orbit:
    representative: int
    members: tuple[int, ...]
    stabilizer: tuple[int, ...]  # pic element indices, identity first


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[Orbit, ...]
    orbit_of: tuple[int, ...]  # weight index -> position in orbits


def orbit_decomposition(sub: Subgroup) -> OrbitDecomposition:
    """Partition P_+^k under the permutation action of H, with stabilizers."""
    pg = sub.picard
    n = len(pg.md)
    orbit_of = [-1] * n
    orbits: list[Orbit] = []
    for i in range(n):
        if orbit_of[i] >= 0:
            continue
        members = sorted({pg.act(g, i) for g in sub.members})
        rep = members[0]
        stab = tuple(g for g in sub.members if pg.act(g, rep) == rep)
        if len(members) * len(stab) != len(sub):
            raise WzwError("orbit-stabilizer mismatch (corrupt action)")
        pos = len(orbits)
        orbits.append(Orbit(rep, tuple(members), stab))
        for j in members:
            orbit_of[j] = pos
    return OrbitDecomposition(tuple(orbits), tuple(orbit_of))


@dataclass(frozen=True)
class EpsilonForm:
    """The alternating bicharacter eps_U on the stabilizer of an orbit."""

    stabilizer: tuple[int, ...]  # pic element indices
    values: tuple[tuple[int, ...], ...]  # over charge_den, local to the stabilizer tuple

    def radical_size(self) -> int:
        n = len(self.stabilizer)
        return sum(
            1 for a in range(n) if all(self.values[a][b] == 0 for b in range(n))
        )


def _stabilizer_is_cyclic(pg: PicardGroup, stab: tuple[int, ...]) -> bool:
    """A subgroup of an abelian group is cyclic iff one of its elements has order |stab|."""
    return any(pg.elements[g].order == len(stab) for g in stab)


def epsilon_form(
    orbit: Orbit, ksb: KSB, phi: Mapping[tuple[int, int, int], int] | None = None
) -> EpsilonForm:
    """eps_U(g, h) = phi_U(g, h) + Xi(h, g) on the stabilizer of the orbit.

    For a cyclic stabilizer an alternating bicharacter is identically zero,
    so the form is returned as such and phi is not consulted.  Otherwise phi
    must hold (U, g, h) for the orbit's representative U and every g, h in
    the stabilizer.  phi, Xi and eps are residues over charge_den.
    """
    sub = ksb.support
    stab = orbit.stabilizer
    n = len(stab)
    if _stabilizer_is_cyclic(sub.picard, stab):
        return EpsilonForm(stab, ((0,) * n,) * n)
    if phi is None:
        raise PhiUnavailable(
            f"stabilizer of orbit at weight {orbit.representative} is non-cyclic; "
            "a phi table from the twining module is required"
        )
    u = orbit.representative
    den = sub.picard.charge_den
    rows = []
    for g in stab:
        row = []
        for h in stab:
            if (u, g, h) not in phi:
                raise PhiUnavailable(f"phi table lacks entry (U={u}, g={g}, h={h})")
            xi = ksb.values[sub.members.index(h)][sub.members.index(g)]
            row.append((phi[u, g, h] + xi) % den)
        rows.append(tuple(row))
    form = EpsilonForm(stab, tuple(rows))
    for a in range(n):
        if form.values[a][a] != 0:
            raise WzwError(f"eps_U is not alternating at stabilizer element {stab[a]}")
    return form


@dataclass(frozen=True)
class BoundaryCount:
    total: int
    per_orbit: tuple[tuple[int, int], ...]  # (orbit representative, count)
    orbits: OrbitDecomposition
    forms: tuple[EpsilonForm, ...]  # eps_U per orbit, in the order of orbits


def count_boundary_conditions(
    algebra: SchellekensAlgebra,
    phi: Mapping[tuple[int, int, int], int] | None = None,
    dec: OrbitDecomposition | None = None,
) -> BoundaryCount:
    """Number of simple modules: sum over orbits of #Irr of the twisted
    stabilizer algebra, which for abelian stabilizers is |rad eps_U|.

    dec is the orbit decomposition of the algebra's support, computed here
    unless the caller passes the one it already has.
    """
    if dec is None:
        dec = orbit_decomposition(algebra.support)
    forms = tuple(epsilon_form(orbit, algebra.ksb, phi) for orbit in dec.orbits)
    per_orbit = tuple(
        (orbit.representative, eps.radical_size()) for orbit, eps in zip(dec.orbits, forms)
    )
    return BoundaryCount(
        total=sum(c for _, c in per_orbit),
        per_orbit=per_orbit,
        orbits=dec,
        forms=forms,
    )
