"""Orbits, stabilizers and boundary-condition counting for a fixed algebra.

Boundary conditions are labeled by an H-orbit of simple objects together with
an irreducible representation of the twisted group algebra of the stabilizer;
for abelian stabilizers the irrep count is the order of the radical of the
alternating form eps_U.  On a cyclic stabilizer eps_U is forced to vanish, so
the 6j-table phi is consulted only for non-cyclic stabilizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .affine import ModularData
from .errors import PhiUnavailable, WzwError
from .residues import mod1
from .schellekens import Subgroup

if TYPE_CHECKING:
    from .schellekens import KSB, SchellekensAlgebra
    from .twining import PhiTable


@dataclass(frozen=True)
class Orbit:
    representative: int
    members: tuple[int, ...]
    stabilizer: tuple[int, ...]  # pic element indices, identity first


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[Orbit, ...]
    orbit_of: tuple[int, ...]  # weight index -> position in orbits

    def __len__(self) -> int:
        return len(self.orbits)


def orbit_decomposition(md: ModularData, sub: Subgroup) -> OrbitDecomposition:
    """Partition P_+^k under the permutation action of H, with stabilizers."""
    pg = sub.picard
    n = len(md)
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
    values: tuple[tuple[Fraction, ...], ...]  # local to the stabilizer tuple

    def radical_size(self) -> int:
        n = len(self.stabilizer)
        return sum(
            1 for a in range(n) if all(self.values[a][b] == 0 for b in range(n))
        )


def _stabilizer_is_cyclic(sub: Subgroup, stab: tuple[int, ...]) -> bool:
    return len(Subgroup(sub.picard, stab).decomposition) <= 1


def epsilon_form(
    md: ModularData,
    orbit: Orbit,
    ksb: KSB,
    phi: PhiTable | None = None,
) -> EpsilonForm:
    """eps_U(g, h) = phi_U(g, h) + Xi(h, g) on the stabilizer of the orbit.

    For a cyclic stabilizer an alternating bicharacter is identically zero,
    so the form is returned as such and phi is not consulted.  Otherwise a
    phi table is required.
    """
    sub = ksb.support
    stab = orbit.stabilizer
    n = len(stab)
    if _stabilizer_is_cyclic(sub, stab):
        zero = mod1(Fraction(0))
        values = tuple(tuple(zero for _ in range(n)) for _ in range(n))
        return EpsilonForm(stab, values)
    if phi is None:
        raise PhiUnavailable(
            f"stabilizer of orbit at weight {orbit.representative} is non-cyclic; "
            "a phi table from the twining module is required"
        )
    u = orbit.representative
    rows = []
    for g in stab:
        row = []
        for h in stab:
            if not phi.has(u, g, h):
                raise PhiUnavailable(f"phi table lacks entry (U={u}, g={g}, h={h})")
            row.append(mod1(phi.value(u, g, h) + ksb.value(sub.local(h), sub.local(g))))
        rows.append(tuple(row))
    form = EpsilonForm(stab, tuple(rows))
    for a in range(n):
        if form.values[a][a] != 0:
            raise WzwError(f"eps_U is not alternating at stabilizer element {stab[a]}")
    return form


@dataclass(frozen=True)
class BoundaryLabel:
    orbit_representative: int
    irrep_index: int


@dataclass(frozen=True)
class BoundaryCount:
    total: int
    per_orbit: tuple[tuple[int, int], ...]  # (orbit representative, count)
    labels: tuple[BoundaryLabel, ...]
    orbits: OrbitDecomposition
    forms: tuple[EpsilonForm, ...]  # eps_U per orbit, in the order of orbits


def count_boundary_conditions(
    md: ModularData,
    algebra: SchellekensAlgebra,
    phi: PhiTable | None = None,
    dec: OrbitDecomposition | None = None,
) -> BoundaryCount:
    """Number of simple modules: sum over orbits of #Irr of the twisted
    stabilizer algebra, which for abelian stabilizers is |rad eps_U|.

    dec is the orbit decomposition of the algebra's support, computed here
    unless the caller passes the one it already has.
    """
    if dec is None:
        dec = orbit_decomposition(md, algebra.support)
    forms = tuple(epsilon_form(md, orbit, algebra.ksb, phi) for orbit in dec.orbits)
    per_orbit = []
    labels = []
    for orbit, eps in zip(dec.orbits, forms):
        count = eps.radical_size()
        per_orbit.append((orbit.representative, count))
        labels.extend(BoundaryLabel(orbit.representative, r) for r in range(count))
    return BoundaryCount(
        total=sum(c for _, c in per_orbit),
        per_orbit=tuple(per_orbit),
        labels=tuple(labels),
        orbits=dec,
        forms=forms,
    )
