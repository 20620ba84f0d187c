"""The fusion ring of algebra bimodules, its Picard group, and
Kramers-Wannier duality detection.

For a support group H acting freely on the simple objects, the bimodule
classes are pairs (object, character of H) modulo the relation
(h.i, psi) ~ (i, psi + Xi(., h)); products are inherited from the fusion
tensor with characters adding.  When fixed points are present the free-action
construction does not apply and the builder refuses; the pointed ring
(restricted to invertible objects, where the action is always free) is the
fallback.  The simple objects and their fusion are read from the algebra's
Picard group, so a ring cannot mix one category's data with another's
algebra.  A ring is its basis and its table, and the rest is read from the
table once per ring: the invertible classes as the simple currents are, by
`picard.unit_group` counting the rows of each class (`units`), and the duals
from the unit rows (x, x_bar, 0, 1) (`dual`).  Xi is read as its algebra
holds it, checked when the algebra was made.

The structure constants are filled with integer-coded characters: each
character of H is coded once on the grid of the Picard group's
`charge_den`, character addition becomes an integer table, and the table
`canon` of the class of (object, character) after the H-shift is the one map
from pairs to basis positions.  A class keeps its character as those
integers.  Like the fusion rules, the structure is held as the sorted (m, 4)
int64 table of its nonzero (x, y, z, N_xy^z): the ring is built from the
quadruples of the fusion table whose i and j are orbit representatives, each
giving one key (x, y, z) per pair of characters, and equal keys are summed
into one row.  No rank^3 array is made: `unit_group` reads the units'
action from the table's columns, and the duality test reads every
b (x) b_dual from the table in one pass.  The construction makes a fusion
ring, so each x x_bar holds the unit once and no other product holds it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import TYPE_CHECKING

import numpy as np

from . import groups
from .errors import FixedPointsPresent
from .picard import unit_group

if TYPE_CHECKING:
    from .schellekens import SchellekensAlgebra

Character = tuple[int, ...]  # residues * charge_den on the support members, in order


@dataclass(frozen=True)
class BimoduleClass:
    object_index: int
    character: Character


@dataclass(frozen=True, eq=False)
class BimoduleRing:
    """Fusion ring of bimodule classes with non-negative integer structure,
    held as the read-only (m, 4) int64 table of the nonzero (x, y, z, N_xy^z)
    sorted by (x, y, z).  The basis lists orbits by least object, then characters
    by value, so the unit (the vacuum with the trivial character) is class 0."""

    basis: tuple[BimoduleClass, ...]
    structure: np.ndarray

    def __len__(self) -> int:
        return len(self.basis)

    @cached_property
    def dual(self) -> np.ndarray:
        """[x], read-only: the position of x's dual, (i_bar, -psi) for
        (i, psi), read from the unit rows (x, x_bar, 0, 1), one per x in order."""
        dual = self.structure[self.structure[:, 2] == 0, 1]
        dual.flags.writeable = False
        return dual

    @cached_property
    def units(self) -> tuple[tuple[int, ...], groups.Table]:
        """The positions of the invertible classes, unit first, and their
        group table, as `unit_group` reads them from the structure."""
        positions, _, table = unit_group(self.structure, len(self))
        return positions, table


def _build_ring(algebra: SchellekensAlgebra, pointed: bool) -> BimoduleRing:
    """The ring over every object, or over the simple currents if `pointed`.
    Both sets are closed under H and under fusion."""
    sub = algebra.support
    pg = algebra.picard
    md = pg.md
    den = pg.charge_den
    objs = np.array(sorted(pg.objects) if pointed else range(len(md)), dtype=np.intp)

    # orbits of H on the object set; the action must be free
    fixed = {i for h in sub.members[1:] for i in pg.fixed_points[h]}.intersection(objs.tolist())
    if fixed:
        raise FixedPointsPresent([md.weights[i] for i in sorted(fixed)])
    act = pg.action[list(sub.members)]  # [h, i]
    moved = act[:, objs]  # [h, k]: g_h . objs[k]
    xi = np.array(algebra.xi)  # [a, h]: Xi(g_a, g_h)
    rep = moved.min(axis=0)  # [k]: the least object of the orbit of objs[k]
    reps = np.array(sorted(set(rep.tolist())), dtype=np.intp)  # not np.unique: it loads numpy.ma
    shift_by = (act[:, rep] == objs).argmax(axis=0)  # [k]: the h with g_h . rep = objs[k]

    # character code c: the digits of c in itertools.product order are its
    # values m_j / o_j on the generators; chars[c] are its values on the members
    gens = [g for g, _ in sub.decomposition]
    orders = np.array([o for _, o in sub.decomposition], dtype=np.int64)
    radix = np.array([prod(orders[j + 1:].tolist()) for j in range(len(gens))], dtype=np.int64)
    digits = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
    nchar = len(digits)
    exps = np.array([sub.exponents[a] for a in range(len(sub))], dtype=np.int64)
    chars = digits * (den // orders) @ exps.T % den  # [c, a]

    def code(m: np.ndarray) -> np.ndarray:
        return m % orders @ radix

    by_value = np.lexsort(chars.T[::-1])  # the codes in the order of their values
    rank = np.argsort(by_value)  # [c]: the position of chars[c] in that order
    add = code(digits[:, None] + digits)  # [c, d]: chars[c] + chars[d]
    shift = code(xi[gens][:, shift_by].T * orders // den)  # [k]: Xi(., h) for that h
    characters = list(map(tuple, chars[by_value].tolist()))
    basis = tuple(BimoduleClass(r, ch) for r in reps.tolist() for ch in characters)

    # canon[k, c]: basis position of the class of (object k, chars[c]); -1
    # where k is outside the object set
    canon = np.full((len(md), nchar), -1, dtype=np.intp)
    canon[objs] = np.searchsorted(reps, rep)[:, None] * nchar + rank[add[:, shift].T]
    at = np.full(len(md), -1, dtype=np.intp)  # [i]: the position of i among reps, or -1
    at[reps] = np.arange(len(reps))
    quads = md.fusion[(at[md.fusion[:, 0]] >= 0) & (at[md.fusion[:, 1]] >= 0)]
    a, b = np.arange(nchar)[:, None], np.arange(nchar)[None, :]
    n = len(basis)
    # key (x n + y) n + z of each product of basis classes x y landing in class z
    key = (at[quads[:, 0], None, None] * nchar + rank[a]) * n + (
        at[quads[:, 1], None, None] * nchar + rank[b])
    key = (key * n + canon[quads[:, 2, None, None], add[a, b]]).ravel()
    mult = np.broadcast_to(quads[:, 3, None, None], (len(quads), nchar, nchar)).ravel()
    del quads
    order = np.argsort(key)
    key, mult = key[order], mult[order]
    del order
    first = np.flatnonzero(np.diff(key, prepend=-1))  # where each distinct key begins
    coef = np.add.reduceat(mult, first)
    key = key[first]
    structure = np.column_stack((key // (n * n), key // n % n, key % n, coef))
    structure.flags.writeable = False
    return BimoduleRing(basis, structure)


def build_bimodule_ring(algebra: SchellekensAlgebra) -> BimoduleRing:
    """The full bimodule fusion ring; requires H to act freely on P_+^k."""
    return _build_ring(algebra, pointed=False)


def build_pointed_bimodule_ring(algebra: SchellekensAlgebra) -> BimoduleRing:
    """The bimodule ring restricted to invertible objects (always free)."""
    return _build_ring(algebra, pointed=True)


@dataclass(frozen=True)
class BimodulePicard:
    """The group of invertible bimodule classes, the internal-symmetry group of
    the CFT, by its invariant factors; the classes are `ring.units`."""

    invariant_factors: tuple[int, ...]

    def __len__(self) -> int:
        return prod(self.invariant_factors)

    @property
    def iso_class_name(self) -> str:
        return groups.group_name(self.invariant_factors)


def bimodule_picard(ring: BimoduleRing) -> BimodulePicard:
    """The group of invertible classes, realizing H* x_H Pic(C)."""
    # abelian: every ring's table is symmetric
    return BimodulePicard(groups.invariant_factors(ring.units[1]))


def kramers_wannier_candidates(ring: BimoduleRing) -> list[BimoduleClass]:
    """Non-invertible classes b with b (x) b_dual supported on invertibles.

    The dual of (i, psi) is (i_bar, -psi), the class that pairs with b to the
    unit.  Every b (x) b_dual is read at once, as the rows (b, b_dual, z, N)
    of the table.
    """
    n = len(ring)
    x, z = ring.structure[:, 0], ring.structure[:, 2]
    invertible = np.zeros(n, dtype=bool)
    invertible[list(ring.units[0])] = True
    own = (ring.structure[:, 1] == ring.dual[x]) & ~invertible[x]  # the rows of b (x) b_dual
    leaves = np.zeros(n, dtype=bool)  # [b]: b (x) b_dual holds a non-invertible class
    leaves[x[own & ~invertible[z]]] = True
    return [ring.basis[b] for b in np.flatnonzero(~invertible & ~leaves).tolist()]
