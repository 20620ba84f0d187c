"""The fusion ring of algebra bimodules, its Picard group, and
Kramers-Wannier duality detection.

For a support group H acting freely on the simple objects, the bimodule
classes are pairs (object, character of H) modulo the relation
(h.i, psi) ~ (i, psi + Xi(., h)); products are inherited from the fusion
tensor with characters adding.  When fixed points are present the free-action
construction does not apply and the builder refuses; the pointed ring
(restricted to invertible objects, where the action is always free) is the
fallback.  The simple objects, their fusion and conjugation are read from the
algebra's Picard group, so a ring cannot mix one category's data with
another's algebra.  The invertible classes are found as the simple currents
are, by `picard.unit_group`, with the classes over simple currents as the
cheap prefilter.

The structure constants are filled with integer-coded characters: each
character of H is coded once on the grid of the Picard group's
`charge_den`, character addition becomes an integer table, and the table
`canon` of the class of (object, character) after the H-shift is the one map
from pairs to basis positions, so every fusion coefficient lands by one
np.add.at.  A class keeps its character as those integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

import numpy as np

from . import groups
from .errors import DualityValidationFailure, FixedPointsPresent, WzwError
from .picard import unit_group
from .schellekens import _xi_residues

if TYPE_CHECKING:
    from .schellekens import SchellekensAlgebra

Character = tuple[int, ...]  # residues * charge_den on the support members, in order


@dataclass(frozen=True)
class BimoduleClass:
    object_index: int
    character: Character


@dataclass(frozen=True, eq=False)
class BimoduleRing:
    """Fusion ring of bimodule classes with non-negative integer structure."""

    algebra: SchellekensAlgebra
    basis: tuple[BimoduleClass, ...]
    structure: np.ndarray
    unit: int
    dual: np.ndarray  # [x]: position of the dual class, (i_bar, -psi) for (i, psi)

    def __len__(self) -> int:
        return len(self.basis)

    def invertible_positions(self) -> tuple[int, ...]:
        """The invertible classes, unit first: rows of the structure that are
        permutation matrices, among the classes over simple currents."""
        pic_objects = {el.object_index for el in self.algebra.picard.elements}
        over = [x for x, cls in enumerate(self.basis) if cls.object_index in pic_objects]
        return unit_group(self.structure, self.unit, over)[0]


def _build_ring(algebra: SchellekensAlgebra, objects: list[int]) -> BimoduleRing:
    sub = algebra.support
    pg = algebra.picard
    md = pg.md
    den = pg.charge_den
    objs = np.array(objects, dtype=np.intp)

    # orbits of H on the chosen object set; the action must be free
    act = np.array([pg.elements[g].action for g in sub.members], dtype=np.intp)  # [h, i]
    moved = act[:, objs]  # [h, k]: g_h . objs[k]
    fixed = sorted(set(objs[(moved[1:] == objs).any(axis=0)].tolist()))
    if fixed:
        raise FixedPointsPresent([md.weights[i] for i in fixed])
    if not np.isin(moved, objs).all():
        raise WzwError("object set is not closed under the H-action")
    xi = _xi_residues(algebra.ksb)  # [a, h]: Xi(g_a, g_h)
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
    expected = len(objects) * nchar // len(sub)
    if len(basis) != expected:
        raise WzwError(f"rank {len(basis)} != |I||H*|/|H| = {expected}")

    # canon[k, c]: basis position of the class of (object k, chars[c]); -1
    # where k is outside the object set
    canon = np.full((len(md), nchar), -1, dtype=np.intp)
    canon[objs] = np.searchsorted(reps, rep)[:, None] * nchar + rank[add[:, shift].T]
    fusion = md.fusion[np.ix_(reps, reps)]  # [p, q, k]: basis objects fused
    nz = np.argwhere(fusion)
    if (canon[nz[:, 2], 0] < 0).any():
        raise WzwError("fusion leaves the object set")
    p, q, k = nz.T
    a, b = np.arange(nchar)[:, None], np.arange(nchar)[None, :]
    x = p[:, None, None] * nchar + rank[a]
    y = q[:, None, None] * nchar + rank[b]
    z = canon[k[:, None, None], add[a, b]]
    mult = np.broadcast_to(fusion[p, q, k][:, None, None], z.shape)
    n = len(basis)
    structure = np.zeros((n, n, n), dtype=np.int64)
    np.add.at(structure, (x, y, z), mult)
    dual = np.empty(n, dtype=np.intp)
    dual[np.arange(len(reps))[:, None] * nchar + rank] = canon[
        np.asarray(md.conjugation)[reps][:, None], code(-digits)
    ]
    structure.flags.writeable = False
    dual.flags.writeable = False
    return BimoduleRing(
        algebra=algebra,
        basis=basis,
        structure=structure,
        unit=int(canon[md.vacuum, 0]),
        dual=dual,
    )


def build_bimodule_ring(algebra: SchellekensAlgebra) -> BimoduleRing:
    """The full bimodule fusion ring; requires H to act freely on P_+^k."""
    objects = list(range(len(algebra.picard.md)))
    return _build_ring(algebra, objects)


def build_pointed_bimodule_ring(algebra: SchellekensAlgebra) -> BimoduleRing:
    """The bimodule ring restricted to invertible objects (always free)."""
    objects = sorted(el.object_index for el in algebra.picard.elements)
    return _build_ring(algebra, objects)


@dataclass(frozen=True)
class BimodulePicard:
    """Invertible bimodule classes: the internal-symmetry group of the CFT."""

    elements: tuple[BimoduleClass, ...]
    positions: tuple[int, ...]  # positions in the ring basis
    table: groups.Table
    invariant_factors: tuple[int, ...]
    iso_class_name: str

    def __len__(self) -> int:
        return len(self.elements)


def bimodule_picard(ring: BimoduleRing) -> BimodulePicard:
    """The group of invertible classes, realizing H* x_H Pic(C)."""
    # the confirmed positions again, now for their group table
    positions, _, table = unit_group(ring.structure, ring.unit, ring.invertible_positions())
    if groups.is_abelian(table):
        factors = groups.invariant_factors(table)
        name = groups.group_name(factors)
    else:
        factors = ()
        name = f"nonabelian-order-{len(positions)}"
    return BimodulePicard(
        elements=tuple(ring.basis[x] for x in positions),
        positions=positions,
        table=table,
        invariant_factors=factors,
        iso_class_name=name,
    )


def kramers_wannier_candidates(ring: BimoduleRing) -> list[BimoduleClass]:
    """Non-invertible classes b with b (x) b_dual supported on invertibles.

    The dual of (i, psi) is (i_bar, -psi); the pairing is validated by the
    unit appearing with multiplicity exactly one.
    """
    invertible = set(ring.invertible_positions())
    out = []
    for x, cls in enumerate(ring.basis):
        if x in invertible:
            continue
        row = ring.structure[x, ring.dual[x]]
        if row[ring.unit] != 1:
            raise DualityValidationFailure(
                f"unit multiplicity {row[ring.unit]} in b (x) b_dual for basis element {x}"
            )
        if all(int(k) in invertible for k in np.nonzero(row)[0]):
            out.append(cls)
    return out
