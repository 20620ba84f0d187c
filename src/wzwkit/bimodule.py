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
another's algebra.

The structure constants are filled with integer-coded characters: each
character of H is numbered once, character addition becomes an integer
table, and the class of (object, character) after the H-shift becomes an
integer lookup, so every fusion coefficient lands by one np.add.at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import groups
from .errors import DualityValidationFailure, FixedPointsPresent, WzwError
from .residues import mod1

if TYPE_CHECKING:
    from .boundary import OrbitDecomposition
    from .schellekens import SchellekensAlgebra

Character = tuple[Fraction, ...]  # residue values on the support members, in order


def _char_add(a: Character, b: Character) -> Character:
    return tuple(mod1(x + y) for x, y in zip(a, b))


def _char_neg(a: Character) -> Character:
    return tuple(mod1(-x) for x in a)


def _all_characters(algebra: SchellekensAlgebra) -> list[Character]:
    """Every character of H as its value tuple on the member list."""
    sub = algebra.support
    decomp = sub.decomposition
    orders = [o for _, o in decomp]
    exps = sub.exponents
    n = len(sub)
    chars = []
    for gen_values in groups.characters(orders):
        chars.append(
            tuple(
                mod1(sum((exps[a][i] * gen_values[i] for i in range(len(orders))), Fraction(0)))
                for a in range(n)
            )
        )
    return sorted(set(chars))


def _ksb_character(algebra: SchellekensAlgebra, h_local: int) -> Character:
    """The character Xi(., h) used to over-parametrize the classes."""
    ksb = algebra.ksb
    return tuple(ksb.value(a, h_local) for a in range(len(algebra.support)))


@dataclass(frozen=True)
class BimoduleClass:
    object_index: int
    character: Character


@dataclass(frozen=True, eq=False)
class BimoduleRing:
    """Fusion ring of bimodule classes with non-negative integer structure."""

    algebra: SchellekensAlgebra
    objects: tuple[int, ...]
    basis: tuple[BimoduleClass, ...]
    structure: np.ndarray
    unit: int
    pointed: bool
    _index: dict[BimoduleClass, int]
    _orbit_rep: dict[int, int]
    _shift: dict[int, Character]

    def __len__(self) -> int:
        return len(self.basis)

    def canonical_class(self, object_index: int, character: Character) -> BimoduleClass:
        rep = self._orbit_rep[object_index]
        return BimoduleClass(rep, _char_add(character, self._shift[object_index]))

    def canonical_index(self, object_index: int, character: Character) -> int:
        return self._index[self.canonical_class(object_index, character)]

    def invertible_positions(self) -> tuple[int, ...]:
        pic_objects = {el.object_index for el in self.algebra.picard.elements}
        return tuple(x for x, cls in enumerate(self.basis) if cls.object_index in pic_objects)


def _build_ring(
    algebra: SchellekensAlgebra,
    objects: list[int],
    pointed: bool,
    representative_choice: dict[int, int] | None = None,
) -> BimoduleRing:
    sub = algebra.support
    pg = algebra.picard
    md = pg.md
    members = sub.members
    obj_set = set(objects)

    # orbits of H on the chosen object set; the action must be free
    orbit_rep: dict[int, int] = {}
    shift: dict[int, Character] = {}
    fixed = sorted(
        i for i in objects for g in members[1:] if pg.act(g, i) == i
    )
    if fixed:
        raise FixedPointsPresent([md.weights[i] for i in sorted(set(fixed))])
    for i in objects:
        if i in orbit_rep:
            continue
        orbit = sorted(pg.act(g, i) for g in members)
        if any(j not in obj_set for j in orbit):
            raise WzwError("object set is not closed under the H-action")
        rep = orbit[0]
        if representative_choice is not None:
            rep = representative_choice.get(orbit[0], orbit[0])
            if rep not in orbit:
                raise ValueError(f"representative {rep} is not in orbit {orbit}")
        for g in members:
            j = pg.act(g, rep)
            orbit_rep[j] = rep
            shift[j] = _ksb_character(algebra, sub.local(g))

    chars = _all_characters(algebra)
    reps = sorted(set(orbit_rep.values()))
    basis = []
    for rep in reps:
        for ch in chars:
            basis.append(BimoduleClass(rep, ch))
    basis_t = tuple(sorted(basis, key=lambda c: (c.object_index, c.character)))
    index = {cls: x for x, cls in enumerate(basis_t)}
    expected = len(objects) * len(chars) // len(members)
    if len(basis_t) != expected:
        raise WzwError(f"rank {len(basis_t)} != |I||H*|/|H| = {expected}")

    def canonical(obj: int, ch: Character) -> int:
        return index[BimoduleClass(orbit_rep[obj], _char_add(ch, shift[obj]))]

    trivial = tuple(mod1(Fraction(0)) for _ in members)
    # characters coded by their position in `chars`: add[a, b] is chars[a] + chars[b]
    char_pos = {ch: a for a, ch in enumerate(chars)}
    nchar = len(chars)
    add = np.array([[char_pos[_char_add(ca, cb)] for cb in chars] for ca in chars], dtype=np.intp)
    # canon[k, a]: basis index of the class of (object k, chars[a]); -1 where
    # k is outside the object set or its shift is not a character of H
    canon = np.full((len(md), nchar), -1, dtype=np.intp)
    rep_pos = {rep: p for p, rep in enumerate(reps)}
    for k in objects:
        sh = char_pos.get(_char_add(trivial, shift[k]))
        if sh is not None:
            canon[k] = rep_pos[orbit_rep[k]] * nchar + add[:, sh]
    fusion = md.fusion[np.ix_(reps, reps)]  # [p, q, k]: basis objects fused
    nz = np.argwhere(fusion)
    unplaced = nz[canon[nz[:, 2], 0] < 0]
    if len(unplaced):
        # raise what a per-entry scan over the basis meets first: the first
        # (p, q, k) in C order, with both factors at character chars[0]
        k = int(unplaced[0, 2])
        if k not in obj_set:
            raise WzwError("fusion leaves the object set")
        canonical(k, _char_add(chars[0], chars[0]))  # KeyError: the shift is no character
    p, q, k = nz.T
    a, b = np.arange(nchar)[:, None], np.arange(nchar)[None, :]
    x = p[:, None, None] * nchar + a
    y = q[:, None, None] * nchar + b
    z = canon[k[:, None, None], add[a, b]]
    mult = np.broadcast_to(fusion[p, q, k][:, None, None], z.shape)
    n = len(basis_t)
    structure = np.zeros((n, n, n), dtype=np.int64)
    np.add.at(structure, (x, y, z), mult)
    unit = canonical(md.vacuum, trivial)
    ring = BimoduleRing(
        algebra=algebra,
        objects=tuple(sorted(objects)),
        basis=basis_t,
        structure=structure,
        unit=unit,
        pointed=pointed,
        _index=index,
        _orbit_rep=orbit_rep,
        _shift=shift,
    )
    structure.flags.writeable = False
    return ring


def build_bimodule_ring(
    algebra: SchellekensAlgebra,
    representative_choice: dict[int, int] | None = None,
) -> BimoduleRing:
    """The full bimodule fusion ring; requires H to act freely on P_+^k."""
    objects = list(range(len(algebra.picard.md)))
    return _build_ring(algebra, objects, False, representative_choice)


def build_pointed_bimodule_ring(
    algebra: SchellekensAlgebra,
    representative_choice: dict[int, int] | None = None,
) -> BimoduleRing:
    """The bimodule ring restricted to invertible objects (always free)."""
    objects = sorted(el.object_index for el in algebra.picard.elements)
    return _build_ring(algebra, objects, True, representative_choice)


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
    positions = ring.invertible_positions()
    if ring.unit not in positions:
        raise WzwError("unit class is not invertible (corrupt ring)")
    order = [ring.unit] + [x for x in positions if x != ring.unit]
    pos_index = {x: a for a, x in enumerate(order)}
    table_rows = []
    for x in order:
        row = []
        for y in order:
            prods = np.nonzero(ring.structure[x, y])[0]
            if len(prods) != 1 or ring.structure[x, y, prods[0]] != 1:
                raise WzwError("product of invertible classes is not a single class")
            z = int(prods[0])
            if z not in pos_index:
                raise WzwError("invertible classes are not closed under the product")
            row.append(pos_index[z])
        table_rows.append(tuple(row))
    table = tuple(table_rows)
    for a in range(len(order)):
        if 0 not in table[a]:
            raise WzwError(f"invertible class {a} has no inverse")
    if groups.is_abelian(table):
        factors = groups.invariant_factors(table)
        name = groups.group_name(factors)
    else:
        factors = ()
        name = f"nonabelian-order-{len(order)}"
    return BimodulePicard(
        elements=tuple(ring.basis[x] for x in order),
        positions=tuple(order),
        table=table,
        invariant_factors=factors,
        iso_class_name=name,
    )


def act_on_boundaries(
    ring: BimoduleRing, position: int, orbits: OrbitDecomposition
) -> tuple[int, ...]:
    """Permutation of boundary orbits induced by an invertible class.

    The class (g, psi) sends the orbit of i to the orbit of g.i; the character
    part acts trivially at the label level.
    """
    cls = ring.basis[position]
    pg = ring.algebra.picard
    try:
        a = pg.index_of_object(cls.object_index)
    except KeyError:
        raise ValueError("only invertible classes act by permutations on boundaries")
    out = []
    for orbit in orbits.orbits:
        out.append(orbits.orbit_of[pg.act(a, orbit.representative)])
    if sorted(out) != list(range(len(orbits))):
        raise WzwError("boundary action is not a permutation")
    return tuple(out)


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
        dual = ring.canonical_index(
            ring.algebra.picard.md.conjugation[cls.object_index], _char_neg(cls.character)
        )
        row = ring.structure[x, dual]
        if row[ring.unit] != 1:
            raise DualityValidationFailure(
                f"unit multiplicity {row[ring.unit]} in b (x) b_dual for basis element {x}"
            )
        if all(int(k) in invertible for k in np.nonzero(row)[0]):
            out.append(cls)
    return out
