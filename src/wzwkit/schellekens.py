"""Classification of haploid algebras supported on simple currents.

An algebra is the pair (H, Xi): a subgroup H of the Picard group together with
a bicharacter Xi on H whose diagonal equals the twist residues.  The bulk
partition matrix is evaluated in exact residue arithmetic: the inner character
sum collapses to |H| or 0, so every entry is an integer by construction.
There the monodromy charges of the Picard group's table and the values of Xi
are integer residues over one common denominator, so the bihomomorphism
check and the character sums are integer array arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from . import groups
from .affine import ModularData
from .config import Config, DEFAULT_CONFIG
from .errors import InvarianceViolation, NegativeEntry, NonIntegerEntry
from .picard import PicardGroup
from .residues import mod1, numerators


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

    def local(self, pic_index: int) -> int:
        return self.members.index(pic_index)

    def twist(self, local: int) -> Fraction:
        return self.picard.twists[self.members[local]]


def enumerate_subgroups(pg: PicardGroup) -> list[Subgroup]:
    """All subgroups of Pic(C), sorted by (order, members)."""
    return [Subgroup(pg, members) for members in groups.subgroups(pg.table)]


@dataclass(frozen=True)
class KSB:
    """A bicharacter on H with diagonal values equal to the twist residues.

    values[a][b] is the residue of Xi(g_a, g_b) for local indices into
    support.members.
    """

    support: Subgroup
    values: tuple[tuple[Fraction, ...], ...]

    def value(self, a: int, b: int) -> Fraction:
        return self.values[a][b]

    def transpose(self) -> "KSB":
        n = len(self.support)
        return KSB(self.support, tuple(tuple(self.values[b][a] for b in range(n)) for a in range(n)))


def _is_bihomomorphism(table: np.ndarray, xi: np.ndarray, den: int) -> bool:
    """Xi additive in both arguments, for residues xi / den on the local table."""
    left = xi[table] - xi[:, None, :] - xi[None, :, :]  # [a, b, c]: Xi(ab, c) - Xi(a, c) - Xi(b, c)
    right = xi[:, table] - xi[:, :, None] - xi[:, None, :]  # [c, a, b]: Xi(c, ab) - Xi(c, a) - ...
    return not ((left % den).any() or (right % den).any())


def enumerate_ksbs(support: Subgroup, twists: tuple[Fraction, ...] | None = None) -> list[KSB]:
    """All bicharacters on H with Xi(g, g) = h_g mod 1 for every g in H.

    Brute force over generator-pair values consistent with element orders;
    the diagonal condition is checked on all elements, not only generators.
    An empty list is a valid outcome (no algebra with this support).
    """
    n = len(support)
    if twists is None:
        twists = tuple(support.twist(a) for a in range(n))
    if n == 1:
        return [KSB(support, ((mod1(0),),))]
    decomp = support.decomposition
    gens = [g for g, _ in decomp]
    orders = [o for _, o in decomp]
    exps = support.exponents
    t = len(gens)

    # generator diagonal values are forced by the twist; they must be
    # compatible with the generator order, otherwise no KSB exists at all
    forced_diag = []
    for g, o in decomp:
        tw = twists[g]
        if mod1(o * tw) != 0:
            return []
        forced_diag.append(tw)

    off_pairs = [(a, b) for a in range(t) for b in range(t) if a != b]
    choice_sets = [
        [Fraction(m, gcd(orders[a], orders[b])) for m in range(gcd(orders[a], orders[b]))]
        for a, b in off_pairs
    ]
    out = []
    for combo in itertools.product(*choice_sets):
        gen_values = [[Fraction(0)] * t for _ in range(t)]
        for a in range(t):
            gen_values[a][a] = forced_diag[a]
        for (a, b), v in zip(off_pairs, combo):
            gen_values[a][b] = v
        values = tuple(
            tuple(
                mod1(
                    sum(
                        (
                            exps[x][a] * exps[y][b] * gen_values[a][b]
                            for a in range(t)
                            for b in range(t)
                        ),
                        Fraction(0),
                    )
                )
                for y in range(n)
            )
            for x in range(n)
        )
        if all(values[a][a] == mod1(twists[a]) for a in range(n)):
            out.append(KSB(support, values))
    out.sort(key=lambda k: k.values)
    return out


@dataclass(frozen=True)
class SchellekensAlgebra:
    """The isomorphism-class datum (support H, bicharacter Xi)."""

    support: Subgroup
    ksb: KSB

    @property
    def picard(self) -> PicardGroup:
        return self.support.picard


def partition_function(algebra: SchellekensAlgebra) -> np.ndarray:
    """Z_ij = (1/|H|) sum_{g,h in H} theta_i(h) Xi(h, g) [j_bar = g.i], exactly.

    The h-sum is a character sum: for fixed i and g the map
    h -> Q_i(h) + Xi(h, g) is additive, so the sum is |H| when the residue
    vanishes for every h and 0 otherwise.  The charges Q come from the Picard
    group's table, whose rows are checked to be characters when it is built;
    Xi is validated here, so an invalid Xi cannot slip through silently.
    Z is returned as a read-only int64 array over the objects of algebra.picard.md.
    """
    sub = algebra.support
    pg = algebra.picard
    members = list(sub.members)
    ksb_values = algebra.ksb.values
    den = lcm(pg.charge_den, *(v.denominator for row in ksb_values for v in row))
    xi = numerators(ksb_values, den)  # [b, a]: Xi(g_b, g_a)
    table = np.array(sub.local_table, dtype=np.intp)
    if not _is_bihomomorphism(table, xi, den):
        raise NonIntegerEntry("Xi is not a bihomomorphism on H x H")
    q = pg.charges[:, members] * (den // pg.charge_den)  # [i, a]: Q_i(g_a)
    trivial = ((q[:, :, None] + xi) % den == 0).all(axis=1)  # [i, a]
    i, a = np.nonzero(trivial)
    act = np.array([pg.elements[g].action for g in members], dtype=np.intp)  # [a, i]
    n = len(pg.md)
    z = np.zeros((n, n), dtype=np.int64)
    np.add.at(z, (i, np.asarray(pg.md.conjugation)[act[a, i]]), 1)
    if (z < 0).any():
        raise NegativeEntry("negative partition entry")
    z.flags.writeable = False
    return z


def verify_modular_invariance(
    md: ModularData, z: np.ndarray, config: Config = DEFAULT_CONFIG
) -> float:
    """Check [S, Z] within tolerance, TZ = ZT exactly, Z00 = 1, entries >= 0.

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
    if norm > config.tolerance:
        raise InvarianceViolation(f"commutator norm {norm:.3e} exceeds tolerance")
    return norm


@dataclass(frozen=True)
class ClassifiedAlgebra:
    algebra: SchellekensAlgebra
    # Z, read-only int64 (n, n); determined by the algebra, so left out of ==
    partition: np.ndarray = field(compare=False)


def classify_algebras(pg: PicardGroup) -> list[ClassifiedAlgebra]:
    """Every (H, Xi) pair with its partition matrix, subgroups in canonical order."""
    out = []
    for sub in enumerate_subgroups(pg):
        for ksb in enumerate_ksbs(sub):
            algebra = SchellekensAlgebra(sub, ksb)
            out.append(ClassifiedAlgebra(algebra, partition_function(algebra)))
    return out
