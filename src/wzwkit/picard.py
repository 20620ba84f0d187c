"""Invertible objects of C(g, k): detection, charges, quadratic form,
and the matching diagram automorphisms of the affine Dynkin diagram.

Simple currents are detected exactly, by `unit_group`, which finds the
invertible basis elements of any fusion ring by counting rows of its
quadruple table: x is invertible exactly when its block holds n rows, one
per j.  The bimodule ring's Picard group is found by it too.  The Picard
group keeps the action as `unit_group` returns it, one read-only array
`action[a, i]` = g_a . i, which every later layer indexes directly, and
the objects each current fixes as `fixed_points[a]`, read from it once.  All
charges and twists are exact residues in Q/Z, held from the start as
read-only int64 arrays over `charge_den`, the common denominator of the
conformal weights, so a twist off that grid cannot be represented.  The
group exponent is checked to divide it, so every residue built from the
group later on (bicharacter values, characters of subgroups, the 6j-scalars
phi) lies on the same grid.

The diagram automorphism of a current is read from that action too: it is
the one automorphism of the affine Cartan matrix whose relabelling of the
affine Dynkin labels moves every weight to its image under the current, so
no table per series is kept and no current is handled by a rule of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING

import numpy as np

from . import groups
from .affine import ModularData, RootSystem, affine_labels
from .errors import NonIntegerEntry, QuadraticFormViolation, UnsupportedSeries
from .residues import numerators

if TYPE_CHECKING:
    from .schellekens import SchellekensAlgebra
    from .twining import PhiRows


@dataclass(frozen=True)
class PicardGroup:
    """The group of simple currents, identity first, with exact twist data.

    Current g_a is the object objects[a] of order orders[a]; action[a, i] is
    the object g_a . i, as a read-only int64 array.  twists [a]: h_{g_a} *
    charge_den and charges [i, a]: Q_i(g_a) * charge_den are read-only int64
    in [0, charge_den).  fixed_points[a] holds the objects g_a fixes.  A group
    is a hashable value, equal to a group of the same datum md (compared by
    identity) with the same currents; the arrays and charge_den are
    determined by md and objects, so left out of ==.  It holds what is
    derived from it once: its `algebras` and its phi engine `phi_rows`.
    """

    md: ModularData
    objects: tuple[int, ...]
    orders: tuple[int, ...]
    table: groups.Table
    invariant_factors: tuple[int, ...]
    action: np.ndarray = field(compare=False)
    twists: np.ndarray = field(compare=False)
    charges: np.ndarray = field(compare=False)
    charge_den: int = field(compare=False)

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    @cached_property
    def fixed_points(self) -> tuple[tuple[int, ...], ...]:
        """[a]: the objects i with g_a . i = i, ascending, read by one
        compare over the action and held once for every reader."""
        fixed = self.action == np.arange(self.action.shape[1])
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in fixed)

    @cached_property
    def algebras(self) -> tuple[SchellekensAlgebra, ...]:
        """Every algebra on a subgroup, by `schellekens.classify_algebras`."""
        from . import schellekens

        return tuple(schellekens.classify_algebras(self))

    @cached_property
    def phi_rows(self) -> PhiRows:
        """The phi engine of the group, `twining.PhiRows`, shared by its algebras."""
        from . import twining

        return twining.PhiRows(self)


def unit_group(structure: np.ndarray, n: int) -> tuple[tuple[int, ...], np.ndarray, groups.Table]:
    """The invertible basis elements of a rank-n fusion ring with unit 0,
    held as its sorted (m, 4) table of nonzero (i, j, k, N_ij^k).

    x is invertible exactly when x (x) j is simple for every j.  Each j gives
    x's block at least one row, so those x are the ones whose block holds
    exactly n rows: then x (x) x_bar, which holds the unit once, is the unit,
    and the block is (x, j, x.j, 1) in the order of j.  Returns them
    ascending, so the unit first; perm[a, j] = x_a . j, the k column of x_a's
    block; and the group table read off that action.
    """
    first, xs = structure[:, 0], np.arange(n)
    lo = np.searchsorted(first, xs)
    elements = xs[np.searchsorted(first, xs, side="right") - lo == n]
    perms = structure[lo[elements, None] + xs, 2]  # [a, j]
    index_of = np.full(n, -1, dtype=np.intp)
    index_of[elements] = np.arange(len(elements))
    table = index_of[perms[:, elements]]  # [a, b]: x_a x_b
    return tuple(elements.tolist()), perms, tuple(map(tuple, table.tolist()))


def find_simple_currents(md: ModularData) -> PicardGroup:
    """Detect Pic(C) as the units of the fusion table, with exact twists; its
    table is abelian, as Verlinde's fusion table is symmetric in i and j."""
    objects, action, table = unit_group(md.fusion, len(md))
    action.flags.writeable = False
    charges, charge_den = charge_table(md, action, table)
    twists = numerators([md.conformal_weights[obj] for obj in objects], charge_den)
    twists.flags.writeable = False
    return PicardGroup(
        md=md,
        objects=objects,
        orders=tuple(groups.element_order(table, a) for a in range(len(table))),
        table=table,
        invariant_factors=groups.invariant_factors(table),
        action=action,
        twists=twists,
        charges=charges,
        charge_den=charge_den,
    )


def charge_table(md: ModularData, action: np.ndarray, table: groups.Table) -> tuple[np.ndarray, int]:
    """Q_i(g) = h_{g.i} - h_g - h_i mod 1 for every object i and current g,
    from the action [a, i] of the currents, whose column at the vacuum holds
    the currents themselves.

    Returns (q, den): den is the common denominator of the conformal weights
    and q[i, a] in [0, den) the numerator of Q_i(g_a), as a read-only int64
    array.  Each row is checked to be a character of the group: that holds
    for simple currents, but a corrupted input would otherwise make every
    character sum over the table wrong.  The group exponent is checked to
    divide den: the charges separate the currents, so it does.
    """
    hs = md.conformal_weights
    den = lcm(*(x.denominator for x in hs))
    exponent = groups.exponent(table)
    if den % exponent:
        raise NonIntegerEntry(f"group exponent {exponent} does not divide {den}")
    h = numerators(hs, den)
    q = (h[action.T] - h[action[:, md.vacuum]] - h[:, None]) % den  # [i, a]: Q_i(g_a)
    t = np.array(table, dtype=np.intp)
    broken = ((q[:, t] - q[:, :, None] - q[:, None, :]) % den).any(axis=(1, 2))
    if broken.any():
        raise NonIntegerEntry(f"monodromy charge not additive at object {int(broken.argmax())}")
    q.flags.writeable = False
    return q, den


def verify_quadratic(pg: PicardGroup) -> None:
    """Check q(g^n) = n^2 q(g), bi-additivity of b, and b(g,h) = -Q_g(h).

    All identities are integer comparisons on the grid of charge_den, scanned
    over every (g, n), then each (g, h) followed by its (g, e, h); the first
    failure raises QuadraticFormViolation.
    """
    den = pg.charge_den
    q = (-pg.twists % den).tolist()
    t = pg.table
    n = len(pg)
    for a in range(n):
        power = 0  # g_a^k
        for k in range(pg.exponent + 1):
            if q[power] != k * k * q[a] % den:
                raise QuadraticFormViolation(f"q(g^{k}) != {k}^2 q(g) for element {a}")
            power = t[power][a]
    minus_q = (-pg.charges[list(pg.objects)] % den).tolist()  # [a, c]: -Q_{g_a}(g_c)

    def b(a: int, c: int) -> int:
        return (q[t[a][c]] - q[a] - q[c]) % den

    for a in range(n):
        for c in range(n):
            if b(a, c) != minus_q[a][c]:
                raise QuadraticFormViolation(f"b != -Q for pair ({a}, {c})")
            for e in range(n):
                if b(t[a][e], c) != (b(a, c) + b(e, c)) % den:
                    raise QuadraticFormViolation(f"b not bi-additive at ({a}, {e}, {c})")


# --- diagram automorphisms -----------------------------------------------------


def affine_cartan_matrix(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The untwisted affine Cartan matrix, node 0 first."""
    n = rs.rank
    theta = rs.highest_root_labels
    a = [[0] * (n + 1) for _ in range(n + 1)]
    a[0][0] = 2
    for j in range(n):
        a[0][j + 1] = -theta[j]
        entry = -rs.half_lengths[j] * theta[j]
        assert entry.denominator == 1
        a[j + 1][0] = int(entry)
    for i in range(n):
        for j in range(n):
            a[i + 1][j + 1] = rs.cartan[i][j]
    return tuple(tuple(row) for row in a)


def diagram_automorphism(pg: PicardGroup, a: int) -> tuple[int, ...]:
    """The automorphism of the affine Dynkin diagram that induces the fusion
    action of Picard element a, as a permutation of the affine node indices
    {0, ..., rank} (node 0 the affine one), with Python int entries.

    Node i may go to node j when, over all weights w, the label of w at i is
    the label of g_a . w at j; the automorphisms of the affine Cartan matrix
    are searched among those moves, node by node.  Any one found relabels
    every weight into its image under the action, so it induces the action.
    Raises UnsupportedSeries unless exactly one is found, as for E8 at level
    2, whose exceptional current no diagram automorphism induces.
    """
    ld = pg.md.level_data
    acm = affine_cartan_matrix(ld.root_system)
    labels = np.array([affine_labels(ld, w) for w in ld.weights], dtype=np.int64)  # [w, node]
    moved = labels[pg.action[a]]  # [w, node]: the labels of g_a . w
    allowed = (labels[:, :, None] == moved[:, None, :]).all(axis=0)  # [i, j]: i may go to j
    found = []

    def extend(perm: list[int]) -> None:
        i = len(perm)
        if i == len(acm):
            found.append(tuple(perm))
            return
        for j in np.flatnonzero(allowed[i]).tolist():
            if j not in perm and all(acm[i][p] == acm[j][q] and acm[p][i] == acm[q][j]
                                     for p, q in enumerate(perm)):
                extend([*perm, j])

    extend([])
    if len(found) != 1:
        raise UnsupportedSeries(
            f"{len(found) or 'no'} automorphisms of the affine {ld.lie_type} diagram induce "
            f"the action of current {ld.weights[pg.objects[a]]}"
        )
    return found[0]
