"""Invertible objects of C(g, k): detection, charges, quadratic form,
and the matching diagram automorphisms of the affine Dynkin diagram.

Simple currents are detected exactly: the quantum-dimension test is only a
float pre-filter, membership is decided by `unit_group`, which finds the basis
elements of any fusion ring whose rows are permutation matrices; the bimodule
ring's Picard group is found by it too.  All charges and twists are exact
residues in Q/Z, held from the start as read-only int64 arrays over
`charge_den`, the common denominator of the conformal weights, so a twist
off that grid cannot be represented.  The group exponent is checked to
divide it, so every residue built from the group later on (bicharacter
values, characters of subgroups, the 6j-scalars phi) lies on the same grid.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import groups
from .affine import LevelData, ModularData, RootSystem
from .config import Config, DEFAULT_CONFIG
from .errors import ClosureFailure, NonIntegerEntry, QuadraticFormViolation, UnsupportedSeries
from .residues import numerators


@dataclass(frozen=True)
class SimpleCurrent:
    """An invertible simple object and its fusion action on P_+^k."""

    object_index: int
    action: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class PicardGroup:
    """The group of simple currents, identity first, with exact twist data."""

    md: ModularData
    elements: tuple[SimpleCurrent, ...]
    table: groups.Table
    invariant_factors: tuple[int, ...]
    # twists [a]: h_{g_a} * charge_den and charges [i, a]: Q_i(g_a) * charge_den,
    # read-only int64 in [0, charge_den); determined by md and elements, so
    # left out of ==
    twists: np.ndarray = field(compare=False)
    charges: np.ndarray = field(compare=False)
    charge_den: int = field(compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    def act(self, a: int, weight_index: int) -> int:
        return self.elements[a].action[weight_index]

    @property
    def exponent(self) -> int:
        return groups.exponent(self.table)


def unit_group(
    structure: np.ndarray, unit: int, candidates: Iterable[int]
) -> tuple[tuple[int, ...], np.ndarray, groups.Table]:
    """The invertible basis elements among candidates of a fusion ring.

    x is invertible when structure[x] is a permutation matrix: entries 0 or
    1, one 1 in each row and each column.  Returns the invertible elements,
    unit first and then ascending; perm[a, j], the k with N_{x_a j}^k = 1;
    and the group table.  A unit row that is not the identity, a product that
    is not invertible, or a composed permutation that is not the product's
    raises ClosureFailure, the first failing pair in scan order.
    """
    cand = np.array(sorted(set(candidates)), dtype=np.intp)
    rows = structure[cand]  # [c, j, k]
    is_perm = (((rows == 0) | (rows == 1)).all(axis=(1, 2))
               & (rows.sum(axis=2) == 1).all(axis=1) & (rows.sum(axis=1) == 1).all(axis=1))
    found = cand[is_perm]
    order = np.argsort(found != unit, kind="stable")  # unit first, the rest ascending
    elements = found[order]
    perms = rows[is_perm].argmax(axis=2)[order]  # [a, j]
    n = len(structure)
    if not len(elements) or elements[0] != unit or (perms[0] != np.arange(n)).any():
        raise ClosureFailure("vacuum fusion row is not the identity permutation")
    index_of = np.full(n, -1, dtype=np.intp)
    index_of[elements] = np.arange(len(elements))
    product = perms[:, elements]  # [a, b]: x_a x_b
    table = index_of[product]
    inconsistent = (perms[:, perms] != perms[table]).any(axis=2)  # x_a (x_b j) vs (x_a x_b) j
    bad = np.argwhere((table < 0) | inconsistent)
    if len(bad):
        a, b = bad[0]
        x, y = elements[a], elements[b]
        if table[a, b] < 0:
            raise ClosureFailure(f"product of currents {x} and {y} is {product[a, b]}, not a current")
        raise ClosureFailure(f"fusion action of {x}*{y} is inconsistent")
    return tuple(elements.tolist()), perms, tuple(map(tuple, table.tolist()))


def find_simple_currents(md: ModularData, config: Config = DEFAULT_CONFIG) -> PicardGroup:
    """Detect Pic(C) and close it into an abelian group with exact twists."""
    candidates = np.flatnonzero(abs(md.quantum_dims - 1.0) < config.tolerance)
    objects, perms, table = unit_group(md.fusion, md.vacuum, candidates)
    if not groups.is_abelian(table):
        raise ClosureFailure("simple-current group is not abelian")
    elements = tuple(
        SimpleCurrent(obj, tuple(perm), groups.element_order(table, a))
        for a, (obj, perm) in enumerate(zip(objects, perms.tolist()))
    )
    charges, charge_den = charge_table(md, elements, table)
    twists = numerators([md.conformal_weights[obj] for obj in objects], charge_den)
    assert twists[0] == 0
    twists.flags.writeable = False
    return PicardGroup(
        md=md,
        elements=elements,
        table=table,
        invariant_factors=groups.invariant_factors(table),
        twists=twists,
        charges=charges,
        charge_den=charge_den,
    )


def charge_table(
    md: ModularData, elements: tuple[SimpleCurrent, ...], table: groups.Table
) -> tuple[np.ndarray, int]:
    """Q_i(g) = h_{g.i} - h_g - h_i mod 1 for every object i and current g.

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
    act = np.array([g.action for g in elements], dtype=np.intp)  # [a, i]
    currents = np.array([g.object_index for g in elements], dtype=np.intp)
    q = (h[act.T] - h[currents] - h[:, None]) % den  # [i, a]: Q_i(g_a)
    t = np.array(table, dtype=np.intp)
    broken = ((q[:, t] - q[:, :, None] - q[:, None, :]) % den).any(axis=(1, 2))
    if broken.any():
        raise NonIntegerEntry(f"monodromy charge not additive at object {int(broken.argmax())}")
    q.flags.writeable = False
    return q, den


def verify_quadratic(pg: PicardGroup) -> None:
    """Check q(g^n) = n^2 q(g), bi-additivity of b, and b(g,h) = -Q_g(h).

    All identities are integer array comparisons on the grid of charge_den;
    the first failure in scan order (every (g, n), then each (g, h) followed
    by its (g, e, h)) raises QuadraticFormViolation.
    """
    den = pg.charge_den
    q = -pg.twists % den
    t = np.array(pg.table, dtype=np.intp)
    n = len(pg)
    m = np.arange(pg.exponent + 1)
    powers = np.zeros((n, len(m)), dtype=np.intp)  # [a, m]: g_a^m
    for k in m[1:]:
        powers[:, k] = t[powers[:, k - 1], np.arange(n)]
    bad = np.argwhere(q[powers] != m * m * q[:, None] % den)
    if len(bad):
        a, k = bad[0]
        raise QuadraticFormViolation(f"q(g^{k}) != {k}^2 q(g) for element {a}")
    b = (q[t] - q[:, None] - q) % den  # [a, c]: b(g_a, g_c)
    objects = [el.object_index for el in pg.elements]
    not_q = b != -pg.charges[objects] % den  # [a, c]
    not_additive = (b[t] != (b[:, None] + b) % den).transpose(0, 2, 1)  # [a, c, e]
    bad = np.argwhere(not_q | not_additive.any(axis=2))
    if len(bad):
        a, c = bad[0]
        if not_q[a, c]:
            raise QuadraticFormViolation(f"b != -Q for pair ({a}, {c})")
        e = not_additive[a, c].argmax()
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


def _preserves_matrix(perm: tuple[int, ...], m: tuple[tuple[int, ...], ...]) -> bool:
    n = len(m)
    return all(m[perm[i]][perm[j]] == m[i][j] for i in range(n) for j in range(n))


def _cominimal_node(ld: LevelData, object_index: int) -> int | None:
    """If the current object is k*Lambda_p, return finite node p; None for vacuum."""
    w = ld.weights[object_index]
    nonzero = [p for p, lab in enumerate(w) if lab != 0]
    if not nonzero:
        return None
    if len(nonzero) == 1 and w[nonzero[0]] == ld.level:
        return nonzero[0]
    raise UnsupportedSeries(
        f"current object {w} is not a level multiple of a fundamental weight"
    )


def _catalog_permutation(rs: RootSystem, finite_node: int) -> tuple[int, ...]:
    """Tabulated affine-node permutation for the current k*Lambda_{finite_node}.

    Affine index convention: 0 is the affine node, finite node p sits at p+1.
    """
    n = rs.rank
    series = rs.lie_type.series
    target = finite_node + 1
    if series == "A":
        m = target  # rotation by m of the (n+1)-cycle
        return tuple((i + m) % (n + 1) for i in range(n + 1))
    if series == "B":
        if target == 1:
            return tuple([1, 0] + list(range(2, n + 1)))
        raise UnsupportedSeries(f"no B-series automorphism for node {target}")
    if series == "C":
        if target == n:
            return tuple(n - i for i in range(n + 1))
        raise UnsupportedSeries(f"no C-series automorphism for node {target}")
    if series == "D":
        def vector_swap() -> tuple[int, ...]:
            perm = list(range(n + 1))
            perm[0], perm[1] = perm[1], perm[0]
            perm[n - 1], perm[n] = perm[n], perm[n - 1]
            return tuple(perm)

        def spinor_map() -> tuple[int, ...]:
            if n % 2 == 0:
                return tuple(n - i for i in range(n + 1))
            perm = list(n - i for i in range(n + 1))
            # order 4: 0 -> n -> 1 -> n-1 -> 0, middle reversed
            perm[0], perm[n], perm[1], perm[n - 1] = n, 1, n - 1, 0
            return tuple(perm)

        if target == 1:
            return vector_swap()
        if target == n:
            return spinor_map()
        if target == n - 1:
            sp = spinor_map()
            vs = vector_swap()
            return tuple(vs[sp[i]] for i in range(n + 1))
        raise UnsupportedSeries(f"no D-series automorphism for node {target}")
    if series == "E" and n == 6:
        rho = (1, 6, 3, 5, 4, 2, 0)  # order-3 leg rotation with rho(0) = 1
        if target == 1:
            return rho
        if target == 6:
            return tuple(rho[rho[i]] for i in range(7))
        raise UnsupportedSeries(f"no E6 automorphism for node {target}")
    if series == "E" and n == 7:
        if target == 7:
            return (7, 6, 2, 5, 4, 3, 1, 0)  # chain reversal, branch node fixed
        raise UnsupportedSeries(f"no E7 automorphism for node {target}")
    raise UnsupportedSeries(f"no diagram-automorphism catalog for {rs.lie_type}")


def diagram_automorphism(pg: PicardGroup, a: int) -> tuple[int, ...]:
    """The affine-diagram symmetry induced by Picard element a (catalog data),
    as a permutation of the affine node indices {0, ..., rank}, checked to
    preserve the affine Cartan matrix."""
    ld = pg.md.level_data
    rs = ld.root_system
    node = _cominimal_node(ld, pg.elements[a].object_index)
    if node is None:
        perm = tuple(range(rs.rank + 1))
    else:
        perm = _catalog_permutation(rs, node)
    acm = affine_cartan_matrix(rs)
    if not _preserves_matrix(perm, acm):
        raise UnsupportedSeries(
            f"catalog permutation {perm} does not preserve the affine Cartan matrix"
        )
    return perm
