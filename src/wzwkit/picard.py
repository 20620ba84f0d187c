"""Invertible objects of C(g, k): detection, charges, quadratic form,
and the matching diagram automorphisms of the affine Dynkin diagram.

Simple currents are detected exactly: the quantum-dimension test is only a
float pre-filter, membership is decided by the fusion row being a permutation
matrix.  All charges and twists are exact residues in Q/Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from . import groups
from .affine import LevelData, ModularData, RootSystem, affine_labels, weight_from_affine
from .config import Config, DEFAULT_CONFIG
from .errors import (ClosureFailure, NonIntegerEntry, QuadraticFormViolation, UnsupportedSeries,
                     WeightNotIntegrable)
from .residues import mod1, numerators


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
    twists: tuple[Fraction, ...]  # h_g mod 1 per element
    # [i, a]: Q_i(g_a) * charge_den, read-only int64 in [0, charge_den);
    # determined by md and elements, so left out of ==
    charges: np.ndarray = field(compare=False)
    charge_den: int = field(compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of_object(self, object_index: int) -> int:
        for a, el in enumerate(self.elements):
            if el.object_index == object_index:
                return a
        raise KeyError(object_index)

    def act(self, a: int, weight_index: int) -> int:
        return self.elements[a].action[weight_index]

    def charge(self, i: int, a: int) -> Fraction:
        """The monodromy charge Q_i(g_a) mod 1, exact."""
        return Fraction(int(self.charges[i, a]), self.charge_den)

    @property
    def exponent(self) -> int:
        return groups.exponent(self.table)


def _permutation_row(fusion: np.ndarray, i: int) -> tuple[int, ...] | None:
    """The permutation j -> k with N[i, j, k] = 1, or None if row i is not one."""
    block = fusion[i]
    n = len(block)
    perm = []
    for j in range(n):
        nz = np.nonzero(block[j])[0]
        if len(nz) != 1 or block[j, nz[0]] != 1:
            return None
        perm.append(int(nz[0]))
    if sorted(perm) != list(range(n)):
        return None
    return tuple(perm)


def find_simple_currents(md: ModularData, config: Config = DEFAULT_CONFIG) -> PicardGroup:
    """Detect Pic(C) and close it into an abelian group with exact twists."""
    tol = config.tolerance
    currents: dict[int, tuple[int, ...]] = {}
    for i in range(len(md)):
        if abs(float(md.quantum_dims[i]) - 1.0) < tol:
            perm = _permutation_row(md.fusion, i)
            if perm is not None:
                currents[i] = perm
    vac = md.vacuum
    if vac not in currents:
        raise ClosureFailure("vacuum fusion row is not the identity permutation")
    order_objs = [vac] + sorted(i for i in currents if i != vac)
    index_of = {obj: a for a, obj in enumerate(order_objs)}
    n = len(order_objs)
    table_rows = []
    for a, ga in enumerate(order_objs):
        row = []
        for b, gb in enumerate(order_objs):
            prod_obj = currents[ga][gb]
            if prod_obj not in index_of:
                raise ClosureFailure(
                    f"product of currents {ga} and {gb} is {prod_obj}, not a current"
                )
            # the composed permutation must be the product's permutation
            composed = tuple(currents[ga][currents[gb][j]] for j in range(len(md)))
            if composed != currents[prod_obj]:
                raise ClosureFailure(f"fusion action of {ga}*{gb} is inconsistent")
            row.append(index_of[prod_obj])
        table_rows.append(tuple(row))
    table = tuple(table_rows)
    if not groups.is_abelian(table):
        raise ClosureFailure("simple-current group is not abelian")
    elements = tuple(
        SimpleCurrent(obj, currents[obj], groups.element_order(table, a))
        for a, obj in enumerate(order_objs)
    )
    twists = tuple(mod1(md.conformal_weights[obj]) for obj in order_objs)
    assert twists[0] == 0
    charges, charge_den = charge_table(md, elements, table)
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
    character sum over the table wrong.
    """
    hs = md.conformal_weights
    den = lcm(*(x.denominator for x in hs))
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


def quadratic_form(pg: PicardGroup) -> tuple[Fraction, ...]:
    """q(g) = -h_g mod 1 per element (the twist-eigenvalue quadratic form)."""
    return tuple(mod1(-t) for t in pg.twists)


def verify_quadratic(pg: PicardGroup) -> None:
    """Check q(g^n) = n^2 q(g), bi-additivity of b, and b(g,h) = -Q_g(h).

    All identities are exact residue comparisons; the first failure raises
    QuadraticFormViolation naming the offending pair.
    """
    q = quadratic_form(pg)
    n = len(pg)
    exp = pg.exponent

    def b(a: int, bb: int) -> Fraction:
        return mod1(q[pg.table[a][bb]] - q[a] - q[bb])

    for a in range(n):
        for m in range(exp + 1):
            lhs = q[groups.power(pg.table, a, m)]
            rhs = mod1(m * m * q[a])
            if lhs != rhs:
                raise QuadraticFormViolation(f"q(g^{m}) != {m}^2 q(g) for element {a}")
    for a in range(n):
        for c in range(n):
            if b(a, c) != mod1(-pg.charge(pg.elements[a].object_index, c)):
                raise QuadraticFormViolation(f"b != -Q for pair ({a}, {c})")
            for e in range(n):
                if b(pg.table[a][e], c) != mod1(b(a, c) + b(e, c)):
                    raise QuadraticFormViolation(f"b not bi-additive at ({a}, {e}, {c})")


# --- diagram automorphisms -----------------------------------------------------


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A symmetry of the affine Dynkin diagram attached to a simple current.

    node_permutation acts on affine node indices {0, ..., rank}; it preserves
    the affine Cartan matrix (validated at construction time).
    """

    node_permutation: tuple[int, ...]
    order: int
    source_current: int  # index into the Picard group element list


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


def _perm_order(perm: tuple[int, ...]) -> int:
    order = 1
    current = perm
    identity = tuple(range(len(perm)))
    while current != identity:
        current = tuple(perm[i] for i in current)
        order += 1
    return order


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


def diagram_automorphism(pg: PicardGroup, a: int) -> DiagramAutomorphism:
    """The affine-diagram symmetry induced by Picard element a (catalog data)."""
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
    return DiagramAutomorphism(perm, _perm_order(perm), a)


def weight_action_of_node_permutation(ld: LevelData, perm: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation of level-k weights induced by an affine-node permutation.

    A weight's affine labels are pushed forward along the node map; the result
    must again be a valid level-k weight.
    """
    out = []
    for w in ld.weights:
        labels = affine_labels(ld, w)
        moved = [0] * len(labels)
        for i, lab in enumerate(labels):
            moved[perm[i]] = lab
        try:
            out.append(ld.index(weight_from_affine(ld, tuple(moved))))
        except WeightNotIntegrable as exc:
            raise UnsupportedSeries(f"node permutation does not act on P_+^k: {exc}") from exc
    return tuple(out)
