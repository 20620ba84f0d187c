import dataclasses
import re
from fractions import Fraction

import pytest

import numpy as np

from wzwkit import Config, diagram_automorphism, find_simple_currents, modular_data, verify_quadratic
from wzwkit.groups import exponent
from wzwkit.errors import QuadraticFormViolation, UnsupportedSeries
from wzwkit.picard import affine_cartan_matrix
from wzwkit.affine import affine_labels, build_root_system, fusion_rows, parse_lie_type
from wzwkit.residues import mod1

from conftest import CATALOG, dense, quadruples


def perm_order(perm):
    """The order of a permutation given as a tuple of images."""
    order, current = 1, perm
    while current != tuple(range(len(perm))):
        current = tuple(perm[i] for i in current)
        order += 1
    return order


def dense_unit_group(structure, n):
    """The invertible basis elements of a rank-n fusion ring with unit 0, as
    the library found them before it counted rows: every element's dense row
    block, read by fusion_rows, tested for a permutation matrix, and the
    group they make checked to close.  Returns (elements, perms, table) as
    unit_group does; a unit row that is not the identity, a product that is
    not invertible or a composed permutation that is not the product's
    raises AssertionError, the first failing pair in scan order."""
    cand = np.arange(n)
    rows = fusion_rows(structure, cand, n)  # [c, j, k]
    is_perm = (((rows == 0) | (rows == 1)).all(axis=(1, 2))
               & (rows.sum(axis=2) == 1).all(axis=1) & (rows.sum(axis=1) == 1).all(axis=1))
    elements = cand[is_perm]  # ascending, so the unit first
    perms = rows[is_perm].argmax(axis=2)  # [a, j]
    if not len(elements) or elements[0] != 0 or (perms[0] != np.arange(n)).any():
        raise AssertionError("vacuum fusion row is not the identity permutation")
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
            raise AssertionError(f"product of currents {x} and {y} is {product[a, b]}, not a current")
        raise AssertionError(f"fusion action of {x}*{y} is inconsistent")
    return tuple(elements.tolist()), perms, tuple(map(tuple, table.tolist()))


def charge(pg, i, a):
    """Q_i(g_a) mod 1 as a Fraction, read from the table over charge_den."""
    return Fraction(int(pg.charges[i, a]), pg.charge_den)

# order of the center of the simply connected group per series
CENTER_ORDER = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                "D": lambda n: 4, "E": {6: 3, 7: 2, 8: 1}, "F": lambda n: 1,
                "G": lambda n: 1}


def weight_from_affine(ld, labels):
    """Drop the node-0 label of a valid level-k affine weight."""
    finite = tuple(labels[1:])
    assert labels[0] == ld.level - sum(c * l for c, l in zip(ld.root_system.comarks, finite))
    assert min(labels) >= 0, labels
    return finite


def weight_action_of_node_permutation(ld, perm):
    """Permutation of level-k weights induced by an affine-node permutation:
    each weight's affine labels are pushed forward along the node map, and the
    result must again be a valid level-k weight."""
    out = []
    for w in ld.weights:
        labels = affine_labels(ld, w)
        moved = [0] * len(labels)
        for i, lab in enumerate(labels):
            moved[perm[i]] = lab
        out.append(ld.index(weight_from_affine(ld, tuple(moved))))
    return tuple(out)


# --- the per-series catalog: the oracle of diagram_automorphism's search -------


def _preserves_matrix(perm, m):
    n = len(m)
    return all(m[perm[i]][perm[j]] == m[i][j] for i in range(n) for j in range(n))


def _cominimal_node(ld, object_index):
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


def _catalog_permutation(rs, finite_node):
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
        def vector_swap():
            perm = list(range(n + 1))
            perm[0], perm[1] = perm[1], perm[0]
            perm[n - 1], perm[n] = perm[n], perm[n - 1]
            return tuple(perm)

        def spinor_map():
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


def catalog_automorphism(pg, a):
    """The catalog's node permutation for Picard element a, checked to
    preserve the affine Cartan matrix."""
    ld = pg.md.level_data
    rs = ld.root_system
    node = _cominimal_node(ld, pg.objects[a])
    perm = tuple(range(rs.rank + 1)) if node is None else _catalog_permutation(rs, node)
    assert _preserves_matrix(perm, affine_cartan_matrix(rs)), perm
    return perm


def assert_search_matches_catalog(pg):
    """For every current: the search returns Python ints, equals the catalog,
    has an order the current's order divides, and induces the fusion action."""
    for a in range(len(pg)):
        perm = diagram_automorphism(pg, a)
        assert all(type(x) is int for x in perm)
        assert perm == catalog_automorphism(pg, a)
        assert perm_order(perm) % pg.orders[a] == 0
        action = weight_action_of_node_permutation(pg.md.level_data, perm)
        assert action == tuple(pg.action[a].tolist())


@pytest.mark.parametrize("name,k", [*CATALOG, ("D3", 1), ("D3", 2), ("C3", 2), ("B3", 2), ("F4", 1)])
def test_picard_order_matches_center(name, k, pic_of):
    pg = pic_of(name, k)
    series, rank = name[0], int(name[1:])
    rule = CENTER_ORDER[series]
    expected = rule[rank] if isinstance(rule, dict) else rule(rank)
    assert len(pg) == expected


@pytest.mark.parametrize(
    "name,k,factors",
    [
        ("A1", 3, (2,)),
        ("A2", 2, (3,)),
        ("A3", 2, (4,)),
        ("D4", 1, (2, 2)),
        ("D4", 2, (2, 2)),
        ("D3", 2, (4,)),
        ("G2", 2, ()),
    ],
)
def test_invariant_factors(name, k, factors, pic_of):
    assert pic_of(name, k).invariant_factors == factors


def test_a1_generator_is_level_weight(pic_of, md_of):
    for k in (1, 2, 5, 8):
        pg = pic_of("A1", k)
        md = md_of("A1", k)
        assert len(pg) == 2
        assert md.weights[pg.objects[1]] == (k,)


def test_vacuum_orbit_is_current_set(pic_of, md_of):
    for name, k in [("A1", 4), ("A3", 2), ("D4", 2)]:
        pg = pic_of(name, k)
        md = md_of(name, k)
        orbit = {pg.action[a, md.vacuum] for a in range(len(pg))}
        assert orbit == set(pg.objects)


def test_a1_monodromy_charge_formula(pic_of, md_of):
    for k in (2, 3, 4, 6):
        pg = pic_of("A1", k)
        md = md_of("A1", k)
        j = 1
        for lam in range(k + 1):
            assert charge(pg, lam, j) == mod1(Fraction(lam, 2))


def test_charge_identities(pic_of, md_of):
    for name, k in [("A1", 4), ("A2", 3), ("A3", 2), ("D4", 2)]:
        pg = pic_of(name, k)
        md = md_of(name, k)
        hs = md.conformal_weights
        assert pg.charges.shape == (len(md), len(pg)) and pg.charges.dtype == np.int64
        assert not pg.charges.flags.writeable
        # the twists h_g mod 1, on the same grid
        assert pg.twists.dtype == np.int64 and not pg.twists.flags.writeable
        assert [Fraction(t, pg.charge_den) for t in pg.twists.tolist()] == [
            mod1(hs[obj]) for obj in pg.objects]
        # the action [a, i] as unit_group found it, on the same terms
        assert pg.action.shape == (len(pg), len(md)) and pg.action.dtype == np.int64
        assert not pg.action.flags.writeable
        assert pg.exponent == exponent(pg.table)
        assert find_simple_currents(md) == pg
        for i in range(len(md)):
            assert charge(pg, i, 0) == 0
            for a, obj in enumerate(pg.objects):  # the definition, entry by entry
                assert charge(pg, i, a) == mod1(hs[pg.action[a, i]] - hs[obj] - hs[i])
        for a in range(len(pg)):
            assert charge(pg, md.vacuum, a) == 0
        # additivity in the group argument, exact
        for i in range(len(md)):
            for a in range(len(pg)):
                for b in range(len(pg)):
                    assert charge(pg, i, pg.table[a][b]) == mod1(charge(pg, i, a) + charge(pg, i, b))


def test_quadratic_form_values(pic_of):
    def q(pg):  # q(g) = -h_g mod 1
        return tuple(mod1(-pg.md.conformal_weights[obj]) for obj in pg.objects)

    assert q(pic_of("A1", 4)) == (Fraction(0), Fraction(0))  # h_J = 1
    assert set(q(pic_of("A2", 1))[1:]) == {Fraction(2, 3)}  # -1/3 mod 1


@pytest.mark.parametrize("name,k", CATALOG)
def test_verify_quadratic_on_catalog(name, k, pic_of, md_of):
    assert verify_quadratic(pic_of(name, k)) is None  # a violation raises


def test_verify_quadratic_catches_corruption(pic_of, md_of):
    pg = pic_of("A1", 6)
    assert pg.charge_den == 32 and pg.twists.tolist() == [0, 16]  # h_J = 3/2
    bad = dataclasses.replace(pg, twists=np.array([0, 8]))  # 1/4, on the grid
    with pytest.raises(QuadraticFormViolation):
        verify_quadratic(bad)


def _with_current_row(fusion, i, perm):
    """fusion with row i replaced by the permutation j -> perm[j]."""
    out = fusion.copy()
    out[i] = np.eye(len(perm), dtype=out.dtype)[list(perm)]
    return out


def _vacuum_row_doubled(fusion):
    out = fusion.copy()
    out[0, 0, 0] = 2
    return out


# A1:4 tampered fusion rows, each with the message dense_unit_group's closure
# checks must fail with
TAMPERED = [
    (_vacuum_row_doubled, "vacuum fusion row is not the identity permutation"),
    # J = (4) sends the vacuum to (2), whose quantum dimension is 2
    (lambda f: _with_current_row(f, 4, (2, 3, 4, 1, 0)),
     "product of currents 4 and 0 is 2, not a current"),
    # J still sends 0 <-> 4, but J*J = 1 no longer acts as the identity
    (lambda f: _with_current_row(f, 4, (4, 2, 3, 1, 0)), "fusion action of 4*4 is inconsistent"),
    # the vacuum row is a permutation, but J's rather than the identity
    (lambda f: _with_current_row(f, 0, (4, 3, 2, 1, 0)),
     "vacuum fusion row is not the identity permutation"),
]


@pytest.mark.parametrize("tamper,message", TAMPERED)
def test_tampered_fusion_fails_closure(tamper, message, md_of):
    """The oracle's closure checks, which the properties over the draw run on
    every fusion ring, catch each corruption of A1:4's fusion table."""
    md = md_of("A1", 4)
    bad = quadruples(tamper(dense(md.fusion, len(md))))
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        dense_unit_group(bad, len(md))


@pytest.mark.parametrize("name,k", [*CATALOG, ("D3", 2), ("C3", 2), ("B3", 2)])
def test_diagram_automorphism_reproduces_fusion(name, k, pic_of):
    """The catalog node permutation equals the one the search reads from the
    fusion action, and pushed to level-k weights through the affine labels it
    reproduces that action."""
    assert_search_matches_catalog(pic_of(name, k))


def test_e8_exceptional_current_is_refused():
    """E8 at level 2 has a simple current outside the center, the weight
    Lambda_1 of conformal weight 3/2: the affine E8 diagram has no symmetry,
    so no automorphism induces its action, and the catalog lacks it too."""
    pg = find_simple_currents(modular_data("E8", 2, Config(weyl_cap=10**9)))
    assert len(pg) == 2 and pg.md.weights[pg.objects[1]] == (1, 0, 0, 0, 0, 0, 0, 0)
    assert diagram_automorphism(pg, 0) == tuple(range(9))
    message = ("no automorphisms of the affine E8 diagram induce the action of current "
               "(1, 0, 0, 0, 0, 0, 0, 0)")
    with pytest.raises(UnsupportedSeries, match=f"^{re.escape(message)}$"):
        diagram_automorphism(pg, 1)
    with pytest.raises(UnsupportedSeries, match="not a level multiple"):
        catalog_automorphism(pg, 1)


@pytest.mark.parametrize("name,k", [("A1", 4), ("A3", 2)])
def test_action_no_automorphism_induces_is_refused(name, k, pic_of):
    """The generator's action row with the images of the vacuum and of
    object 1 swapped is still a permutation, but it sends the vacuum off the
    currents, which no diagram automorphism does: the search refuses it,
    whatever the catalog lists for that current."""
    pg = pic_of(name, k)
    a = pg.orders.index(max(pg.orders))
    action = pg.action.copy()
    action[a, [0, 1]] = pg.action[a, [1, 0]]
    assert action[a, 0] not in pg.objects
    bad = dataclasses.replace(pg, action=action)
    assert catalog_automorphism(bad, a) == catalog_automorphism(pg, a)
    with pytest.raises(UnsupportedSeries, match="^no automorphisms of the affine"):
        diagram_automorphism(bad, a)


def test_identity_automorphism(pic_of):
    pg = pic_of("A1", 4)
    perm = diagram_automorphism(pg, 0)
    assert perm == (0, 1)
    assert perm_order(perm) == 1


def test_a_series_rotations(pic_of, md_of):
    pg = pic_of("A3", 2)
    md = md_of("A3", 2)
    # J = k Lambda_1 generates; its square rotates by 2
    current = md.level_data.index((2, 0, 0))
    j = pg.objects.index(current)
    jsq = pg.table[j][j]
    perm = diagram_automorphism(pg, jsq)
    assert perm == (2, 3, 0, 1)
    assert perm_order(perm) % pg.orders[jsq] == 0


def test_catalog_permutations_preserve_affine_cartan():
    """Every tabulated symmetry preserves the affine Cartan matrix, including
    the entries for algebras too large to build modular data for."""
    cases = {
        "A5": [1, 2, 3, 4, 5],
        "B3": [1],
        "C4": [4],
        "D4": [1, 3, 4],
        "D5": [1, 4, 5],
        "D6": [1, 5, 6],
        "E6": [1, 6],
        "E7": [7],
    }
    for name, nodes in cases.items():
        rs = build_root_system(parse_lie_type(name))
        acm = affine_cartan_matrix(rs)
        for node in nodes:
            perm = _catalog_permutation(rs, node - 1)
            assert _preserves_matrix(perm, acm), (name, node)
            assert perm[0] == node


def test_d_odd_spinor_has_order_four():
    rs = build_root_system(parse_lie_type("D5"))
    perm = _catalog_permutation(rs, 4)  # k Lambda_5
    assert perm_order(perm) == 4


def test_unsupported_series_raises():
    rs = build_root_system(parse_lie_type("B3"))
    with pytest.raises(UnsupportedSeries):
        _catalog_permutation(rs, 2)


def test_e6_rotation_matches_fusion(pic_of):
    """The order-3 leg rotation direction is pinned by the level-1 fusion."""
    pg = pic_of("E6", 1)
    assert pg.invariant_factors == (3,)
    assert_search_matches_catalog(pg)
