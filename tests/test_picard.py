import re
from fractions import Fraction

import pytest

import numpy as np

from wzwkit import diagram_automorphism, find_simple_currents, verify_quadratic
from wzwkit.errors import ClosureFailure, QuadraticFormViolation, UnsupportedSeries
from wzwkit.picard import (
    affine_cartan_matrix,
    _catalog_permutation,
    _preserves_matrix,
)
from wzwkit.affine import affine_labels, build_root_system, parse_lie_type
from wzwkit.residues import mod1

from conftest import CATALOG


def perm_order(perm):
    """The order of a permutation given as a tuple of images."""
    order, current = 1, perm
    while current != tuple(range(len(perm))):
        current = tuple(perm[i] for i in current)
        order += 1
    return order


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
        assert md.weights[pg.elements[1].object_index] == (k,)


def test_vacuum_orbit_is_current_set(pic_of, md_of):
    for name, k in [("A1", 4), ("A3", 2), ("D4", 2)]:
        pg = pic_of(name, k)
        md = md_of(name, k)
        orbit = {pg.act(a, md.vacuum) for a in range(len(pg))}
        assert orbit == {el.object_index for el in pg.elements}


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
            mod1(hs[el.object_index]) for el in pg.elements]
        assert find_simple_currents(md) == pg
        for i in range(len(md)):
            assert charge(pg, i, 0) == 0
            for a, g in enumerate(pg.elements):  # the definition, entry by entry
                assert charge(pg, i, a) == mod1(hs[g.action[i]] - hs[g.object_index] - hs[i])
        for a in range(len(pg)):
            assert charge(pg, md.vacuum, a) == 0
        # additivity in the group argument, exact
        for i in range(len(md)):
            for a in range(len(pg)):
                for b in range(len(pg)):
                    assert charge(pg, i, pg.table[a][b]) == mod1(charge(pg, i, a) + charge(pg, i, b))


def test_quadratic_form_values(pic_of):
    def q(pg):  # q(g) = -h_g mod 1
        return tuple(mod1(-pg.md.conformal_weights[el.object_index]) for el in pg.elements)

    assert q(pic_of("A1", 4)) == (Fraction(0), Fraction(0))  # h_J = 1
    assert set(q(pic_of("A2", 1))[1:]) == {Fraction(2, 3)}  # -1/3 mod 1


@pytest.mark.parametrize("name,k", CATALOG)
def test_verify_quadratic_on_catalog(name, k, pic_of, md_of):
    assert verify_quadratic(pic_of(name, k)) is None  # a violation raises


def test_verify_quadratic_catches_corruption(pic_of, md_of):
    import dataclasses

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


# A1:4 tampered fusion rows, each with the ClosureFailure message it must raise
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
    import dataclasses

    md = md_of("A1", 4)
    bad = dataclasses.replace(md, fusion=tamper(md.fusion))
    with pytest.raises(ClosureFailure, match=f"^{re.escape(message)}$"):
        find_simple_currents(bad)


@pytest.mark.parametrize("name,k", [*CATALOG, ("D3", 2), ("C3", 2), ("B3", 2)])
def test_diagram_automorphism_reproduces_fusion(name, k, pic_of, md_of):
    """The catalog node permutation, pushed to level-k weights through the
    affine labels, must equal the fusion action of the current."""
    pg = pic_of(name, k)
    md = md_of(name, k)
    for a in range(len(pg)):
        perm = diagram_automorphism(pg, a)
        assert perm_order(perm) % pg.elements[a].order == 0
        action = weight_action_of_node_permutation(md.level_data, perm)
        assert action == pg.elements[a].action


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
    j = next(a for a, el in enumerate(pg.elements) if el.object_index == current)
    jsq = pg.table[j][j]
    perm = diagram_automorphism(pg, jsq)
    assert perm == (2, 3, 0, 1)
    assert perm_order(perm) % pg.elements[jsq].order == 0


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


def test_e6_rotation_matches_fusion(pic_of, md_of):
    """The order-3 leg rotation direction is pinned by the level-1 fusion."""
    pg = pic_of("E6", 1)
    md = md_of("E6", 1)
    assert pg.invariant_factors == (3,)
    for a in range(len(pg)):
        perm = diagram_automorphism(pg, a)
        assert perm_order(perm) % pg.elements[a].order == 0
        action = weight_action_of_node_permutation(md.level_data, perm)
        assert action == pg.elements[a].action
