from fractions import Fraction

import pytest

import numpy as np

from wzwkit import diagram_automorphism, find_simple_currents, quadratic_form, verify_quadratic
from wzwkit.errors import QuadraticFormViolation, UnsupportedSeries
from wzwkit.picard import (
    affine_cartan_matrix,
    _catalog_permutation,
    _preserves_matrix,
    weight_action_of_node_permutation,
)
from wzwkit.affine import build_root_system, parse_lie_type
from wzwkit.residues import mod1

from conftest import CATALOG

# order of the center of the simply connected group per series
CENTER_ORDER = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                "D": lambda n: 4, "E": {6: 3, 7: 2, 8: 1}, "F": lambda n: 1,
                "G": lambda n: 1}


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
            assert pg.charge(lam, j) == mod1(Fraction(lam, 2))


def test_charge_identities(pic_of, md_of):
    for name, k in [("A1", 4), ("A2", 3), ("A3", 2), ("D4", 2)]:
        pg = pic_of(name, k)
        md = md_of(name, k)
        hs = md.conformal_weights
        assert pg.charges.shape == (len(md), len(pg)) and pg.charges.dtype == np.int64
        assert not pg.charges.flags.writeable
        assert find_simple_currents(md) == pg
        for i in range(len(md)):
            assert pg.charge(i, 0) == 0
            for a, g in enumerate(pg.elements):  # the definition, entry by entry
                assert pg.charge(i, a) == mod1(hs[g.action[i]] - hs[g.object_index] - hs[i])
        for a in range(len(pg)):
            assert pg.charge(md.vacuum, a) == 0
        # additivity in the group argument, exact
        for i in range(len(md)):
            for a in range(len(pg)):
                for b in range(len(pg)):
                    assert pg.charge(i, pg.table[a][b]) == mod1(pg.charge(i, a) + pg.charge(i, b))


def test_quadratic_form_values(pic_of):
    pg4 = pic_of("A1", 4)
    assert quadratic_form(pg4) == (Fraction(0), Fraction(0))  # h_J = 1
    pg1 = pic_of("A2", 1)
    q = quadratic_form(pg1)
    assert set(q[1:]) == {Fraction(2, 3)}  # -1/3 mod 1


@pytest.mark.parametrize("name,k", CATALOG)
def test_verify_quadratic_on_catalog(name, k, pic_of, md_of):
    assert verify_quadratic(pic_of(name, k)) is None  # a violation raises


def test_verify_quadratic_catches_corruption(pic_of, md_of):
    import dataclasses

    pg = pic_of("A1", 6)
    bad = dataclasses.replace(pg, twists=(Fraction(0), Fraction(1, 3)))
    with pytest.raises(QuadraticFormViolation):
        verify_quadratic(bad)


@pytest.mark.parametrize("name,k", [*CATALOG, ("D3", 2), ("C3", 2), ("B3", 2)])
def test_diagram_automorphism_reproduces_fusion(name, k, pic_of, md_of):
    """The catalog node permutation, pushed to level-k weights through the
    affine labels, must equal the fusion action of the current."""
    pg = pic_of(name, k)
    md = md_of(name, k)
    for a in range(len(pg)):
        aut = diagram_automorphism(pg, a)
        assert aut.order % pg.elements[a].order == 0
        action = weight_action_of_node_permutation(md.level_data, aut.node_permutation)
        assert action == pg.elements[a].action


def test_identity_automorphism(pic_of):
    pg = pic_of("A1", 4)
    aut = diagram_automorphism(pg, 0)
    assert aut.node_permutation == (0, 1)
    assert aut.order == 1


def test_a_series_rotations(pic_of, md_of):
    pg = pic_of("A3", 2)
    md = md_of("A3", 2)
    # J = k Lambda_1 generates; its square rotates by 2
    j = pg.index_of_object(md.level_data.index((2, 0, 0)))
    jsq = pg.table[j][j]
    aut = diagram_automorphism(pg, jsq)
    assert aut.node_permutation == (2, 3, 0, 1)


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
    order = 1
    cur = perm
    while cur != tuple(range(6)):
        cur = tuple(perm[i] for i in cur)
        order += 1
    assert order == 4


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
        aut = diagram_automorphism(pg, a)
        action = weight_action_of_node_permutation(md.level_data, aut.node_permutation)
        assert action == pg.elements[a].action
