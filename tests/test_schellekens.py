from fractions import Fraction

import numpy as np
import pytest

from wzwkit import (
    classify_algebras,
    enumerate_ksbs,
    enumerate_subgroups,
    partition_function,
    verify_modular_invariance,
)
from wzwkit.errors import InvarianceViolation, NonIntegerEntry
from wzwkit.residues import mod1
from wzwkit.schellekens import KSB, SchellekensAlgebra

from conftest import CATALOG


def monodromy_charge(md, pg, i, a):
    """Q_i(g) = h_{g.i} - h_g - h_i mod 1, from the definition (independent of pg's table)."""
    g = pg.elements[a]
    hs = md.conformal_weights
    return mod1(hs[g.action[i]] - hs[g.object_index] - hs[i])


def test_subgroup_counts(pic_of):
    assert len(enumerate_subgroups(pic_of("A1", 2))) == 2    # Z2
    assert len(enumerate_subgroups(pic_of("A3", 1))) == 3    # Z4
    assert len(enumerate_subgroups(pic_of("D4", 1))) == 5    # Z2 x Z2
    assert len(enumerate_subgroups(pic_of("A2", 1))) == 2    # Z3


def test_trivial_subgroup_has_one_ksb(pic_of):
    sub = enumerate_subgroups(pic_of("A1", 5))[0]
    assert len(sub) == 1
    ksbs = enumerate_ksbs(sub)
    assert len(ksbs) == 1
    assert ksbs[0].values == ((Fraction(0),),)


def test_a1_level4_unique_ksb(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    ksbs = enumerate_ksbs(z2)
    assert len(ksbs) == 1
    assert ksbs[0].value(1, 1) == 0  # Xi(J, J) = +1, h_J = 1


def test_a1_level5_no_z2_ksb(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 5)) if len(s) == 2][0]
    assert enumerate_ksbs(z2) == []  # theta_J is a primitive 8th root


def test_a1_level6_ksb_is_minus_one(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 6)) if len(s) == 2][0]
    ksbs = enumerate_ksbs(z2)
    assert len(ksbs) == 1
    assert ksbs[0].value(1, 1) == Fraction(1, 2)


def test_ksb_diagonal_holds_on_all_elements(pic_of):
    for name, k in CATALOG:
        for sub in enumerate_subgroups(pic_of(name, k)):
            for ksb in enumerate_ksbs(sub):
                for a in range(len(sub)):
                    assert ksb.value(a, a) == mod1(sub.twist(a))


def test_ksb_symmetric_part_is_monodromy_pairing(pic_of, md_of):
    """Xi(g,h) + Xi(h,g) = Q_g(h) as residues: forced by the diagonal
    condition plus bi-additivity."""
    for name, k in CATALOG:
        md = md_of(name, k)
        pg = pic_of(name, k)
        for sub in enumerate_subgroups(pg):
            for ksb in enumerate_ksbs(sub):
                for a, g in enumerate(sub.members):
                    for b, h in enumerate(sub.members):
                        q = monodromy_charge(md, pg, pg.elements[g].object_index, h)
                        assert mod1(ksb.value(a, b) + ksb.value(b, a)) == q


def test_cardy_partition_is_conjugation(md_of, pic_of):
    for name, k in [("A1", 3), ("A2", 2), ("D4", 2), ("G2", 3)]:
        md = md_of(name, k)
        trivial = enumerate_subgroups(pic_of(name, k))[0]
        algebra = SchellekensAlgebra(trivial, enumerate_ksbs(trivial)[0])
        z = partition_function(md, algebra)
        assert z.dtype == np.int64 and not z.flags.writeable
        for i in range(len(md)):
            for j in range(len(md)):
                assert z[i, j] == (1 if md.conjugation[i] == j else 0)


def test_a1_level4_d_even_matrix(md_of, pic_of):
    md = md_of("A1", 4)
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    algebra = SchellekensAlgebra(z2, enumerate_ksbs(z2)[0])
    z = partition_function(md, algebra)
    expected = {(0, 0): 1, (0, 4): 1, (4, 0): 1, (4, 4): 1, (2, 2): 2}
    for i in range(5):
        for j in range(5):
            assert z[i, j] == expected.get((i, j), 0)


def test_a1_level6_d_odd_matrix(md_of, pic_of):
    md = md_of("A1", 6)
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 6)) if len(s) == 2][0]
    algebra = SchellekensAlgebra(z2, enumerate_ksbs(z2)[0])
    z = partition_function(md, algebra)
    for i in range(7):
        for j in range(7):
            if i % 2 == 0:
                assert z[i, j] == (1 if i == j else 0)
            else:
                assert z[i, j] == (1 if j == 6 - i else 0)


@pytest.mark.parametrize("name,k", CATALOG)
def test_all_classified_algebras_are_modular_invariant(name, k, md_of, pic_of):
    md = md_of(name, k)
    for ca in classify_algebras(md, pic_of(name, k)):
        assert verify_modular_invariance(md, ca.partition) < 1e-8
        assert ca.partition[md.vacuum, md.vacuum] == 1


def test_algebra_counts(md_of, pic_of):
    assert len(classify_algebras(md_of("A1", 5), pic_of("A1", 5))) == 1
    assert len(classify_algebras(md_of("A1", 4), pic_of("A1", 4))) == 2
    # (D4,2): sum over the 5 subgroups of their KSB counts
    pg = pic_of("D4", 2)
    total = sum(len(enumerate_ksbs(s)) for s in enumerate_subgroups(pg))
    assert len(classify_algebras(md_of("D4", 2), pg)) == total
    assert classify_algebras(md_of("D4", 2), pg) == classify_algebras(md_of("D4", 2), pg)
    assert total >= 4


def test_transpose_ksb_transposes_partition(md_of, pic_of):
    for name, k in [("A3", 2), ("A3", 3), ("D4", 2), ("A2", 2)]:
        md = md_of(name, k)
        for ca in classify_algebras(md, pic_of(name, k)):
            flipped = SchellekensAlgebra(ca.algebra.support, ca.algebra.ksb.transpose())
            zt = partition_function(md, flipped)
            assert np.array_equal(zt, ca.partition.T)


def test_multiplicity_bound(md_of, pic_of):
    """Each invertible object appears in A with multiplicity at most one:
    supports are duplicate-free element sets by construction."""
    for name, k in [("A1", 4), ("D4", 2)]:
        for ca in classify_algebras(md_of(name, k), pic_of(name, k)):
            members = ca.algebra.support.members
            assert len(members) == len(set(members))


def test_all_ones_matrix_fails_t_condition(md_of):
    md = md_of("A1", 2)
    ones = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(InvarianceViolation):
        verify_modular_invariance(md, ones)


def test_partition_function_rejects_bad_bicharacter(md_of, pic_of):
    md = md_of("A1", 4)
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    good = enumerate_ksbs(z2)[0]
    bad_values = ((Fraction(0), Fraction(1, 3)), (Fraction(0), good.value(1, 1)))
    bad = KSB(z2, bad_values)
    with pytest.raises(NonIntegerEntry):
        partition_function(md, SchellekensAlgebra(z2, bad))
