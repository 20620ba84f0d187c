import re
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
from wzwkit.errors import (
    InvarianceViolation,
    NonIntegerEntry,
    QuadraticFormViolation,
)
from wzwkit.residues import mod1
from wzwkit.schellekens import SchellekensAlgebra, Subgroup

from conftest import CATALOG


def monodromy_charge(md, pg, i, a):
    """Q_i(g) = h_{g.i} - h_g - h_i mod 1, from the definition (independent of pg's table)."""
    hs = md.conformal_weights
    return mod1(hs[pg.action[a, i]] - hs[pg.objects[a]] - hs[i])


def test_subgroup_counts(pic_of):
    assert len(enumerate_subgroups(pic_of("A1", 2))) == 2    # Z2
    assert len(enumerate_subgroups(pic_of("A3", 1))) == 3    # Z4
    assert len(enumerate_subgroups(pic_of("D4", 1))) == 5    # Z2 x Z2
    assert len(enumerate_subgroups(pic_of("A2", 1))) == 2    # Z3


def test_trivial_subgroup_has_one_ksb(pic_of):
    sub = enumerate_subgroups(pic_of("A1", 5))[0]
    assert len(sub) == 1
    algebras = enumerate_ksbs(sub)
    assert algebras == [SchellekensAlgebra(sub, ((0,),))]


def test_a1_level4_unique_ksb(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    algebras = enumerate_ksbs(z2)
    assert len(algebras) == 1
    assert algebras[0].support == z2
    assert algebras[0].xi[1][1] == 0  # Xi(J, J) = +1, h_J = 1


def test_a1_level5_no_z2_ksb(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 5)) if len(s) == 2][0]
    assert enumerate_ksbs(z2) == []  # theta_J is a primitive 8th root


def test_a1_level6_ksb_is_minus_one(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 6)) if len(s) == 2][0]
    algebras = enumerate_ksbs(z2)
    assert len(algebras) == 1
    assert algebras[0].xi[1][1] == z2.picard.charge_den // 2  # Xi(J, J) = 1/2


def test_ksb_diagonal_holds_on_all_elements(pic_of):
    for name, k in CATALOG:
        for sub in enumerate_subgroups(pic_of(name, k)):
            for algebra in enumerate_ksbs(sub):
                for a in range(len(sub)):
                    assert algebra.xi[a][a] == sub.picard.twists[sub.members[a]]


def test_ksb_symmetric_part_is_monodromy_pairing(pic_of, md_of):
    """Xi(g,h) + Xi(h,g) = Q_g(h) as residues: forced by the diagonal
    condition plus bi-additivity."""
    for name, k in CATALOG:
        md = md_of(name, k)
        pg = pic_of(name, k)
        for sub in enumerate_subgroups(pg):
            for algebra in enumerate_ksbs(sub):
                for a, g in enumerate(sub.members):
                    for b, h in enumerate(sub.members):
                        q = monodromy_charge(md, pg, pg.objects[g], h)
                        xi = algebra.xi[a][b] + algebra.xi[b][a]
                        assert mod1(Fraction(xi, pg.charge_den)) == q


def test_cardy_partition_is_conjugation(md_of, pic_of):
    for name, k in [("A1", 3), ("A2", 2), ("D4", 2), ("G2", 3)]:
        md = md_of(name, k)
        trivial = enumerate_subgroups(pic_of(name, k))[0]
        algebra = enumerate_ksbs(trivial)[0]
        z = partition_function(algebra)
        assert z.dtype == np.int64 and not z.flags.writeable
        for i in range(len(md)):
            for j in range(len(md)):
                assert z[i, j] == (1 if md.conjugation[i] == j else 0)


def test_a1_level4_d_even_matrix(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    algebra = enumerate_ksbs(z2)[0]
    z = partition_function(algebra)
    expected = {(0, 0): 1, (0, 4): 1, (4, 0): 1, (4, 4): 1, (2, 2): 2}
    for i in range(5):
        for j in range(5):
            assert z[i, j] == expected.get((i, j), 0)


def test_a1_level6_d_odd_matrix(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 6)) if len(s) == 2][0]
    algebra = enumerate_ksbs(z2)[0]
    z = partition_function(algebra)
    for i in range(7):
        for j in range(7):
            if i % 2 == 0:
                assert z[i, j] == (1 if i == j else 0)
            else:
                assert z[i, j] == (1 if j == 6 - i else 0)


@pytest.mark.parametrize("name,k", CATALOG)
def test_all_classified_algebras_are_modular_invariant(name, k, md_of, pic_of):
    md = md_of(name, k)
    for alg in classify_algebras(pic_of(name, k)):
        assert verify_modular_invariance(md, alg.partition) < 1e-8
        assert alg.partition[md.vacuum, md.vacuum] == 1


def test_algebra_counts(pic_of):
    assert len(classify_algebras(pic_of("A1", 5))) == 1
    assert len(classify_algebras(pic_of("A1", 4))) == 2
    # (D4,2): sum over the 5 subgroups of their KSB counts
    pg = pic_of("D4", 2)
    total = sum(len(enumerate_ksbs(s)) for s in enumerate_subgroups(pg))
    assert len(classify_algebras(pg)) == total
    assert classify_algebras(pg) == classify_algebras(pg)
    assert total >= 4


def test_transpose_ksb_transposes_partition(pic_of):
    for name, k in [("A3", 2), ("A3", 3), ("D4", 2), ("A2", 2)]:
        for alg in classify_algebras(pic_of(name, k)):
            flipped = SchellekensAlgebra(alg.support, tuple(zip(*alg.xi)))
            zt = partition_function(flipped)
            assert np.array_equal(zt, alg.partition.T)


def test_multiplicity_bound(pic_of):
    """Each invertible object appears in A with multiplicity at most one:
    supports are duplicate-free element sets by construction."""
    for name, k in [("A1", 4), ("D4", 2)]:
        for alg in classify_algebras(pic_of(name, k)):
            members = alg.support.members
            assert len(members) == len(set(members))


def test_all_ones_matrix_fails_t_condition(md_of):
    md = md_of("A1", 2)
    ones = np.ones((3, 3), dtype=np.int64)
    with pytest.raises(InvarianceViolation):
        verify_modular_invariance(md, ones)


def _eye_with(n, i, j, value):
    z = np.eye(n, dtype=np.int64)
    z[i, j] = value
    return z


@pytest.mark.parametrize("z,message", [
    (np.eye(4, dtype=np.int64), "partition matrix has wrong shape"),
    (_eye_with(5, 1, 3, -1), "negative entry"),
    (2 * np.eye(5, dtype=np.int64), "Z00 = 2 != 1"),
    # SZ - ZS is S's column 2 off the diagonal, largest at |S_02| = 1/sqrt(3)
    (_eye_with(5, 2, 2, 2), "commutator norm 5.774e-01 exceeds tolerance"),
])
def test_invariance_refusals_name_their_check(md_of, z, message):
    with pytest.raises(InvarianceViolation, match=f"^{re.escape(message)}$"):
        verify_modular_invariance(md_of("A1", 4), z)


def test_partition_function_rejects_bad_bicharacter(pic_of):
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    good = enumerate_ksbs(z2)[0]
    third = z2.picard.charge_den // 3
    with pytest.raises(NonIntegerEntry):  # Xi(J, J) = h_J, Xi(1, J) = 1/3
        SchellekensAlgebra(z2, ((0, third), (0, good.xi[1][1])))


def test_partition_function_refuses_fraction_values(pic_of):
    """Xi values are numerators over charge_den; Fractions are refused, not truncated."""
    z2 = [s for s in enumerate_subgroups(pic_of("A1", 6)) if len(s) == 2][0]
    with pytest.raises(NonIntegerEntry, match="not integer numerators over 32"):
        SchellekensAlgebra(z2, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2))))


def test_xi_off_the_twist_diagonal_is_refused(pic_of):
    """On D6:2 the current of support (0, 1) has twist 1/2, so Xi = 0, the
    bicharacter of support (0, 3), is no algebra on it.  Unchecked, Z would
    fail the T-condition and the pointed ring would come out with rank 4;
    the algebra is refused when it is made."""
    pg = pic_of("D6", 2)
    assert 2 * pg.twists[1] == pg.charge_den
    zero = enumerate_ksbs(Subgroup(pg, (0, 3)))[0].xi
    assert zero == ((0, 0), (0, 0))
    message = r"^Xi\(g, g\) != h_g for support element 1$"
    with pytest.raises(QuadraticFormViolation, match=message):
        SchellekensAlgebra(Subgroup(pg, (0, 1)), zero)
