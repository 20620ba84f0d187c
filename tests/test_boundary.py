import pytest

from wzwkit import (
    classify_algebras,
    count_boundary_conditions,
    enumerate_ksbs,
    enumerate_subgroups,
    epsilon_form,
    orbit_decomposition,
)
from wzwkit.boundary import _stabilizer_is_cyclic
from wzwkit.errors import PhiUnavailable
from wzwkit.schellekens import SchellekensAlgebra, Subgroup

from conftest import CATALOG


def _algebra_with_support(pg, size):
    for ca in classify_algebras(pg):
        if len(ca.algebra.support) == size:
            return ca
    raise AssertionError(f"no algebra with support of order {size}")


def test_a1_level4_orbits(pic_of):
    sub = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    dec = orbit_decomposition(sub)
    orbit_sets = sorted(tuple(o.members) for o in dec.orbits)
    assert orbit_sets == [(0, 4), (1, 3), (2,)]
    stab_sizes = {tuple(o.members): len(o.stabilizer) for o in dec.orbits}
    assert stab_sizes[(2,)] == 2
    assert stab_sizes[(0, 4)] == 1


def test_trivial_support_gives_singletons(md_of, pic_of):
    md = md_of("A2", 2)
    sub = enumerate_subgroups(pic_of("A2", 2))[0]
    dec = orbit_decomposition(sub)
    assert len(dec.orbits) == len(md)
    assert all(len(o.members) == 1 for o in dec.orbits)


def test_a2_level2_free_orbits(pic_of):
    sub = [s for s in enumerate_subgroups(pic_of("A2", 2)) if len(s) == 3][0]
    dec = orbit_decomposition(sub)
    assert len(dec.orbits) == 2
    assert all(len(o.members) == 3 and len(o.stabilizer) == 1 for o in dec.orbits)


@pytest.mark.parametrize("name,k", CATALOG)
def test_orbit_stabilizer_identity(name, k, md_of, pic_of):
    md = md_of(name, k)
    for sub in enumerate_subgroups(pic_of(name, k)):
        dec = orbit_decomposition(sub)
        assert sum(len(o.members) for o in dec.orbits) == len(md)
        for o in dec.orbits:
            assert len(o.members) * len(o.stabilizer) == len(sub)
            assert len(sub) % len(o.members) == 0


def test_epsilon_trivial_on_cyclic_stabilizer(pic_of):
    sub = [s for s in enumerate_subgroups(pic_of("A1", 6)) if len(s) == 2][0]
    ksb = enumerate_ksbs(sub)[0]
    dec = orbit_decomposition(sub)
    fixed = [o for o in dec.orbits if len(o.stabilizer) == 2][0]
    eps = epsilon_form(fixed, ksb)  # Xi(J,J) = -1 yet eps must vanish
    assert all(v == 0 for row in eps.values for v in row)


def test_epsilon_needs_phi_for_noncyclic(pic_of):
    pg = pic_of("D4", 2)
    full = [s for s in enumerate_subgroups(pg) if len(s) == 4][0]
    ksb = enumerate_ksbs(full)[0]
    dec = orbit_decomposition(full)
    noncyclic = [o for o in dec.orbits if len(o.stabilizer) == 4]
    assert noncyclic, "expected a fully-stabilized weight at (D4, 2)"
    with pytest.raises(PhiUnavailable):
        epsilon_form(noncyclic[0], ksb)


def test_epsilon_with_supplied_phi(pic_of):
    """Feeding a phi table exercises the non-cyclic branch: eps = phi + Xi^T
    on the one independent off-diagonal pair of Z2 x Z2.

    Any KSB on the stabilizer is a legitimate phi (same defining property),
    so the stabilizer's own KSB list provides valid tables.
    """
    pg = pic_of("D4", 2)
    full = [s for s in enumerate_subgroups(pg) if len(s) == 4][0]
    dec = orbit_decomposition(full)
    orbit = [o for o in dec.orbits if len(o.stabilizer) == 4][0]
    u = orbit.representative
    stab_sub = Subgroup(pg, orbit.stabilizer)
    phi_ksbs = enumerate_ksbs(stab_sub)
    assert len(phi_ksbs) == 2  # trivial and the perfect pairing
    radicals = set()
    for ksb in enumerate_ksbs(full):
        for phi_ksb in phi_ksbs:
            table = {
                (u, g, h): phi_ksb.values[a][b]
                for a, g in enumerate(orbit.stabilizer)
                for b, h in enumerate(orbit.stabilizer)
            }
            eps = epsilon_form(orbit, ksb, table)
            n = len(orbit.stabilizer)
            for a in range(n):
                assert eps.values[a][a] == 0
                for b in range(n):
                    assert (eps.values[a][b] + eps.values[b][a]) % pg.charge_den == 0
            radicals.add(eps.radical_size())
    # both the transparent and the perfectly-paired form occur
    assert radicals == {1, 4}


def test_boundary_counts_match_ade_node_counts(pic_of):
    ca = _algebra_with_support(pic_of("A1", 4), 2)
    count = count_boundary_conditions(ca.algebra)
    assert count.total == 4  # D4 diagram nodes
    assert dict(count.per_orbit) == {0: 1, 1: 1, 2: 2}
    ca6 = _algebra_with_support(pic_of("A1", 6), 2)
    count6 = count_boundary_conditions(ca6.algebra)
    assert count6.total == 5  # D5 diagram nodes
    assert count6.per_orbit == ((0, 1), (1, 1), (2, 1), (3, 2))


def test_cardy_count_is_object_count(md_of, pic_of):
    for name, k in [("A1", 3), ("A2", 2), ("B2", 2)]:
        md = md_of(name, k)
        trivial = enumerate_subgroups(pic_of(name, k))[0]
        algebra = SchellekensAlgebra(trivial, enumerate_ksbs(trivial)[0])
        assert count_boundary_conditions(algebra).total == len(md)


@pytest.mark.parametrize("name,k", CATALOG)
def test_completeness_identity(name, k, md_of, pic_of):
    """Boundary count equals sum_i Z_{i, i_bar}: the Ishibashi matching.

    Algebras whose stabilizers need an unsupported folding for phi are
    skipped (reported via PhiUnavailable), not silently accepted.
    """
    md = md_of(name, k)
    for ca in classify_algebras(pic_of(name, k)):
        try:
            count = count_boundary_conditions(ca.algebra)
        except PhiUnavailable:
            assert name == "D4", "only D-series stabilizers are non-cyclic here"
            continue
        ishibashi = sum(ca.partition[i, md.conjugation[i]] for i in range(len(md)))
        assert count.total == ishibashi


@pytest.mark.parametrize("name,k", CATALOG)
def test_count_carries_each_orbits_epsilon_form(name, k, pic_of):
    for ca in classify_algebras(pic_of(name, k)):
        try:
            count = count_boundary_conditions(ca.algebra)
        except PhiUnavailable:
            continue
        orbits = count.orbits.orbits
        assert count.forms == tuple(epsilon_form(o, ca.algebra.ksb) for o in orbits)


def test_free_action_count_equals_orbit_count(pic_of):
    ca = _algebra_with_support(pic_of("A2", 2), 3)
    count = count_boundary_conditions(ca.algebra)
    assert count.total == 2 == len(count.orbits.orbits)


def test_cyclic_stabilizer_test_matches_decomposition(pic_of):
    """The order test on a stabilizer agrees with its cyclic decomposition,
    on cyclic and non-cyclic stabilizers alike."""
    seen = set()
    for name, k in [*CATALOG, ("D4", 4)]:
        pg = pic_of(name, k)
        for sub in enumerate_subgroups(pg):
            for o in orbit_decomposition(sub).orbits:
                oracle = len(Subgroup(pg, o.stabilizer).decomposition) <= 1
                assert _stabilizer_is_cyclic(pg, o.stabilizer) == oracle
                seen.add(oracle)
    assert seen == {True, False}
