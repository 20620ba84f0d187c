import re

import pytest

from wzwkit import (
    classify_algebras,
    count_boundary_conditions,
    enumerate_ksbs,
    enumerate_subgroups,
    epsilon_form,
    orbit_decomposition,
)
from wzwkit.boundary import Orbit, _stabilizer_is_cyclic
from wzwkit.errors import NonIntegerEntry, PhiUnavailable, QuadraticFormViolation
from wzwkit.schellekens import SchellekensAlgebra, Subgroup

from conftest import CATALOG
from test_properties import WITHIN_BUDGET


def _algebra_with_support(pg, size):
    for alg in classify_algebras(pg):
        if len(alg.support) == size:
            return alg
    raise AssertionError(f"no algebra with support of order {size}")


def test_a1_level4_orbits(pic_of):
    sub = [s for s in enumerate_subgroups(pic_of("A1", 4)) if len(s) == 2][0]
    orbits = orbit_decomposition(sub)
    orbit_sets = sorted(tuple(o.members) for o in orbits)
    assert orbit_sets == [(0, 4), (1, 3), (2,)]
    stab_sizes = {tuple(o.members): len(o.stabilizer) for o in orbits}
    assert stab_sizes[(2,)] == 2
    assert stab_sizes[(0, 4)] == 1


def test_trivial_support_gives_singletons(md_of, pic_of):
    md = md_of("A2", 2)
    sub = enumerate_subgroups(pic_of("A2", 2))[0]
    orbits = orbit_decomposition(sub)
    assert len(orbits) == len(md)
    assert all(len(o.members) == 1 for o in orbits)


def test_a2_level2_free_orbits(pic_of):
    sub = [s for s in enumerate_subgroups(pic_of("A2", 2)) if len(s) == 3][0]
    orbits = orbit_decomposition(sub)
    assert len(orbits) == 2
    assert all(len(o.members) == 3 and len(o.stabilizer) == 1 for o in orbits)


@pytest.mark.parametrize("name,k", [*CATALOG, *(a for a in WITHIN_BUDGET if a not in CATALOG)])
def test_orbit_stabilizer_identity(name, k, md_of, pic_of):
    """The catalog and every algebra of the property draw: the orbits of each
    support partition the weights, and |orbit| |stabilizer| = |H|, which
    orbit_decomposition leaves to the action being a group action."""
    md = md_of(name, k)
    for sub in enumerate_subgroups(pic_of(name, k)):
        orbits = orbit_decomposition(sub)
        assert sum(len(o.members) for o in orbits) == len(md)
        for o in orbits:
            assert len(o.members) * len(o.stabilizer) == len(sub)
            assert len(sub) % len(o.members) == 0


def scalar_orbit_decomposition(sub):
    """The per-object loop that reading the action rows replaced: each object
    not yet placed opens the orbit of its images, led by the least of them."""
    pg = sub.picard
    placed = set()
    orbits = []
    for i in range(len(pg.md)):
        if i in placed:
            continue
        members = sorted({int(pg.action[g, i]) for g in sub.members})
        rep = members[0]
        stab = tuple(g for g in sub.members if pg.action[g, rep] == rep)
        placed.update(members)
        orbits.append(Orbit(tuple(members), stab))
    return tuple(orbits)


@pytest.mark.parametrize("name,k", [*CATALOG, ("A5", 3), ("D4", 4), ("D5", 2), ("D6", 2), ("A7", 2)])
def test_orbits_match_scalar_loop(name, k, pic_of):
    """The same members, each orbit led by its representative, and the same
    stabilizers, in the same order, for every subgroup."""
    for sub in enumerate_subgroups(pic_of(name, k)):
        assert orbit_decomposition(sub) == scalar_orbit_decomposition(sub)


def test_epsilon_trivial_on_cyclic_stabilizer(pic_of):
    sub = [s for s in enumerate_subgroups(pic_of("A1", 6)) if len(s) == 2][0]
    algebra = enumerate_ksbs(sub)[0]
    fixed = [o for o in orbit_decomposition(sub) if len(o.stabilizer) == 2][0]
    eps = epsilon_form(fixed, algebra)  # Xi(J,J) = -1 yet eps must vanish
    assert all(v == 0 for row in eps for v in row)


def test_epsilon_needs_phi_for_noncyclic(pic_of):
    pg = pic_of("D4", 2)
    full = [s for s in enumerate_subgroups(pg) if len(s) == 4][0]
    algebra = enumerate_ksbs(full)[0]
    noncyclic = [o for o in orbit_decomposition(full) if len(o.stabilizer) == 4]
    assert noncyclic, "expected a fully-stabilized weight at (D4, 2)"
    with pytest.raises(PhiUnavailable):
        epsilon_form(noncyclic[0], algebra)


def test_epsilon_with_supplied_phi(pic_of):
    """Feeding a phi table exercises the non-cyclic branch: eps = phi + Xi^T
    on the one independent off-diagonal pair of Z2 x Z2.

    Any KSB on the stabilizer is a legitimate phi (same defining property),
    so the stabilizer's own KSB list provides valid tables.
    """
    pg = pic_of("D4", 2)
    full = [s for s in enumerate_subgroups(pg) if len(s) == 4][0]
    orbit = [o for o in orbit_decomposition(full) if len(o.stabilizer) == 4][0]
    u = orbit.members[0]
    stab_sub = Subgroup(pg, orbit.stabilizer)
    phi_ksbs = enumerate_ksbs(stab_sub)
    assert len(phi_ksbs) == 2  # trivial and the perfect pairing
    radicals = set()
    for algebra in enumerate_ksbs(full):
        for phi_ksb in phi_ksbs:
            table = {
                (u, g, h): phi_ksb.xi[a][b]
                for a, g in enumerate(orbit.stabilizer)
                for b, h in enumerate(orbit.stabilizer)
            }
            eps = epsilon_form(orbit, algebra, table)
            n = len(orbit.stabilizer)
            for a in range(n):
                assert eps[a][a] == 0
                for b in range(n):
                    assert (eps[a][b] + eps[b][a]) % pg.charge_den == 0
            radicals.add(sum(not any(row) for row in eps))
    # both the transparent and the perfectly-paired form occur
    assert radicals == {1, 4}


def test_boundary_counts_match_ade_node_counts(pic_of):
    alg = _algebra_with_support(pic_of("A1", 4), 2)
    count = count_boundary_conditions(alg)
    assert count.total == 4  # D4 diagram nodes
    assert [o.members[0] for o in alg.support.orbits] == [0, 1, 2]
    assert count.per_orbit == (1, 1, 2)
    alg6 = _algebra_with_support(pic_of("A1", 6), 2)
    count6 = count_boundary_conditions(alg6)
    assert count6.total == 5  # D5 diagram nodes
    assert [o.members[0] for o in alg6.support.orbits] == [0, 1, 2, 3]
    assert count6.per_orbit == (1, 1, 1, 2)


def test_cardy_count_is_object_count(md_of, pic_of):
    for name, k in [("A1", 3), ("A2", 2), ("B2", 2)]:
        md = md_of(name, k)
        trivial = enumerate_subgroups(pic_of(name, k))[0]
        algebra = enumerate_ksbs(trivial)[0]
        assert count_boundary_conditions(algebra).total == len(md)


@pytest.mark.parametrize("name,k", CATALOG)
def test_completeness_identity(name, k, md_of, pic_of):
    """Boundary count equals sum_i Z_{i, i_bar}: the Ishibashi matching.

    Algebras whose stabilizers need an unsupported folding for phi are
    skipped (reported via PhiUnavailable), not silently accepted.
    """
    md = md_of(name, k)
    for alg in classify_algebras(pic_of(name, k)):
        try:
            count = count_boundary_conditions(alg)
        except PhiUnavailable:
            assert name == "D4", "only D-series stabilizers are non-cyclic here"
            continue
        ishibashi = sum(alg.partition[i, md.conjugation[i]] for i in range(len(md)))
        assert count.total == ishibashi


@pytest.mark.parametrize("name,k", CATALOG)
def test_count_carries_each_orbits_epsilon_form(name, k, pic_of):
    for alg in classify_algebras(pic_of(name, k)):
        try:
            count = count_boundary_conditions(alg)
        except PhiUnavailable:
            continue
        orbits = orbit_decomposition(alg.support)
        assert count.per_orbit == tuple(sum(not any(row) for row in eps) for eps in count.forms)
        assert count.forms == tuple(epsilon_form(o, alg) for o in orbits)


def test_free_action_count_equals_orbit_count(pic_of):
    alg = _algebra_with_support(pic_of("A2", 2), 3)
    count = count_boundary_conditions(alg)
    assert count.total == 2 == len(orbit_decomposition(alg.support))


def test_cyclic_stabilizer_test_matches_decomposition(pic_of):
    """The order test on a stabilizer agrees with its cyclic decomposition,
    on cyclic and non-cyclic stabilizers alike."""
    seen = set()
    for name, k in [*CATALOG, ("D4", 4)]:
        pg = pic_of(name, k)
        for sub in enumerate_subgroups(pg):
            for o in orbit_decomposition(sub):
                oracle = len(Subgroup(pg, o.stabilizer).decomposition) <= 1
                assert _stabilizer_is_cyclic(pg, o.stabilizer) == oracle
                seen.add(oracle)
    assert seen == {True, False}


@pytest.mark.parametrize("xi,error,message", [
    (((0, 0), (0, 0)), QuadraticFormViolation, "Xi(g, g) != h_g for support element 1"),
    (((0, 5), (0, 24)), NonIntegerEntry, "Xi is not a bihomomorphism on H x H"),
], ids=["off-the-twist-diagonal", "not-a-bihomomorphism"])
def test_invalid_xi_gets_no_boundary_count(xi, error, message, pic_of):
    """On D6:2 with support (0, 1), neither Xi is an algebra: the first has
    Xi(J, J) = 0 where h_J = 1/2, the second is not additive.  The algebra is
    refused when it is made, so no boundary count is ever taken of it (once a
    count of 11 came back for both)."""
    support = Subgroup(pic_of("D6", 2), (0, 1))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        count_boundary_conditions(SchellekensAlgebra(support, xi))


def test_boundaries_decompose_each_support_once(capsys, monkeypatch):
    """A boundaries report reads each algebra's orbits for its blob and its
    count from the support's one decomposition: D4:4 has 6 algebras on 5
    supports, so 5 decompositions, where the blob and the count once made
    12."""
    import json

    from wzwkit import boundary
    from wzwkit.cli import run

    calls = []
    decompose = boundary.orbit_decomposition

    def counted(sub):
        calls.append(sub)
        return decompose(sub)

    monkeypatch.setattr(boundary, "orbit_decomposition", counted)
    assert run(["boundaries", "D4", "4", "--no-cache"]) == 0
    assert len(json.loads(capsys.readouterr().out)["payload"]["algebras"]) == 6
    assert len(calls) == len({id(sub) for sub in calls}) == 5
