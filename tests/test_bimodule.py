import numpy as np
import pytest

from wzwkit import (
    act_on_boundaries,
    bimodule_picard,
    build_bimodule_ring,
    build_pointed_bimodule_ring,
    classify_algebras,
    kramers_wannier_candidates,
    orbit_decomposition,
)
from wzwkit.errors import DualityValidationFailure, FixedPointsPresent


def _algebra(md_of, pic_of, name, k, support_size):
    md = md_of(name, k)
    for ca in classify_algebras(md, pic_of(name, k)):
        if len(ca.algebra.support) == support_size:
            return md, ca.algebra
    raise AssertionError


def _assert_associative(ring):
    n = ring.structure
    lhs = np.einsum("ijm,mkl->ijkl", n, n)
    rhs = np.einsum("jkm,iml->ijkl", n, n)
    assert np.array_equal(lhs, rhs)


def _assert_unit(ring):
    n = len(ring)
    e = ring.unit
    for x in range(n):
        assert np.array_equal(ring.structure[e, x], np.eye(n, dtype=np.int64)[x])
        assert np.array_equal(ring.structure[x, e], np.eye(n, dtype=np.int64)[x])


def test_cardy_ring_is_fusion_ring(md_of, pic_of):
    md, algebra = _algebra(md_of, pic_of, "A1", 3, 1)
    ring = build_bimodule_ring(md, algebra)
    assert len(ring) == len(md)
    assert np.array_equal(ring.structure, md.fusion)
    _assert_unit(ring)


def test_a2_level2_free_ring(md_of, pic_of):
    md, algebra = _algebra(md_of, pic_of, "A2", 2, 3)
    ring = build_bimodule_ring(md, algebra)
    assert len(ring) == 6  # |I| |H*| / |H| = 6*3/3
    _assert_associative(ring)
    _assert_unit(ring)
    bp = bimodule_picard(ring)
    assert len(bp) == 3
    assert bp.iso_class_name == "Z3"


def test_fixed_points_refused(md_of, pic_of):
    md, algebra = _algebra(md_of, pic_of, "A1", 4, 2)
    with pytest.raises(FixedPointsPresent) as err:
        build_bimodule_ring(md, algebra)
    assert (2,) in err.value.fixed_weights


def test_pointed_ring_sizes(md_of, pic_of):
    md, cardy = _algebra(md_of, pic_of, "A1", 2, 1)
    ring = build_pointed_bimodule_ring(md, cardy)
    assert len(ring) == 2  # group ring of Z2
    md4, alg4 = _algebra(md_of, pic_of, "A1", 4, 2)
    ring4 = build_pointed_bimodule_ring(md4, alg4)
    assert len(ring4) == 2  # 2*2/2
    _assert_associative(ring4)
    mdd, algd = _algebra(md_of, pic_of, "D4", 1, 2)
    ringd = build_pointed_bimodule_ring(mdd, algd)
    assert len(ringd) == 4  # 4*2/2
    _assert_associative(ringd)


def test_ising_bimodule_picard(md_of, pic_of):
    md, cardy = _algebra(md_of, pic_of, "A1", 2, 1)
    bp = bimodule_picard(build_bimodule_ring(md, cardy))
    assert bp.invariant_factors == (2,)
    assert bp.iso_class_name == "Z2"


def test_trivial_support_picard_is_picard(md_of, pic_of):
    md, cardy = _algebra(md_of, pic_of, "A3", 2, 1)
    bp = bimodule_picard(build_bimodule_ring(md, cardy))
    assert len(bp) == 4
    assert bp.invariant_factors == (4,)


def test_picard_order_formula(md_of, pic_of):
    """|Pic(C_A|A)| = |H*| |Pic| / |H| for free actions."""
    for name, k, size in [("A2", 2, 3), ("A2", 1, 3), ("A3", 1, 4), ("A3", 1, 2)]:
        md = md_of(name, k)
        for ca in classify_algebras(md, pic_of(name, k)):
            if len(ca.algebra.support) != size:
                continue
            try:
                ring = build_bimodule_ring(md, ca.algebra)
            except FixedPointsPresent:
                continue
            bp = bimodule_picard(ring)
            pic = len(pic_of(name, k))
            h = len(ca.algebra.support)
            assert len(bp) == h * pic // h


def test_representative_independence(md_of, pic_of):
    """Building from non-minimal orbit representatives gives the same tensor
    after relabeling through canonicalization."""
    md, algebra = _algebra(md_of, pic_of, "A2", 2, 3)
    base = build_bimodule_ring(md, algebra)
    rng = np.random.default_rng(11)
    pg = algebra.picard
    for _ in range(4):
        choice = {}
        for rep in sorted(set(base._orbit_rep.values())):
            orbit = sorted({pg.act(g, rep) for g in algebra.support.members})
            choice[rep] = int(rng.choice(orbit))
        other = build_bimodule_ring(md, algebra, representative_choice=choice)
        relabel = [
            base.canonical_index(cls.object_index, cls.character) for cls in other.basis
        ]
        assert sorted(relabel) == list(range(len(base)))
        for x in range(len(other)):
            for y in range(len(other)):
                for z in range(len(other)):
                    assert (
                        other.structure[x, y, z]
                        == base.structure[relabel[x], relabel[y], relabel[z]]
                    )


def test_act_on_boundaries_cardy(md_of, pic_of):
    md, cardy = _algebra(md_of, pic_of, "A1", 2, 1)
    ring = build_bimodule_ring(md, cardy)
    dec = orbit_decomposition(md, cardy.support)
    bp = bimodule_picard(ring)
    identity_perm = act_on_boundaries(ring, ring.unit, dec)
    assert identity_perm == tuple(range(len(dec)))
    eps_pos = [x for x in bp.positions if x != ring.unit][0]
    perm = act_on_boundaries(ring, eps_pos, dec)
    # fusion with the order-2 current reverses 0 <-> 2 and fixes sigma
    assert perm == (2, 1, 0)


def test_act_on_boundaries_free_case(md_of, pic_of):
    md, algebra = _algebra(md_of, pic_of, "A2", 2, 3)
    ring = build_bimodule_ring(md, algebra)
    dec = orbit_decomposition(md, algebra.support)
    for x in bimodule_picard(ring).positions:
        perm = act_on_boundaries(ring, x, dec)
        assert sorted(perm) == list(range(len(dec)))
        # the current maps each vacuum-orbit class into the same orbit
        assert perm == tuple(range(len(dec)))


def test_act_on_boundaries_requires_invertible(md_of, pic_of):
    md, cardy = _algebra(md_of, pic_of, "A1", 2, 1)
    ring = build_bimodule_ring(md, cardy)
    dec = orbit_decomposition(md, cardy.support)
    sigma = next(
        x for x, cls in enumerate(ring.basis) if cls.object_index == 1
    )
    with pytest.raises(ValueError):
        act_on_boundaries(ring, sigma, dec)


def test_ising_kramers_wannier(md_of, pic_of):
    md, cardy = _algebra(md_of, pic_of, "A1", 2, 1)
    ring = build_bimodule_ring(md, cardy)
    kw = kramers_wannier_candidates(ring)
    assert [c.object_index for c in kw] == [1]


def test_a1_level4_no_kramers_wannier(md_of, pic_of):
    md, cardy = _algebra(md_of, pic_of, "A1", 4, 1)
    ring = build_bimodule_ring(md, cardy)
    assert kramers_wannier_candidates(ring) == []


def test_invertibles_never_candidates(md_of, pic_of):
    for name, k in [("A1", 2), ("A2", 2), ("A3", 2)]:
        md, cardy = _algebra(md_of, pic_of, name, k, 1)
        ring = build_bimodule_ring(md, cardy)
        invertible = set(ring.invertible_positions())
        for cls in kramers_wannier_candidates(ring):
            assert ring._index[cls] not in invertible


def test_larger_rank_ring_and_boundaries(md_of, pic_of):
    """(A5,2), H = Z3: a free action on 21 objects with a Z6 ambient Picard
    group; exercises ranks and counts beyond the small-rank examples."""
    from wzwkit import count_boundary_conditions

    md, algebra = _algebra(md_of, pic_of, "A5", 2, 3)
    ring = build_bimodule_ring(md, algebra)
    assert len(ring) == 21  # 21 * 3 / 3
    _assert_associative(ring)
    _assert_unit(ring)
    bp = bimodule_picard(ring)
    assert len(bp) == 6  # |H*| |Pic| / |H| = 3 * 6 / 3
    assert bp.iso_class_name == "Z6"
    # Ishibashi matching for the Z2-supported algebra of the same category
    md2, alg2 = _algebra(md_of, pic_of, "A5", 2, 2)
    count = count_boundary_conditions(md2, alg2)
    from wzwkit import partition_function

    z = partition_function(md2, alg2)
    assert count.total == sum(z[i, md2.conjugation[i]] for i in range(len(md2)))


def test_duality_validation_failure_on_corrupt_ring():
    import dataclasses

    from wzwkit import modular_data, find_simple_currents
    from wzwkit.schellekens import SchellekensAlgebra, enumerate_ksbs, enumerate_subgroups

    md = modular_data("A1", 2)
    pg = find_simple_currents(md)
    trivial = enumerate_subgroups(pg)[0]
    ring = build_bimodule_ring(md, SchellekensAlgebra(trivial, enumerate_ksbs(trivial)[0]))
    corrupt = np.array(ring.structure)
    corrupt[1, 1, 0] = 0  # remove the unit from sigma x sigma
    bad = dataclasses.replace(ring, structure=corrupt)
    with pytest.raises(DualityValidationFailure):
        kramers_wannier_candidates(bad)
