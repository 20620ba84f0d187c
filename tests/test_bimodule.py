import numpy as np
import pytest

from wzwkit import (
    bimodule_picard,
    build_bimodule_ring,
    build_pointed_bimodule_ring,
    classify_algebras,
    kramers_wannier_candidates,
)
from wzwkit.errors import DualityValidationFailure, FixedPointsPresent


def _algebra(pic_of, name, k, support_size):
    for ca in classify_algebras(pic_of(name, k)):
        if len(ca.algebra.support) == support_size:
            return ca.algebra
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


def test_cardy_ring_is_fusion_ring(pic_of):
    algebra = _algebra(pic_of, "A1", 3, 1)
    md = algebra.picard.md
    ring = build_bimodule_ring(algebra)
    assert len(ring) == len(md)
    assert np.array_equal(ring.structure, md.fusion)
    _assert_unit(ring)


def test_a2_level2_free_ring(pic_of):
    algebra = _algebra(pic_of, "A2", 2, 3)
    ring = build_bimodule_ring(algebra)
    assert len(ring) == 6  # |I| |H*| / |H| = 6*3/3
    _assert_associative(ring)
    _assert_unit(ring)
    bp = bimodule_picard(ring)
    assert len(bp) == 3
    assert bp.iso_class_name == "Z3"


def test_fixed_points_refused(pic_of):
    algebra = _algebra(pic_of, "A1", 4, 2)
    with pytest.raises(FixedPointsPresent) as err:
        build_bimodule_ring(algebra)
    assert (2,) in err.value.fixed_weights


def test_pointed_ring_sizes(pic_of):
    cardy = _algebra(pic_of, "A1", 2, 1)
    ring = build_pointed_bimodule_ring(cardy)
    assert len(ring) == 2  # group ring of Z2
    alg4 = _algebra(pic_of, "A1", 4, 2)
    ring4 = build_pointed_bimodule_ring(alg4)
    assert len(ring4) == 2  # 2*2/2
    _assert_associative(ring4)
    algd = _algebra(pic_of, "D4", 1, 2)
    ringd = build_pointed_bimodule_ring(algd)
    assert len(ringd) == 4  # 4*2/2
    _assert_associative(ringd)


def test_ising_bimodule_picard(pic_of):
    cardy = _algebra(pic_of, "A1", 2, 1)
    bp = bimodule_picard(build_bimodule_ring(cardy))
    assert bp.invariant_factors == (2,)
    assert bp.iso_class_name == "Z2"


def test_trivial_support_picard_is_picard(pic_of):
    cardy = _algebra(pic_of, "A3", 2, 1)
    bp = bimodule_picard(build_bimodule_ring(cardy))
    assert len(bp) == 4
    assert bp.invariant_factors == (4,)


def test_picard_order_formula(pic_of):
    """|Pic(C_A|A)| = |H*| |Pic| / |H| for free actions."""
    for name, k, size in [("A2", 2, 3), ("A2", 1, 3), ("A3", 1, 4), ("A3", 1, 2)]:
        for ca in classify_algebras(pic_of(name, k)):
            if len(ca.algebra.support) != size:
                continue
            try:
                ring = build_bimodule_ring(ca.algebra)
            except FixedPointsPresent:
                continue
            bp = bimodule_picard(ring)
            pic = len(pic_of(name, k))
            h = len(ca.algebra.support)
            assert len(bp) == h * pic // h


@pytest.mark.parametrize("name,k", [("A2", 2), ("A3", 1), ("A5", 2), ("D4", 3)])
def test_dual_is_the_class_that_pairs_to_the_unit(name, k, pic_of):
    """N_{x y}^1 = [y = dual(x)], on rings whose characters have order 3, 4 or 6."""
    for ca in classify_algebras(pic_of(name, k)):
        for build in (build_bimodule_ring, build_pointed_bimodule_ring):
            try:
                ring = build(ca.algebra)
            except FixedPointsPresent:
                continue
            n = len(ring)
            assert np.array_equal(ring.structure[:, :, ring.unit], np.eye(n, dtype=np.int64)[ring.dual])


def test_ising_kramers_wannier(pic_of):
    cardy = _algebra(pic_of, "A1", 2, 1)
    ring = build_bimodule_ring(cardy)
    kw = kramers_wannier_candidates(ring)
    assert [c.object_index for c in kw] == [1]


def test_a1_level4_no_kramers_wannier(pic_of):
    cardy = _algebra(pic_of, "A1", 4, 1)
    ring = build_bimodule_ring(cardy)
    assert kramers_wannier_candidates(ring) == []


def test_invertibles_never_candidates(pic_of):
    for name, k in [("A1", 2), ("A2", 2), ("A3", 2)]:
        cardy = _algebra(pic_of, name, k, 1)
        ring = build_bimodule_ring(cardy)
        invertible = set(ring.invertible_positions())
        for cls in kramers_wannier_candidates(ring):
            assert ring.basis.index(cls) not in invertible


def test_larger_rank_ring_and_boundaries(pic_of):
    """(A5,2), H = Z3: a free action on 21 objects with a Z6 ambient Picard
    group; exercises ranks and counts beyond the small-rank examples."""
    from wzwkit import count_boundary_conditions

    algebra = _algebra(pic_of, "A5", 2, 3)
    ring = build_bimodule_ring(algebra)
    assert len(ring) == 21  # 21 * 3 / 3
    _assert_associative(ring)
    _assert_unit(ring)
    bp = bimodule_picard(ring)
    assert len(bp) == 6  # |H*| |Pic| / |H| = 3 * 6 / 3
    assert bp.iso_class_name == "Z6"
    # Ishibashi matching for the Z2-supported algebra of the same category
    alg2 = _algebra(pic_of, "A5", 2, 2)
    count = count_boundary_conditions(alg2)
    from wzwkit import partition_function

    z = partition_function(alg2)
    md = alg2.picard.md
    assert count.total == sum(z[i, md.conjugation[i]] for i in range(len(md)))


def test_duality_validation_failure_on_corrupt_ring():
    import dataclasses

    from wzwkit import modular_data, find_simple_currents
    from wzwkit.schellekens import SchellekensAlgebra, enumerate_ksbs, enumerate_subgroups

    md = modular_data("A1", 2)
    pg = find_simple_currents(md)
    trivial = enumerate_subgroups(pg)[0]
    ring = build_bimodule_ring(SchellekensAlgebra(trivial, enumerate_ksbs(trivial)[0]))
    corrupt = np.array(ring.structure)
    corrupt[1, 1, 0] = 0  # remove the unit from sigma x sigma
    bad = dataclasses.replace(ring, structure=corrupt)
    with pytest.raises(DualityValidationFailure):
        kramers_wannier_candidates(bad)
