"""Properties of the whole chain on random algebras: every (series, rank,
level) that the default Config accepts with at most 40 integrable weights.

Examples are drawn derandomized (the profile in conftest), so a run is
repeatable; the oracles are identities of the theory, not recorded values.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wzwkit import (DEFAULT_CONFIG, build_bimodule_ring, build_root_system, classify_algebras,
                    count_boundary_conditions, orbit_decomposition)
from wzwkit.affine import SimpleLieType, t_matrix, weyl_order
from wzwkit.errors import FixedPointsPresent, PhiUnavailable, UnsupportedRank
from wzwkit.residues import mod1

from test_picard import CENTER_ORDER

MAX_OBJECTS = 40


def _object_count(comarks, level):
    """|P_+^k|: the label vectors with sum(comark_i * label_i) <= level."""
    ways = [1] + [0] * level  # ways[s]: vectors over the nodes so far with weighted sum s
    for c in comarks:
        for s in range(c, level + 1):
            ways[s] += ways[s - c]
    return sum(ways)


def _algebras_within_budget():
    out = []
    for series in "ABCDEFG":
        for rank in range(1, DEFAULT_CONFIG.rank_cap + 1):
            try:
                t = SimpleLieType(series, rank)
            except UnsupportedRank:
                continue
            if weyl_order(t) > DEFAULT_CONFIG.weyl_cap:
                continue
            comarks = build_root_system(t).comarks
            level = 1
            while _object_count(comarks, level) <= MAX_OBJECTS:
                out.append((str(t), level))
                level += 1
    return out


ALGEBRAS = st.sampled_from(_algebras_within_budget())


@given(ALGEBRAS)
def test_modular_relations_and_associative_fusion(md_of, algebra):
    md = md_of(*algebra)
    n = len(md)
    assert n <= MAX_OBJECTS
    s = md.s_matrix
    tol = DEFAULT_CONFIG.tolerance
    assert np.max(np.abs(s - s.T)) < tol
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < tol
    assert np.max(np.abs(np.linalg.matrix_power(s @ t_matrix(md), 3) - s @ s)) < tol
    # sum_m N_ij^m N_mk^l = sum_m N_jk^m N_im^l; the products are exact in float64
    f = md.fusion.astype(np.float64)
    lhs = f.reshape(n * n, n) @ f.reshape(n, n * n)  # [ij, kl]
    rhs = f.reshape(n * n, n) @ f  # [i, jk, l]
    assert np.array_equal(lhs.reshape(n, n, n, n), rhs.reshape(n, n, n, n))


@given(ALGEBRAS)
def test_picard_order_and_charge_characters(md_of, pic_of, algebra):
    name, level = algebra
    md, pg = md_of(name, level), pic_of(name, level)
    rule = CENTER_ORDER[name[0]]
    center = rule[int(name[1:])] if isinstance(rule, dict) else rule(int(name[1:]))
    # E8 level 2 has the exceptional simple current of its Ising-like fusion
    assert len(pg) == (2 if algebra == ("E8", 2) else center)
    for i in range(len(md)):
        assert pg.charge(i, 0) == 0
        for a in range(len(pg)):
            for b in range(len(pg)):
                assert pg.charge(i, pg.table[a][b]) == mod1(pg.charge(i, a) + pg.charge(i, b))


@given(ALGEBRAS)
def test_cardy_case_and_boundary_completeness(md_of, pic_of, algebra):
    md, pg = md_of(*algebra), pic_of(*algebra)
    algebras = classify_algebras(pg)
    assert len(algebras[0].algebra.support) == 1
    assert np.array_equal(algebras[0].partition,
                          np.eye(len(md), dtype=np.int64)[list(md.conjugation)])
    for ca in algebras:
        try:
            count = count_boundary_conditions(ca.algebra)
        except PhiUnavailable:
            continue  # a non-cyclic stabilizer needs phi
        assert count.total == sum(ca.partition[i, md.conjugation[i]] for i in range(len(md)))


@given(ALGEBRAS)
def test_bimodule_ring_rank_and_dimension(md_of, pic_of, algebra):
    """For a support acting freely, the simple A-A-bimodules number
    trace(Z Z^T) (Fuchs-Runkel-Schweigert), and their squared dimensions sum
    to the global dimension 1/|S_00|^2; a support with fixed points is refused."""
    md, pg = md_of(*algebra), pic_of(*algebra)
    global_dim = 1.0 / abs(md.s_matrix[md.vacuum, md.vacuum]) ** 2
    free = 0
    for ca in classify_algebras(pg):
        orbits = orbit_decomposition(ca.algebra.support).orbits
        if any(len(o.stabilizer) > 1 for o in orbits):
            with pytest.raises(FixedPointsPresent):
                build_bimodule_ring(ca.algebra)
            continue
        free += 1
        ring = build_bimodule_ring(ca.algebra)
        z = ca.partition
        assert len(ring) == np.trace(z @ z.T)
        dims = sum(md.quantum_dims[cls.object_index] ** 2 for cls in ring.basis)
        assert dims == pytest.approx(global_dim, rel=DEFAULT_CONFIG.tolerance)
    assert free >= 1
