"""Properties of the whole chain on random algebras: every (series, rank,
level) that the default Config accepts with at most 40 integrable weights.

Examples are drawn derandomized (the profile in conftest), so a run is
repeatable; the oracles are identities of the theory, not recorded values.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wzwkit import (DEFAULT_CONFIG, build_bimodule_ring, build_pointed_bimodule_ring,
                    build_root_system, classify_algebras, count_boundary_conditions,
                    orbit_decomposition)
from wzwkit.affine import SimpleLieType, t_matrix, weyl_order
from wzwkit.errors import FixedPointsPresent, PhiUnavailable, UnsupportedRank, WzwError
from wzwkit.twining import PhiRows, PhiValues, fixed_points

from test_kac_peterson import einsum_fusion
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


WITHIN_BUDGET = _algebras_within_budget()
ALGEBRAS = st.sampled_from(WITHIN_BUDGET)


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_verlinde_matches_einsum_and_is_symmetric(md_of, algebra):
    """Every algebra of the draw, not a sample: the i <= j slices and their
    mirrored columns equal the n^4 einsum, and N_ij^k = N_ji^k."""
    md = md_of(*algebra)
    assert np.array_equal(md.fusion, einsum_fusion(md.s_matrix))
    assert np.array_equal(md.fusion, md.fusion.transpose(1, 0, 2))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_residues_lie_on_the_charge_grid(pic_of, algebra):
    """Every algebra of the draw: the group exponent divides charge_den, and
    the charges, the twists, every KSB value, every character of a bimodule
    class (of the full ring, or the pointed one where H has fixed points),
    every phi of the phi rows and every eps form that needs no phi table are
    integers in [0, charge_den)."""
    pg = pic_of(*algebra)
    den = pg.charge_den
    assert den % pg.exponent == 0

    def on_grid(values):
        return all(type(v) is int and 0 <= v < den for v in values)

    assert on_grid(pg.charges.flatten().tolist()) and on_grid(pg.twists.tolist())
    for ca in classify_algebras(pg):
        assert on_grid(v for row in ca.algebra.ksb.values for v in row)
        try:
            ring = build_bimodule_ring(ca.algebra)
        except FixedPointsPresent:
            ring = build_pointed_bimodule_ring(ca.algebra)
        assert on_grid(x for cls in ring.basis for x in cls.character)
        try:
            count = count_boundary_conditions(ca.algebra)
        except PhiUnavailable:
            continue  # a non-cyclic stabilizer needs phi
        assert on_grid(v for eps in count.forms for row in eps.values for v in row)
    rows = PhiRows(pg)
    everything = range(len(pg))
    for g in everything:
        if not fixed_points(pg, g):
            continue
        try:
            row = rows.row(g, everything)
        except WzwError:
            continue  # no S^w for g: a fold the catalog lacks
        for vals in row.phi.values():
            if isinstance(vals, PhiValues):
                assert on_grid(vals.by_weight.values())


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
    q = pg.charges.tolist()  # [i][a]: Q_i(g_a) over charge_den
    for i in range(len(md)):
        assert q[i][0] == 0
        for a in range(len(pg)):
            for b in range(len(pg)):
                assert q[i][pg.table[a][b]] == (q[i][a] + q[i][b]) % pg.charge_den


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


def _permutation_rows(structure):
    """Every x whose row structure[x] is a permutation matrix: its rows, sorted,
    are the identity's rows, sorted."""
    identity = sorted(np.eye(len(structure), dtype=int).tolist())
    return {x for x, row in enumerate(structure.tolist()) if sorted(row) == identity}


@given(ALGEBRAS)
def test_bimodule_ring_rank_and_dimension(md_of, pic_of, algebra):
    """For a support acting freely, the simple A-A-bimodules number
    trace(Z Z^T) (Fuchs-Runkel-Schweigert), and their squared dimensions sum
    to the global dimension 1/|S_00|^2; a support with fixed points is refused.
    The invertible elements, searched over every basis element, are the simple
    currents and the classes over them: no prefilter drops one."""
    md, pg = md_of(*algebra), pic_of(*algebra)
    currents = {el.object_index for el in pg.elements}
    assert _permutation_rows(md.fusion) == currents
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
        over = {x for x, cls in enumerate(ring.basis) if cls.object_index in currents}
        assert _permutation_rows(ring.structure) == over == set(ring.invertible_positions())
    assert free >= 1
