"""Properties of the whole chain on random algebras: every (series, rank,
level) that the default Config accepts with at most 40 integrable weights.

Examples are drawn derandomized (the profile in conftest), so a run is
repeatable; the oracles are identities of the theory, not recorded values.
"""

import itertools
import math
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wzwkit import (DEFAULT_CONFIG, bimodule_picard, build_bimodule_ring,
                    build_pointed_bimodule_ring, build_root_system, classify_algebras,
                    count_boundary_conditions, find_simple_currents, fold_diagram,
                    integrable_weights, kramers_wannier_candidates, modular_data_from_doc,
                    modular_data_to_doc, orbit_decomposition, parse_lie_type, twining_S)
from wzwkit.affine import _kac_peterson_sum, weyl_order
from wzwkit import affine, lietype
from wzwkit.errors import FixedPointsPresent, PhiUnavailable, WzwError
from wzwkit.residues import mod1
from wzwkit.schellekens import enumerate_subgroups
from wzwkit.twining import PhiRows, PhiValues

from conftest import assert_sorted_symmetric_table, dense, quadruples, t_matrix
from test_bimodule import add_at_ring, fusion_rows_kramers_wannier
from test_groups import assert_matches_oracles
from test_kac_peterson import dense_verlinde, einsum_fusion
from test_picard import CENTER_ORDER, assert_search_matches_catalog, dense_unit_group
from test_root_systems import TYPES, _positive_roots, oracle_root_system
from test_twining import assert_fold_matches_the_scan

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
    for t in TYPES:
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
    """Every algebra of the draw, not a sample: the table is sorted with
    unique keys (i, j, k) and symmetric in i and j, and it holds the nonzero
    entries of the dense slice loop it replaced and of the n^4 einsum."""
    md = md_of(*algebra)
    assert_sorted_symmetric_table(md.fusion, len(md))
    assert np.array_equal(md.fusion, quadruples(dense_verlinde(md.s_matrix)))
    assert np.array_equal(md.fusion, quadruples(einsum_fusion(md.s_matrix)))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_ring_tables_match_the_add_at_oracle(pic_of, algebra):
    """Every algebra of the draw: each bimodule ring (the full one, or the
    pointed one where H has fixed points) is sorted with unique keys and
    symmetric in x and y, and its basis, unit, duals and structure are those
    of the np.add.at construction on the dense fusion tensor."""
    pg = pic_of(*algebra)
    for alg in classify_algebras(pg):
        try:
            ring, objects = build_bimodule_ring(alg), range(len(pg.md))
        except FixedPointsPresent:
            ring, objects = build_pointed_bimodule_ring(alg), sorted(pg.objects)
        assert_sorted_symmetric_table(ring.structure, len(ring))
        basis, structure, unit, dual = add_at_ring(alg, list(objects))
        assert ring.basis == basis and unit == 0  # the unit is class 0
        assert np.array_equal(ring.dual, dual)
        assert np.array_equal(ring.structure, quadruples(structure))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_object_count_is_the_enumerated_count(algebra):
    """Every algebra of the draw: the closed-form |P_+^k| the CLI checks
    against its object cap is the number of weights enumerated, and the
    closed-form comarks are those the positive-root closure gives."""
    name, level = algebra
    t = parse_lie_type(name)
    assert lietype.comarks(t) == oracle_root_system(t)[0].comarks
    assert lietype.object_count(t, level) == len(integrable_weights(t, level))


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
    for alg in classify_algebras(pg):
        assert on_grid(v for row in alg.xi for v in row)
        try:
            ring = build_bimodule_ring(alg)
        except FixedPointsPresent:
            ring = build_pointed_bimodule_ring(alg)
        assert on_grid(x for cls in ring.basis for x in cls.character)
        try:
            count = count_boundary_conditions(alg)
        except PhiUnavailable:
            continue  # a non-cyclic stabilizer needs phi
        assert on_grid(v for eps in count.forms for row in eps for v in row)
    rows = PhiRows(pg)
    everything = range(len(pg))
    for g in everything:
        if not pg.fixed_points[g]:
            continue
        try:
            row = rows.row(g, everything)
        except WzwError:
            continue  # no S^w for g: a fold the catalog lacks
        for _, vals in row.phi:
            if isinstance(vals, PhiValues):
                assert on_grid(vals.residues)


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_group_tables_match_the_oracles(pic_of, algebra):
    """Every algebra of the draw: on the Picard table, the local table of each
    of its subgroups and the unit table of each bimodule ring of a freely
    acting support, the decomposition search and what is read from it equal
    the general-group algorithms it replaced."""
    pg = pic_of(*algebra)
    assert_matches_oracles(pg.table)
    for sub in enumerate_subgroups(pg):
        assert_matches_oracles(sub.local_table)
    for alg in classify_algebras(pg):
        if all(len(o.stabilizer) == 1 for o in orbit_decomposition(alg.support)):
            assert_matches_oracles(build_bimodule_ring(alg).units[1])


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_unit_tables_are_symmetric(pic_of, algebra):
    """Every algebra of the draw: the unit table of each bimodule ring, the
    pointed one and the full one where H acts freely, is symmetric, so
    `bimodule_picard` names an abelian group of the units' order."""
    for alg in classify_algebras(pic_of(*algebra)):
        rings = [build_pointed_bimodule_ring(alg)]
        try:
            rings.append(build_bimodule_ring(alg))
        except FixedPointsPresent:
            pass
        for ring in rings:
            table = np.array(ring.units[1])
            assert np.array_equal(table, table.T)
            assert prod(bimodule_picard(ring).invariant_factors) == len(table)


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_unit_groups_match_the_dense_oracle(pic_of, algebra):
    """Every algebra of the draw, and every pointed and full bimodule ring of
    its algebras: the units that `unit_group` reads by counting rows, with
    their action and table, are those the dense search for permutation rows
    over every element finds, whose closure checks pass; and each class x
    has exactly one row (x, x_bar, unit, 1), so x x_bar holds the unit once
    and no other product holds it."""
    pg = pic_of(*algebra)
    md = pg.md
    objects, action, table = dense_unit_group(md.fusion, len(md))
    assert (pg.objects, pg.table) == (objects, table) and np.array_equal(pg.action, action)
    rings = [(md.fusion, md.vacuum, md.conjugation)]
    for alg in classify_algebras(pg):
        built = [build_pointed_bimodule_ring(alg)]
        try:
            built.append(build_bimodule_ring(alg))
        except FixedPointsPresent:
            pass
        for ring in built:
            positions, _, table = dense_unit_group(ring.structure, len(ring))
            assert ring.units == (positions, table)
            rings.append((ring.structure, 0, ring.dual))
    for structure, unit, dual in rings:
        n = len(dual)
        pairs = np.column_stack((np.arange(n), dual, np.full(n, unit), np.ones(n, dtype=np.int64)))
        assert np.array_equal(structure[structure[:, 2] == unit], pairs)


# Pairs of algebras with one Z whose invariants cannot all be compared yet: a
# boundary count needs phi (PhiUnavailable), or a ring is only the pointed one.
MORITA_PENDING = {"A1:2": 1, "B2:1": 1, "B3:1": 1, "B4:1": 1, "B5:1": 1, "B6:1": 1,
                  "B7:1": 1, "C2:1": 1, "D4:2": 1, "D6:2": 2}


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_algebras_with_one_partition_agree(pic_of, algebra):
    """Every algebra of the draw: algebras with the same Z, the candidates
    for one full CFT, have bimodule Picard groups with equal invariant
    factors, equal boundary counts where neither needs phi, and full rings of
    equal rank with equally many duality candidates.  A pair with an
    invariant that cannot be computed yet is pending, and the pending pairs
    are pinned, so none appears silently."""
    classes = {}
    for alg in classify_algebras(pic_of(*algebra)):
        classes.setdefault(alg.partition.tobytes(), []).append(alg)
    pending = 0
    for algs in classes.values():
        invariants = []
        for alg in algs:
            try:
                count = count_boundary_conditions(alg).total
            except PhiUnavailable:
                count = None
            try:
                ring = build_bimodule_ring(alg)
                full = (len(ring), len(kramers_wannier_candidates(ring)))
            except FixedPointsPresent:
                ring, full = build_pointed_bimodule_ring(alg), None
            invariants.append((bimodule_picard(ring).invariant_factors, count, full))
        for (factors, count, full), (factors2, count2, full2) in itertools.combinations(invariants, 2):
            assert factors == factors2
            if None in (count, count2, full, full2):
                pending += 1
            assert None in (count, count2) or count == count2
            assert None in (full, full2) or full == full2
    assert pending == MORITA_PENDING.get("{}:{}".format(*algebra), 0)


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_diagram_automorphisms_match_the_catalog(pic_of, algebra):
    """Every algebra of the draw: for each current, the automorphism read
    from the fusion action is the per-series catalog's, of an order that the
    current's order divides, and it induces that action on the weights."""
    assert_search_matches_catalog(pic_of(*algebra))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_fixed_points_match_the_label_scan(pic_of, algebra):
    """Every algebra of the draw: the fixed points read from the fusion action
    are those the all-weights label scan under each element's automorphism
    finds, and the fold keeps them as that scan did."""
    assert_fold_matches_the_scan(pic_of(*algebra))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_kramers_wannier_matches_the_dense_oracle(pic_of, algebra):
    """Every algebra of the draw: on each full bimodule ring, the duality
    candidates read from the table in one pass are those read from dense rows."""
    for alg in classify_algebras(pic_of(*algebra)):
        try:
            ring = build_bimodule_ring(alg)
        except FixedPointsPresent:
            continue
        assert kramers_wannier_candidates(ring) == fusion_rows_kramers_wannier(ring)


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_kac_peterson_gram_is_a_multiple_of_the_identity(md_of, algebra):
    """Every algebra of the draw: Shat Shat^dagger is within tolerance * scale
    of scale * 1, scale the mean of its diagonal, which kac_peterson_S
    divides out without comparing."""
    shat = _kac_peterson_sum(md_of(*algebra).level_data)
    gram = shat @ shat.conj().T
    scale = np.mean(np.real(np.diag(gram)))
    assert scale > 0
    assert np.max(np.abs(gram - scale * np.eye(len(gram)))) <= DEFAULT_CONFIG.tolerance * scale


@pytest.mark.parametrize(
    "algebra", [a for a in WITHIN_BUDGET if affine._longest_element_is_minus_one(parse_lie_type(a[0]))],
    ids="{0[0]}:{0[1]}".format)
def test_self_conjugate_sum_is_real_once_normalized(md_of, algebra):
    """Every algebra of the draw with w0 = -1: the Kac-Peterson sum, scaled
    and phased as kac_peterson_S does, has S_00 > 0 and an imaginary part of
    at most 1e-12 (2.6e-15 at worst, on G2:10), so the cast to real that makes
    the S of C(g, k) drops only rounding error."""
    md = md_of(*algebra)
    shat = _kac_peterson_sum(md.level_data)
    s = shat / math.sqrt(np.mean(np.real(np.diag(shat @ shat.conj().T))))
    z = s[md.vacuum, md.vacuum]
    s = s * (abs(z) / z)
    assert s[md.vacuum, md.vacuum].real > 0
    assert np.max(np.abs(s.imag)) <= 1e-12
    assert np.array_equal(md.s_matrix, s.real)


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_conjugation_is_a_vacuum_fixing_involution(md_of, algebra):
    """Every algebra of the draw: the conjugation, whose rows
    conjugation_from_S reads one at a time, is a bijection, fixes the vacuum
    and is its own inverse; and it is the fusion table's own pairing to the
    vacuum, whose rows (i, j, 0, N) are exactly (i, conjugation[i], 0, 1),
    one per i, as the bimodule rings' duals are read."""
    md = md_of(*algebra)
    c = md.conjugation
    n = len(md)
    assert sorted(c) == list(range(n))
    assert c[md.vacuum] == md.vacuum == 0
    assert all(c[c[i]] == i for i in range(n))
    pairs = np.column_stack((np.arange(n), c, np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)))
    assert np.array_equal(md.fusion[md.fusion[:, 2] == 0], pairs)


def _symplectic(rank):
    return "A1" if rank == 1 else f"C{rank}"  # C1 is A1


# (C_n:k, C_k:n) for n <= k, each pair of the draw once; C_n:n is its own dual
_IN_DRAW = {(1 if name == "A1" else int(name[1:]), k)
            for name, k in WITHIN_BUDGET if name == "A1" or name[0] == "C"}
LEVEL_RANK = [((_symplectic(n), k), (_symplectic(k), n))
              for n, k in sorted(_IN_DRAW) if n <= k and (k, n) in _IN_DRAW]


def young_transpose(weight, level):
    """The level-rank image of a C_n weight at level k, a C_k weight at level n:
    its Young diagram p_i = sum_{j >= i} lambda_j, which fits an n x k box,
    transposed and read back as labels."""
    rows = list(itertools.accumulate(reversed(weight)))[::-1]
    columns = [sum(p >= j for p in rows) for j in range(1, level + 1)]
    return tuple(a - b for a, b in zip(columns, [*columns[1:], 0]))


@pytest.mark.parametrize("pair", LEVEL_RANK, ids=lambda p: "{0[0]}:{0[1]}-{1[0]}:{1[1]}".format(*p))
def test_symplectic_level_rank_duality(md_of, pair):
    """Every dual pair of the draw: transposing the Young diagram is a
    bijection of the weights, S_{lambda mu} = S'_{lambda^T mu^T} with no sign,
    and h_lambda + h_{lambda^T} = |lambda| / 2 mod 1 exactly, |lambda| the
    number of boxes (Mlawer, Naculich, Riggs and Schnitzer, Nucl. Phys. B352
    (1991) 863).  On the self-dual C2:2 and C3:3, leaving the weights
    untransposed passes S: only h catches it."""
    (name, k), (dual_name, n) = pair
    md, dual = md_of(name, k), md_of(dual_name, n)
    image = [dual.level_data.index(young_transpose(w, k)) for w in md.weights]
    assert sorted(image) == list(range(len(dual)))
    assert np.max(np.abs(md.s_matrix - dual.s_matrix[np.ix_(image, image)])) < 1e-12
    for h, w, h_dual in zip(md.conformal_weights, md.weights,
                            (dual.conformal_weights[i] for i in image)):
        boxes = sum(itertools.accumulate(reversed(w)))
        assert mod1(h + h_dual - Fraction(boxes, 2)) == 0


def _chain_invariants(pg, image):
    """The multiset of each algebra's (Z, with object i read as image[i], |H|,
    ring rank, pointed only, bimodule Picard invariant factors, number of KW
    candidates, boundary count or None where it needs phi)."""
    out = []
    for alg in pg.algebras:
        z = np.zeros_like(alg.partition)
        z[np.ix_(image, image)] = alg.partition
        try:
            ring, pointed = build_bimodule_ring(alg), False
        except FixedPointsPresent:
            ring, pointed = build_pointed_bimodule_ring(alg), True
        try:
            count = count_boundary_conditions(alg).total
        except PhiUnavailable:
            count = None
        out.append((z.tobytes(), len(alg.support), len(ring), pointed,
                    bimodule_picard(ring).invariant_factors,
                    len(kramers_wannier_candidates(ring)), count))
    return sorted(out, key=repr)


@pytest.mark.parametrize("pair", LEVEL_RANK, ids=lambda p: "{0[0]}:{0[1]}-{1[0]}:{1[1]}".format(*p))
def test_symplectic_level_rank_duality_carries_the_chain(pic_of, pair):
    """Every dual pair of the draw: the Young transpose carries C_n:k's
    algebras onto C_k:n's, the partition matrices with their support orders,
    bimodule rings, ring Picard groups, duality candidates and boundary
    counts.  |H| tells apart the two algebras with one Z of A1:2 and C2:1,
    whose rings differ (the full ring of rank 3 and the pointed one of rank 2)."""
    (name, k), (dual_name, n) = pair
    pg, dual = pic_of(name, k), pic_of(dual_name, n)
    image = [dual.md.level_data.index(young_transpose(w, k)) for w in pg.md.weights]
    assert _chain_invariants(pg, image) == _chain_invariants(dual, range(len(dual.md)))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_picard_table_is_symmetric(pic_of, algebra):
    """Every algebra of the draw: the Picard group's table is abelian, as
    find_simple_currents leaves to the symmetry of the fusion table."""
    table = np.array(pic_of(*algebra).table)
    assert np.array_equal(table, table.T)


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_computed_data_compare_by_identity(pic_of, algebra):
    """Every algebra of the draw: the Picard group, each support, each
    algebra, each orbit of a support, each fold, each phi row and each phi
    value are hashable values, so the classified algebras fill a set with
    one member each, the group found again on the same datum is equal, and
    so is a fold made again.  Modular data and twining matrices compare and
    hash by identity: each is equal to itself and unequal to a recomputed
    copy, and comparing never raises."""
    pg = pic_of(*algebra)
    md = pg.md
    algebras = classify_algebras(pg)
    assert len(set(algebras)) == len(algebras)
    assert all(isinstance(hash(x), int) for x in (pg, *(alg.support for alg in algebras)))
    assert all(isinstance(hash(o), int) for alg in algebras for o in alg.support.orbits)
    assert find_simple_currents(md) == pg
    again = modular_data_from_doc(modular_data_to_doc(md))  # a cache hit's datum
    assert md == md and md != again and len({md, again}) == 2
    assert find_simple_currents(again) != pg
    rows = PhiRows(pg)
    everything = range(len(pg))
    for g in everything:
        try:
            tsm = twining_S(pg, g)
        except (ValueError, WzwError):
            continue  # no fixed points, or a fold the catalog lacks
        assert tsm == tsm and tsm != twining_S(pg, g) and isinstance(hash(tsm), int)
        assert isinstance(hash(tsm.fold), int) and fold_diagram(pg, g) == tsm.fold
        row = rows.row(g, everything)
        assert isinstance(hash(row), int)
        assert all(isinstance(hash(vals), int) for _, vals in row.phi)


def _two_rho_vee(rs):
    """The Dynkin labels of 2 rho-vee, the sum of the positive coroots
    alpha-vee = 2 alpha / (alpha, alpha), from the positive-root closure with
    (alpha_i, alpha_j) = d_j A_ij."""
    n, d, a = rs.rank, rs.half_lengths, rs.cartan
    out = [Fraction(0)] * n
    for c in _positive_roots([list(row) for row in a]):
        half_length = sum(c[i] * c[j] * d[j] * a[i][j] for i in range(n) for j in range(n)) / 2
        for j in range(n):
            out[j] += c[j] * d[j] / half_length
    assert all(x.denominator == 1 for x in out)
    return [int(x) for x in out]


def _frobenius_schur_error(md, s):
    """max_i |nu_2(i) - expected|, nu_2(i) = sum_{j,k} N_jk^i S_0j S_0k
    (theta_j / theta_k)^2 with theta = exp(2 pi i h) (Bantay): 0 unless i is
    self-conjugate, and then (-1)^<lambda, 2 rho-vee>."""
    n = len(md)
    theta2 = np.exp(2j * np.pi * np.array([float(mod1(2 * h)) for h in md.conformal_weights]))
    s0 = s[md.vacuum]
    nu2 = np.einsum("jki,j,k->i", dense(md.fusion, n).astype(np.float64), s0 * theta2, s0 / theta2)
    two_rho_vee = _two_rho_vee(md.level_data.root_system)
    expected = [(-1) ** sum(l * r for l, r in zip(w, two_rho_vee)) if md.conjugation[i] == i else 0
                for i, w in enumerate(md.weights)]
    return float(np.max(np.abs(nu2 - expected)))


def _off_scalar(a, b):
    """max |a - c b| for the least-squares scalar c."""
    c = np.vdot(b, a) / np.vdot(b, b)
    return float(np.max(np.abs(a - c * b)))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_twining_matrices_satisfy_the_modular_relations(pic_of, algebra):
    """Every non-identity fold of the draw: (S^w T^w)^3 = c (S^w)^2 with one
    scalar c, where T^w is T restricted to the fold's fixed points, and
    (S^w)^4 is a scalar.  Multiplying one fixed point's T^w by i breaks the
    first relation on every fold with two fixed points or more."""
    pg = pic_of(*algebra)
    t = np.diag(t_matrix(pg.md))
    for g in range(1, len(pg)):
        if not pg.fixed_points[g]:
            continue
        try:
            s = twining_S(pg, g).matrix
        except WzwError:
            continue  # a fold the catalog lacks
        s2 = s @ s
        tw = t[list(pg.fixed_points[g])]
        assert _off_scalar(np.linalg.matrix_power(s * tw, 3), s2) < 1e-12
        assert _off_scalar(s2 @ s2, np.eye(len(s))) < 1e-12
        if len(tw) > 1:
            tw[0] *= 1j
            assert _off_scalar(np.linalg.matrix_power(s * tw, 3), s2) > 0.5


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_frobenius_schur_indicators(md_of, algebra):
    """Every algebra of the draw: the second Frobenius-Schur indicator read
    from S, T and the fusion rules is 0 on each complex object and the sign
    (-1)^<lambda, 2 rho-vee> on each self-conjugate one, real or
    pseudo-real.  S with S_{0,n-1} = S_{n-1,0} negated fails the check."""
    md = md_of(*algebra)
    tol = DEFAULT_CONFIG.tolerance
    assert _frobenius_schur_error(md, md.s_matrix) < tol
    flipped = np.array(md.s_matrix)
    v, last = md.vacuum, len(md) - 1
    flipped[v, last] = flipped[last, v] = -md.s_matrix[v, last]
    assert _frobenius_schur_error(md, flipped) > tol


def _coroot_ball(gram, radius):
    """The integer vectors n with n^T gram n <= radius, by the Fincke-Pohst
    recursion on gram = r^T r, r upper triangular, last coordinate first."""
    r = np.linalg.cholesky(gram).T
    rank = len(gram)
    out = []

    def extend(i, tail, left):
        if i < 0:
            out.append(tail)
            return
        c = sum(r[i, j] * n for j, n in zip(range(i + 1, rank), tail))
        half = math.sqrt(max(left, 0.0))
        for n in range(math.ceil((-half - c) / r[i, i] - 1e-9),
                       math.floor((half - c) / r[i, i] + 1e-9) + 1):
            extend(i - 1, [n, *tail], left - (r[i, i] * n + c) ** 2)

    extend(rank - 1, [], radius)
    n = np.array(out, dtype=np.float64)
    return n[np.einsum("bi,ij,bj->b", n, gram, n) <= radius]


def _eta(t):
    """Dedekind's eta at tau = it: q^(1/24) prod_n (1 - q^n), q = exp(-2 pi t)."""
    q = math.exp(-2 * math.pi * t)
    out, qn = q ** (1 / 24), q
    while qn > 1e-17:
        out *= 1 - qn
        qn *= q
    return out


def _characters(md, t, cut=60.0):
    """(chi(it), chi(i/t)), chi_lambda for every weight from the Kac-Peterson
    lattice sum, which reads the root system and never S:

        eta^(-dim g) sum_beta prod_{alpha>0} (x + kappa beta, alpha) / (rho, alpha)
                     q^(|x + kappa beta|^2 / (2 kappa)),

    x = lambda + rho, kappa = k + h-vee, beta in the coroot lattice.  Vectors
    are Dynkin labels: (y, y') = y F y'^T, the coroot alpha_i / d_i has the
    labels A_i / d_i and the Gram matrix (alpha_i-vee, alpha_j-vee) = A_ij / d_i,
    and (y, sum_j c_j alpha_j) = sum_j y_j c_j d_j.  The norm cut on beta
    drops exactly the terms whose Gaussian, at the slower side s = min(t, 1/t),
    is below e^-cut of the beta = 0 term's: as |x + kappa beta|^2 - |x|^2 >=
    kappa^2 |beta|^2 - 2 kappa |x| |beta|, those are the beta with
    |beta| > (|x| + sqrt(|x|^2 + kappa cut / (pi s))) / kappa for the largest |x|."""
    rs = md.level_data.root_system
    a = np.array(rs.cartan, dtype=np.float64)
    d = np.array([float(v) for v in rs.half_lengths])
    f = np.array([[float(v) for v in row] for row in rs.quadratic_form])
    pairing = np.array(_positive_roots([list(row) for row in rs.cartan]), dtype=np.float64) * d
    kappa = md.level_data.level + rs.dual_coxeter
    x = np.array(md.weights, dtype=np.float64) + 1
    largest = math.sqrt(np.einsum("wi,ij,wj->w", x, f, x).max())
    slow = min(t, 1 / t)
    radius = ((largest + math.sqrt(largest ** 2 + kappa * cut / (math.pi * slow))) / kappa) ** 2
    beta = (_coroot_ball(a / d[:, None], radius) / d) @ a
    y = x[:, None, :] + kappa * beta  # [weight, beta, label]
    weyl = np.prod(y @ pairing.T / pairing.sum(axis=1), axis=-1)
    norm = np.einsum("wbi,ij,wbj->wb", y, f, y)
    return tuple(_eta(u) ** -rs.dimension * (weyl * np.exp(-np.pi * u * norm / kappa)).sum(axis=1)
                 for u in (t, 1 / t))


@pytest.mark.parametrize("algebra", WITHIN_BUDGET, ids="{0[0]}:{0[1]}".format)
def test_s_transforms_the_characters(md_of, monkeypatch, algebra):
    """Every algebra of the draw: at tau = 1.3i, S carries the specialized
    Kac-Peterson characters at tau to those at -1/tau, chi(-1/tau) = S chi(tau),
    to a relative 1e-12.  The characters are even under conjugation, so this
    sees S summed over conjugate columns.  S with S_01 = S_10 negated (0 the
    vacuum) fails the check.  Where S is summed over more than one coset
    (E6, F4 and G2), so does the sum with any one coset's sign flipped,
    scaled and phased as kac_peterson_S does (its cast to real where
    w0 = -1 would drop the part of the mutant that is not real)."""
    md = md_of(*algebra)
    near, far = _characters(md, 1.3)

    def residual(s):
        return np.max(np.abs(far - s @ near)) / np.max(np.abs(far))

    bound = 1e-12
    assert md.vacuum == 0
    assert residual(md.s_matrix) < bound
    flipped = np.array(md.s_matrix)
    flipped[0, 1] = flipped[1, 0] = -md.s_matrix[0, 1]
    assert residual(flipped) > bound
    ld = md.level_data
    cosets = affine._coset_representatives(ld.root_system, affine._classical_subsystem(ld.lie_type)[0])
    if len(cosets) == 1:
        return  # flipping the one coset negates S, which the phase undoes
    for c in range(len(cosets)):
        mutant = [(cinv, -sign if i == c else sign) for i, (cinv, sign) in enumerate(cosets)]
        monkeypatch.setattr(affine, "_coset_representatives", lambda rs, node: mutant)
        shat = _kac_peterson_sum(ld)
        s = shat / math.sqrt(np.mean(np.real(np.diag(shat @ shat.conj().T))))
        assert residual(s * (abs(s[0, 0]) / s[0, 0])) > bound


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
    f = dense(md.fusion, n).astype(np.float64)
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
    assert len(algebras[0].support) == 1
    assert np.array_equal(algebras[0].partition,
                          np.eye(len(md), dtype=np.int64)[list(md.conjugation)])
    for alg in algebras:
        try:
            count = count_boundary_conditions(alg)
        except PhiUnavailable:
            continue  # a non-cyclic stabilizer needs phi
        assert count.total == sum(alg.partition[i, md.conjugation[i]] for i in range(len(md)))


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
    currents and the classes over them."""
    md, pg = md_of(*algebra), pic_of(*algebra)
    currents = set(pg.objects)
    assert _permutation_rows(dense(md.fusion, len(md))) == currents
    global_dim = 1.0 / abs(md.s_matrix[md.vacuum, md.vacuum]) ** 2
    free = 0
    for alg in classify_algebras(pg):
        orbits = orbit_decomposition(alg.support)
        if any(len(o.stabilizer) > 1 for o in orbits):
            with pytest.raises(FixedPointsPresent):
                build_bimodule_ring(alg)
            continue
        free += 1
        ring = build_bimodule_ring(alg)
        z = alg.partition
        assert len(ring) == np.trace(z @ z.T)
        dims = sum(md.quantum_dims[cls.object_index] ** 2 for cls in ring.basis)
        assert dims == pytest.approx(global_dim, rel=DEFAULT_CONFIG.tolerance)
        over = {x for x, cls in enumerate(ring.basis) if cls.object_index in currents}
        assert _permutation_rows(dense(ring.structure, len(ring))) == over == set(ring.units[0])
    assert free >= 1
