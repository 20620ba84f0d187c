import dataclasses
import itertools
import re
import tracemalloc
from math import prod

import numpy as np
import pytest

from wzwkit import (
    bimodule_picard,
    build_bimodule_ring,
    build_pointed_bimodule_ring,
    classify_algebras,
    kramers_wannier_candidates,
)
from wzwkit.affine import fusion_rows
from wzwkit.bimodule import BimoduleClass
from wzwkit.errors import FixedPointsPresent, WzwError

from conftest import dense, quadruples
from test_picard import TAMPERED, dense_unit_group


def add_at_ring(algebra, objects):
    """(basis, structure, unit, dual) of the bimodule ring on objects, the
    structure as the dense rank^3 tensor: the library's construction before its
    quadruple table, which fused the representatives' block of the dense
    fusion tensor and landed every coefficient by one np.add.at."""
    sub = algebra.support
    pg = algebra.picard
    md = pg.md
    den = pg.charge_den
    objs = np.array(objects, dtype=np.intp)

    # orbits of H on the chosen object set; the action must be free
    act = pg.action[list(sub.members)]  # [h, i]
    moved = act[:, objs]  # [h, k]: g_h . objs[k]
    fixed = sorted(set(objs[(moved[1:] == objs).any(axis=0)].tolist()))
    if fixed:
        raise FixedPointsPresent([md.weights[i] for i in fixed])
    if not np.isin(moved, objs).all():
        raise WzwError("object set is not closed under the H-action")
    xi = np.array(algebra.xi)  # [a, h]: Xi(g_a, g_h)
    rep = moved.min(axis=0)  # [k]: the least object of the orbit of objs[k]
    reps = np.array(sorted(set(rep.tolist())), dtype=np.intp)  # not np.unique: it loads numpy.ma
    shift_by = (act[:, rep] == objs).argmax(axis=0)  # [k]: the h with g_h . rep = objs[k]

    # character code c: the digits of c in itertools.product order are its
    # values m_j / o_j on the generators; chars[c] are its values on the members
    gens = [g for g, _ in sub.decomposition]
    orders = np.array([o for _, o in sub.decomposition], dtype=np.int64)
    radix = np.array([prod(orders[j + 1:].tolist()) for j in range(len(gens))], dtype=np.int64)
    digits = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
    nchar = len(digits)
    exps = np.array([sub.exponents[a] for a in range(len(sub))], dtype=np.int64)
    chars = digits * (den // orders) @ exps.T % den  # [c, a]

    def code(m: np.ndarray) -> np.ndarray:
        return m % orders @ radix

    by_value = np.lexsort(chars.T[::-1])  # the codes in the order of their values
    rank = np.argsort(by_value)  # [c]: the position of chars[c] in that order
    add = code(digits[:, None] + digits)  # [c, d]: chars[c] + chars[d]
    shift = code(xi[gens][:, shift_by].T * orders // den)  # [k]: Xi(., h) for that h
    characters = list(map(tuple, chars[by_value].tolist()))
    basis = tuple(BimoduleClass(r, ch) for r in reps.tolist() for ch in characters)
    expected = len(objects) * nchar // len(sub)
    if len(basis) != expected:
        raise WzwError(f"rank {len(basis)} != |I||H*|/|H| = {expected}")

    # canon[k, c]: basis position of the class of (object k, chars[c]); -1
    # where k is outside the object set
    canon = np.full((len(md), nchar), -1, dtype=np.intp)
    canon[objs] = np.searchsorted(reps, rep)[:, None] * nchar + rank[add[:, shift].T]
    fusion = dense(md.fusion, len(md))[np.ix_(reps, reps)]  # [p, q, k]: basis objects fused
    nz = np.argwhere(fusion)
    if (canon[nz[:, 2], 0] < 0).any():
        raise WzwError("fusion leaves the object set")
    p, q, k = nz.T
    a, b = np.arange(nchar)[:, None], np.arange(nchar)[None, :]
    x = p[:, None, None] * nchar + rank[a]
    y = q[:, None, None] * nchar + rank[b]
    z = canon[k[:, None, None], add[a, b]]
    mult = np.broadcast_to(fusion[p, q, k][:, None, None], z.shape)
    n = len(basis)
    structure = np.zeros((n, n, n), dtype=np.int64)
    np.add.at(structure, (x, y, z), mult)
    dual = np.empty(n, dtype=np.intp)
    dual[np.arange(len(reps))[:, None] * nchar + rank] = canon[
        np.asarray(md.conjugation)[reps][:, None], code(-digits)
    ]
    return basis, structure, int(canon[md.vacuum, 0]), dual


def _algebra(pic_of, name, k, support_size):
    for alg in classify_algebras(pic_of(name, k)):
        if len(alg.support) == support_size:
            return alg
    raise AssertionError


def _assert_associative(ring):
    n = dense(ring.structure, len(ring))
    lhs = np.einsum("ijm,mkl->ijkl", n, n)
    rhs = np.einsum("jkm,iml->ijkl", n, n)
    assert np.array_equal(lhs, rhs)


def _assert_unit(ring):
    n = len(ring)
    e = 0  # the unit is class 0
    structure = dense(ring.structure, n)
    for x in range(n):
        assert np.array_equal(structure[e, x], np.eye(n, dtype=np.int64)[x])
        assert np.array_equal(structure[x, e], np.eye(n, dtype=np.int64)[x])


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


@pytest.mark.parametrize("tamper,message", TAMPERED)
def test_tampered_ring_fails_closure(tamper, message, pic_of):
    """The A1:4 Cardy ring is its fusion ring, class x over object x: the
    dense oracle that the properties run on every ring refuses a corrupt
    structure with the messages it gives on the fusion table."""
    ring = build_bimodule_ring(_algebra(pic_of, "A1", 4, 1))
    assert [cls.object_index for cls in ring.basis] == list(range(5))
    bad = quadruples(tamper(dense(ring.structure, 5)))
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        dense_unit_group(bad, len(ring))


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
        for alg in classify_algebras(pic_of(name, k)):
            if len(alg.support) != size:
                continue
            try:
                ring = build_bimodule_ring(alg)
            except FixedPointsPresent:
                continue
            bp = bimodule_picard(ring)
            pic = len(pic_of(name, k))
            h = len(alg.support)
            assert len(bp) == h * pic // h


@pytest.mark.parametrize("name,k", [("A2", 2), ("A3", 1), ("A5", 2), ("D4", 3)])
def test_dual_is_the_class_that_pairs_to_the_unit(name, k, pic_of):
    """On rings whose characters have order 3, 4 or 6, where the dual is read
    from the unit rows: each class x has exactly one row (x, y, unit, N), with
    N = 1, and x -> y is an involution fixing the unit."""
    for alg in classify_algebras(pic_of(name, k)):
        for build in (build_bimodule_ring, build_pointed_bimodule_ring):
            try:
                ring = build(alg)
            except FixedPointsPresent:
                continue
            n = len(ring)
            rows = ring.structure[ring.structure[:, 2] == 0]
            assert np.array_equal(rows[:, 0], np.arange(n)) and np.all(rows[:, 3] == 1)
            assert np.array_equal(ring.dual, rows[:, 1]) and ring.dual[0] == 0
            assert np.array_equal(ring.dual[ring.dual], np.arange(n))


def fusion_rows_kramers_wannier(ring):
    """The duality candidates as the library found them before it read every
    b (x) b_dual from the table in one pass: the dense (1, n, n) block of b's
    row, read by fusion_rows, at column b_dual, whose unit multiplicity must
    be one, with the invertible classes found by the dense oracle."""
    invertible = set(dense_unit_group(ring.structure, len(ring))[0])
    out = []
    for x, cls in enumerate(ring.basis):
        if x in invertible:
            continue
        row = fusion_rows(ring.structure, [x], len(ring))[0, ring.dual[x]]
        if row[0] != 1:
            raise AssertionError(
                f"unit multiplicity {row[0]} in b (x) b_dual for basis element {x}"
            )
        if all(int(k) in invertible for k in np.nonzero(row)[0]):
            out.append(cls)
    return out


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
        invertible = set(ring.units[0])
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
    """The dense duality oracle, run on every full ring of the draw, refuses
    a ring whose b (x) b_dual misses the unit."""
    from wzwkit import modular_data, find_simple_currents
    from wzwkit.schellekens import enumerate_ksbs, enumerate_subgroups

    md = modular_data("A1", 2)
    pg = find_simple_currents(md)
    trivial = enumerate_subgroups(pg)[0]
    ring = build_bimodule_ring(enumerate_ksbs(trivial)[0])
    corrupt = dense(ring.structure, len(ring))
    corrupt[1, 1, 0] = 0  # remove the unit from sigma x sigma
    bad = dataclasses.replace(ring, structure=quadruples(corrupt))
    message = "^unit multiplicity 0 in b \\(x\\) b_dual for basis element 1$"
    with pytest.raises(AssertionError, match=message):
        fusion_rows_kramers_wannier(bad)


def test_each_ring_finds_its_units_once(capsys, monkeypatch):
    """A bimodules report builds one ring per algebra; each ring runs
    unit_group once, and its Picard group and duality candidates read that."""
    import json

    from wzwkit import bimodule
    from wzwkit.cli import run

    calls = []
    unit_group = bimodule.unit_group

    def counted(*args):
        calls.append(args)
        return unit_group(*args)

    monkeypatch.setattr(bimodule, "unit_group", counted)
    assert run(["bimodules", "A3", "4", "--no-cache"]) == 0
    rings = len(json.loads(capsys.readouterr().out)["payload"]["algebras"])
    assert rings > 1
    assert len(calls) == rings


def test_ring_build_holds_no_rank_cubed_array(pic_of):
    """The A3:6 Cardy ring is its fusion ring, of rank 84: building it peaks
    below the 4.5 MiB that its dense int64 structure alone would take."""
    algebra = _algebra(pic_of, "A3", 6, 1)
    tracemalloc.start()
    try:
        ring = build_bimodule_ring(algebra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ring) == 84
    assert np.array_equal(ring.structure, algebra.picard.md.fusion)
    assert peak < 84**3 * 8
