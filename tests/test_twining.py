from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wzwkit import (
    build_phi_table,
    classify_algebras,
    diagram_automorphism,
    extract_phi,
    fixed_points,
    fold_diagram,
    twining_S,
    verify_conjecture,
)
from wzwkit.errors import LambdaDependence, UnsupportedFolding
from wzwkit.residues import mod1
from wzwkit.twining import TwiningSMatrix, conjecture_checks, phi_row


def test_fixed_points_a1(md_of, pic_of):
    assert fixed_points(md_of("A1", 4), pic_of("A1", 4), 1) == (2,)
    assert fixed_points(md_of("A1", 5), pic_of("A1", 5), 1) == ()


def test_fixed_points_a3_rotation_by_two(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    fixed = fixed_points(md, pg, jsq)
    assert tuple(md.weights[i] for i in fixed) == ((0, 1, 0), (1, 0, 1))


def test_fold_identity(md_of, pic_of):
    md = md_of("A1", 4)
    pg = pic_of("A1", 4)
    fold = fold_diagram(md.level_data, diagram_automorphism(pg, 0))
    assert fold.folded_rank == md.level_data.lie_type.rank
    assert fold.folded_level == 4
    assert fold.weight_map == {i: i for i in range(len(md))}


def test_fold_a1_swap(md_of, pic_of):
    md = md_of("A1", 4)
    pg = pic_of("A1", 4)
    fold = fold_diagram(md.level_data, diagram_automorphism(pg, 1))
    assert fold.folded_rank == 0
    assert fold.folded_level == 2
    assert list(fold.weight_map) == [2]


def test_fold_a3_rotation(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    fold = fold_diagram(md.level_data, diagram_automorphism(pg, jsq))
    assert (fold.folded_series, fold.folded_rank, fold.folded_level) == ("A", 1, 1)
    named = {md.weights[i]: fold.folded_level_data.weights[x] for i, x in fold.weight_map.items()}
    assert named == {(0, 1, 0): (0,), (1, 0, 1): (1,)}


def test_fold_rejects_indivisible_order(md_of, pic_of):
    md = md_of("A1", 5)
    pg = pic_of("A1", 5)
    with pytest.raises(UnsupportedFolding):
        fold_diagram(md.level_data, diagram_automorphism(pg, 1))


def test_fold_rejects_non_a_series(md_of, pic_of):
    md = md_of("D4", 2)
    pg = pic_of("D4", 2)
    nontrivial = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    with pytest.raises(UnsupportedFolding):
        fold_diagram(md.level_data, diagram_automorphism(pg, nontrivial))


def test_twining_matrix_a3(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    tsm = twining_S(md, pg, jsq)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(tsm.matrix - expected)) < 1e-12
    assert np.max(np.abs(tsm.matrix - tsm.matrix.T)) < 1e-8
    assert np.max(np.abs(tsm.matrix @ tsm.matrix.conj().T - np.eye(2))) < 1e-8


def test_twining_matrix_single_fixed_point(md_of, pic_of):
    md = md_of("A1", 4)
    pg = pic_of("A1", 4)
    tsm = twining_S(md, pg, 1)
    assert tsm.matrix.shape == (1, 1)
    assert abs(tsm.matrix[0, 0] - 1) < 1e-12


def test_twining_trivial_element_is_s(md_of, pic_of):
    md = md_of("A1", 3)
    pg = pic_of("A1", 3)
    tsm = twining_S(md, pg, 0)
    assert np.max(np.abs(tsm.matrix - md.s_matrix)) < 1e-12


def test_identity_fold_reuses_s(md_of, pic_of, monkeypatch):
    from wzwkit import twining

    def recompute(*args, **kwargs):
        raise AssertionError("S recomputed for the identity fold")

    monkeypatch.setattr(twining, "kac_peterson_S", recompute)
    md = md_of("D4", 2)
    tsm = twining_S(md, pic_of("D4", 2), 0)
    assert np.array_equal(tsm.matrix, md.s_matrix)


def test_twining_requires_fixed_points(md_of, pic_of):
    with pytest.raises(ValueError):
        twining_S(md_of("A1", 5), pic_of("A1", 5), 1)


def test_phi_identity_element_is_zero(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    tsm = twining_S(md, pg, jsq)
    vals = extract_phi(pg, tsm, jsq, 0)
    assert all(v == 0 for v in vals.by_weight.values())


def test_phi_values_a3(md_of, pic_of):
    """Frozen from the hand evaluation of the ratio identity with the
    closed-form 2x2 folded S-matrix."""
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    tsm = twining_S(md, pg, jsq)
    j = next(a for a in range(len(pg)) if pg.elements[a].order == 4)
    swap = extract_phi(pg, tsm, jsq, j)
    assert set(swap.by_weight.values()) == {Fraction(1, 2)}
    diag = extract_phi(pg, tsm, jsq, jsq)
    assert set(diag.by_weight.values()) == {Fraction(0)}
    assert diag.by_weight == {i: pg.twists[jsq] for i in tsm.fixed_points}


def test_phi_ratio_survives_global_phase(md_of, pic_of):
    """The candidate is a ratio, so rescaling S^w by any phase is invisible."""
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    tsm = twining_S(md, pg, jsq)
    rng = np.random.default_rng(3)
    for _ in range(3):
        phase = np.exp(2j * np.pi * rng.uniform())
        spun = TwiningSMatrix(tsm.fixed_points, tsm.matrix * phase, tsm.fold)
        for h in range(len(pg)):
            a = extract_phi(pg, tsm, jsq, h)
            b = extract_phi(pg, spun, jsq, h)
            assert a.by_weight == b.by_weight


def test_perturbation_trips_lambda_independence(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    tsm = twining_S(md, pg, jsq)
    j = next(a for a in range(len(pg)) if pg.elements[a].order == 4)
    bad = np.array(tsm.matrix, copy=True)
    bad[0, 0] += 1e-3
    with pytest.raises(LambdaDependence):
        extract_phi(pg, TwiningSMatrix(tsm.fixed_points, bad, tsm.fold), jsq, j)


def test_snap_failure_on_consistent_irrational_phase(md_of, pic_of):
    """A matrix engineered so every reference agrees on a phase that is not a
    root of unity must fail the snap, not the spread check."""
    from wzwkit.errors import SnapFailure

    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    j = next(a for a in range(len(pg)) if pg.elements[a].order == 4)
    tsm = twining_S(md, pg, jsq)
    z = np.exp(2j * np.pi * 0.13)
    crafted = np.array([[z, 1.0], [1.0, -np.conj(z)]]) / np.sqrt(2)
    with pytest.raises(SnapFailure):
        extract_phi(pg, TwiningSMatrix(tsm.fixed_points, crafted, tsm.fold), jsq, j)


def _a3_rows(md_of, pic_of):
    """The phi rows of (A3,2) over its whole Picard group, and its elements
    of order 2 and 4."""
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    members = tuple(range(len(pg)))
    rows = [phi_row(md, pg, g, members) for g in members if fixed_points(md, pg, g)]
    jsq = next(a for a in members if pg.elements[a].order == 2)
    j = next(a for a in members if pg.elements[a].order == 4)
    return pg, rows, jsq, j


def test_validator_passes_clean_rows(md_of, pic_of):
    pg, rows, jsq, _ = _a3_rows(md_of, pic_of)
    checks = conjecture_checks(pg, rows)
    assert [c for c in checks if not c.passed] == []
    assert {"phi-additive-in-h", "phi-additive-in-g", "phi-diagonal-equals-twist"} <= {
        c.name for c in checks}
    table = build_phi_table(md_of("A3", 2), pg, tuple(range(len(pg))))
    assert {(u, row.g, h) for row in rows for h, v in row.phi.items() for u in v.by_weight} == set(
        table.values)


@pytest.mark.parametrize("check,tamper", [
    ("phi-additive-in-h", ("jsq", "j")),
    ("phi-diagonal-equals-twist", ("jsq", "jsq")),
    ("phi-additive-in-g", ("1", "j")),
])
def test_validator_catches_one_tampered_residue(check, tamper, md_of, pic_of):
    """Shifting one snapped residue phi_U(g, h) by 1/4, at a fixed point U of
    the order-2 current jsq, must fail the named check (j has order 4, 1 is
    the identity)."""
    pg, rows, jsq, j = _a3_rows(md_of, pic_of)
    g, h = ({"1": 0, "jsq": jsq, "j": j}[x] for x in tamper)
    u = next(row for row in rows if row.g == jsq).tsm.fixed_points[0]
    tampered = []
    for row in rows:
        if row.g == g:
            vals = row.phi[h]
            shifted = {**vals.by_weight, u: mod1(vals.by_weight[u] + Fraction(1, 4))}
            row = replace(row, phi={**row.phi, h: replace(vals, by_weight=shifted)})
        tampered.append(row)
    assert check not in {c.name for c in conjecture_checks(pg, rows) if not c.passed}
    assert check in {c.name for c in conjecture_checks(pg, tampered) if not c.passed}


@pytest.mark.parametrize(
    "name,k",
    [("A1", 2), ("A1", 4), ("A1", 6), ("A1", 8), ("A2", 3), ("A3", 2), ("A3", 3), ("A2", 2)],
)
def test_conjecture_suite_passes(name, k, md_of, pic_of):
    md = md_of(name, k)
    for ca in classify_algebras(md, pic_of(name, k)):
        report = verify_conjecture(md, ca.algebra)
        assert report.passed, [c for c in report.findings]


def test_epsilon_from_extracted_phi_is_alternating(md_of, pic_of):
    """Cross-module check: eps = phi + Xi^T built from the twining-extracted
    phi on the stabilizer of the fixed points is exactly alternating."""
    from wzwkit import enumerate_ksbs, enumerate_subgroups
    from wzwkit.residues import mod1

    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    full = [s for s in enumerate_subgroups(pg) if len(s) == 4][0]
    ksb = enumerate_ksbs(full)[0]
    table = build_phi_table(md, pg, full.members)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    stabilizer = (0, jsq)
    for u in fixed_points(md, pg, jsq):
        for g in stabilizer:
            for h in stabilizer:
                eps = mod1(
                    table.value(u, g, h)
                    + ksb.value(full.members.index(h), full.members.index(g))
                )
                if g == h:
                    assert eps == 0
                assert eps == mod1(
                    -(table.value(u, h, g)
                      + ksb.value(full.members.index(g), full.members.index(h)))
                )


def test_complex_folded_matrix_a5(md_of, pic_of):
    """(A5,2) with the order-2 current folds to the rank-2 cycle at level 1,
    whose S-matrix is genuinely complex; the suite is phase-sensitive there."""
    md = md_of("A5", 2)
    pg = pic_of("A5", 2)
    assert pg.invariant_factors == (6,)
    g = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    tsm = twining_S(md, pg, g)
    assert tsm.matrix.shape == (3, 3)
    assert np.max(np.abs(np.imag(tsm.matrix))) > 0.4
    for ca in classify_algebras(md, pg):
        report = verify_conjecture(md, ca.algebra)
        assert report.passed, [str(c) for c in report.findings]


def test_conjecture_margins_are_tiny(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    full = [c for c in classify_algebras(md, pg) if len(c.algebra.support) == 4][0]
    report = verify_conjecture(md, full.algebra)
    worst = max(c.margin for c in report.checks if c.margin is not None)
    assert worst < 1e-8
