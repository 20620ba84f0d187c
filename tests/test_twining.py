import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wzwkit import (
    classify_algebras,
    diagram_automorphism,
    extract_phi,
    fold_diagram,
    twining_S,
    verify_conjecture,
)
from wzwkit.affine import affine_labels
from wzwkit.errors import LambdaDependence, NormalizationFailure, UnsupportedFolding, UnsupportedSeries
from wzwkit.twining import PhiRows, TwiningSMatrix, conjecture_checks


# -- the all-weights label scan the fold once ran: the oracle of its fixed points --


def rotation_amount(perm):
    """m if perm is the rotation i -> i + m of the affine nodes, else None."""
    n = len(perm)
    m = perm[0]
    if all(perm[i] == (i + m) % n for i in range(n)):
        return m
    return None


def label_scan(ld, perm):
    """{index: affine labels} of every weight whose labels the node
    permutation perm leaves as they are, read over all weights."""
    out = {}
    for idx, w in enumerate(ld.weights):
        labels = affine_labels(ld, w)
        if all(labels[i] == labels[perm[i]] for i in range(len(perm))):
            out[idx] = labels
    return out


def assert_fold_matches_the_scan(pg):
    """For each element with fixed points whose automorphism is found: the
    automorphism is the identity only for the identity, and the fixed points
    are the weights its label scan keeps.  On A it is the rotation by
    perm[0], its order divides k, the fold maps each scanned weight to its
    labels at nodes 1 .. cycle_len - 1, and a fold onto one cycle keeps one
    weight.  Each fold is the record of its element's fixed points.
    Elsewhere any fold but the identity's is refused."""
    ld = pg.md.level_data
    for a in range(len(pg)):
        fixed = pg.fixed_points[a]
        if not fixed:
            continue
        try:
            perm = diagram_automorphism(pg, a)
        except UnsupportedSeries:
            continue  # E8 2's exceptional current
        assert (perm[0] == 0) == (a == 0)
        scan = label_scan(ld, perm)
        assert fixed == tuple(scan)
        if ld.lie_type.series != "A":
            if a:
                with pytest.raises(UnsupportedFolding):
                    fold_diagram(pg, a)
            continue
        assert rotation_amount(perm) == perm[0]
        cycle_len = math.gcd(perm[0], len(perm))
        assert ld.level % (len(perm) // cycle_len) == 0
        fold = fold_diagram(pg, a)
        assert (fold.picard, fold.element, fold.fixed_points) == (pg, a, fixed)
        folded_ld = fold.folded_level_data
        if cycle_len == 1:
            assert len(fixed) == 1 and fold.folded == (0,) and folded_ld is None
        else:
            assert (folded_ld.lie_type.series, folded_ld.lie_type.rank) == ("A", cycle_len - 1)
            assert fold.folded == tuple(folded_ld.index(labels[1:cycle_len])
                                        for labels in scan.values())


def test_fixed_points_a1(pic_of):
    assert pic_of("A1", 4).fixed_points[1] == (2,)
    assert pic_of("A1", 5).fixed_points[1] == ()


def test_fixed_points_a3_rotation_by_two(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    fixed = pg.fixed_points[jsq]
    assert tuple(md.weights[i] for i in fixed) == ((0, 1, 0), (1, 0, 1))


def test_fold_identity(md_of, pic_of):
    md = md_of("A1", 4)
    fold = fold_diagram(pic_of("A1", 4), 0)
    assert fold.folded_level_data is md.level_data
    assert fold.folded_level == 4
    assert fold.fixed_points == fold.folded == tuple(range(len(md)))


def test_fold_a1_swap(pic_of):
    fold = fold_diagram(pic_of("A1", 4), 1)
    assert fold.folded_level_data is None  # rank 0
    assert fold.folded_level == 2
    assert fold.fixed_points == (2,) and fold.folded == (0,)


def test_fold_a3_rotation(md_of, pic_of):
    md = md_of("A3", 2)
    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    fold = fold_diagram(pg, jsq)
    ld = fold.folded_level_data
    assert (ld.lie_type.series, ld.lie_type.rank, fold.folded_level) == ("A", 1, 1)
    named = {md.weights[i]: ld.weights[x] for i, x in zip(fold.fixed_points, fold.folded)}
    assert named == {(0, 1, 0): (0,), (1, 0, 1): (1,)}


def test_fold_rejects_indivisible_order(pic_of):
    """A rotation whose order does not divide k fixes no weight."""
    with pytest.raises(ValueError, match="^Picard element 1 has no fixed points at this level$"):
        fold_diagram(pic_of("A1", 5), 1)


def test_fold_rejects_non_a_series(pic_of):
    pg = pic_of("D4", 2)
    nontrivial = pg.orders.index(2)
    with pytest.raises(UnsupportedFolding):
        fold_diagram(pg, nontrivial)


def test_twining_matrix_a3(pic_of):
    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    tsm = twining_S(pg, jsq)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(tsm.matrix - expected)) < 1e-12
    assert np.max(np.abs(tsm.matrix - tsm.matrix.T)) < 1e-8
    assert np.max(np.abs(tsm.matrix @ tsm.matrix.conj().T - np.eye(2))) < 1e-8


def test_twining_matrix_single_fixed_point(pic_of):
    pg = pic_of("A1", 4)
    tsm = twining_S(pg, 1)
    assert tsm.matrix.shape == (1, 1)
    assert abs(tsm.matrix[0, 0] - 1) < 1e-12


def test_twining_trivial_element_is_s(md_of, pic_of):
    md = md_of("A1", 3)
    pg = pic_of("A1", 3)
    tsm = twining_S(pg, 0)
    assert np.max(np.abs(tsm.matrix - md.s_matrix)) < 1e-12


def test_identity_fold_reuses_s(md_of, pic_of, monkeypatch):
    from wzwkit import twining

    def recompute(*args, **kwargs):
        raise AssertionError("S recomputed for the identity fold")

    monkeypatch.setattr(twining, "kac_peterson_S", recompute)
    md = md_of("D4", 2)
    tsm = twining_S(pic_of("D4", 2), 0)
    assert np.array_equal(tsm.matrix, md.s_matrix)


def _refuse_folded_s_with_entry(pic_of, monkeypatch, entry):
    """twining_S of A3:2's order-2 current, whose fold reads the folded
    algebra's S from kac_peterson_S, with entry added to its S[0, 1], is
    refused as not symmetric."""
    from wzwkit import twining

    original = twining.kac_peterson_S

    def asymmetric(ld):
        s = original(ld)
        s[0, 1] += entry
        return s

    monkeypatch.setattr(twining, "kac_peterson_S", asymmetric)
    pg = pic_of("A3", 2)
    with pytest.raises(NormalizationFailure, match=r"^S\^w is not symmetric$"):
        twining_S(pg, pg.orders.index(2))


def test_asymmetric_folded_s_is_refused(pic_of, monkeypatch):
    """kac_peterson_S no longer checks symmetry itself: twining_S does."""
    _refuse_folded_s_with_entry(pic_of, monkeypatch, 1e-6)


def test_nan_in_folded_s_is_refused(pic_of, monkeypatch):
    """A NaN residual fails the tolerance test, so no S^w holds NaN."""
    _refuse_folded_s_with_entry(pic_of, monkeypatch, np.nan)


def test_twining_requires_fixed_points(pic_of):
    with pytest.raises(ValueError):
        twining_S(pic_of("A1", 5), 1)


def test_phi_identity_element_is_zero(pic_of):
    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    tsm = twining_S(pg, jsq)
    vals = extract_phi(tsm, 0)
    assert vals.residues == (0, 0)


def test_phi_values_a3(pic_of):
    """Frozen from the hand evaluation of the ratio identity with the
    closed-form 2x2 folded S-matrix."""
    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    tsm = twining_S(pg, jsq)
    j = pg.orders.index(4)
    half = pg.charge_den // 2  # residues over charge_den
    swap = extract_phi(tsm, j)
    assert swap.residues == (half, half)
    diag = extract_phi(tsm, jsq)
    assert diag.residues == (0, 0) == (pg.twists[jsq],) * len(tsm)


def test_phi_ratio_survives_global_phase(pic_of):
    """The candidate is a ratio, so rescaling S^w by any phase is invisible."""
    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    tsm = twining_S(pg, jsq)
    rng = np.random.default_rng(3)
    for _ in range(3):
        phase = np.exp(2j * np.pi * rng.uniform())
        spun = TwiningSMatrix(tsm.matrix * phase, tsm.fold)
        for h in range(len(pg)):
            a = extract_phi(tsm, h)
            b = extract_phi(spun, h)
            assert a.residues == b.residues


def test_perturbation_trips_lambda_independence(pic_of):
    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    tsm = twining_S(pg, jsq)
    j = pg.orders.index(4)
    bad = np.array(tsm.matrix, copy=True)
    bad[0, 0] += 1e-3
    with pytest.raises(LambdaDependence):
        extract_phi(TwiningSMatrix(bad, tsm.fold), j)


def test_snap_failure_on_consistent_irrational_phase(pic_of):
    """A matrix engineered so every reference agrees on a phase that is not a
    root of unity must fail the snap, not the spread check."""
    from wzwkit.errors import SnapFailure

    pg = pic_of("A3", 2)
    jsq = pg.orders.index(2)
    j = pg.orders.index(4)
    tsm = twining_S(pg, jsq)
    z = np.exp(2j * np.pi * 0.13)
    crafted = np.array([[z, 1.0], [1.0, -np.conj(z)]]) / np.sqrt(2)
    with pytest.raises(SnapFailure):
        extract_phi(TwiningSMatrix(crafted, tsm.fold), j)


def test_phi_extraction_holds_no_cubic_array(pic_of):
    """The identity fold of A2:12 (n = 91): extracting phi for every h peaks
    below 2 MiB, where one array over every column's candidate pairs alone
    would take n^3 complex entries, 11.5 MiB."""
    pg = pic_of("A2", 12)
    tsm = twining_S(pg, 0)
    tracemalloc.start()
    try:
        phi = [extract_phi(tsm, h) for h in range(len(pg))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tsm) == 91 and all(len(v.residues) == 91 for v in phi)
    assert peak < 2 * 2**20


def test_phi_reads_the_group_and_g_from_the_fold(pic_of):
    """extract_phi takes the Picard group, g and the fixed points from the
    fold of its S^w: one residue per fixed point of that fold's element,
    and a reference dependence reported under that g."""
    pg = pic_of("A3", 2)
    j = pg.orders.index(4)
    for g in range(len(pg)):
        if not pg.fixed_points[g]:
            continue
        tsm = twining_S(pg, g)
        assert (tsm.fold.picard, tsm.fold.element) == (pg, g)
        assert len(extract_phi(tsm, j).residues) == len(pg.fixed_points[g]) == len(tsm)
        bad = np.array(tsm.matrix, copy=True)
        bad[0, 0] += 1e-3
        with pytest.raises(LambdaDependence, match=rf"^phi ratio for \(g={g}, h={j}\) varies"):
            extract_phi(TwiningSMatrix(bad, tsm.fold), j)


@pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2, 3)], ids=["3x3", "1x1", "2x3"])
def test_misshapen_twining_matrix_is_refused(shape, pic_of):
    """S^w has one row and column per fixed point of its fold: any other
    shape is refused where the matrix is made, before extract_phi or the
    residuals read a column."""
    pg = pic_of("A3", 2)
    tsm = twining_S(pg, pg.orders.index(2))
    assert len(tsm) == 2
    message = f"S^w of shape {shape} is not 2x2 on its fold's fixed points"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TwiningSMatrix(np.ones(shape, dtype=np.complex128), tsm.fold)


def _a3_rows(pic_of):
    """The phi rows of (A3,2) over its whole Picard group, and its elements
    of order 2 and 4."""
    pg = pic_of("A3", 2)
    members = tuple(range(len(pg)))
    rows = [PhiRows(pg).row(g, members) for g in members if pg.fixed_points[g]]
    jsq = next(a for a in members if pg.orders[a] == 2)
    j = next(a for a in members if pg.orders[a] == 4)
    return pg, rows, jsq, j


def test_validator_passes_clean_rows(pic_of):
    pg, rows, jsq, _ = _a3_rows(pic_of)
    checks = conjecture_checks(pg, rows)
    assert [c for c in checks if not c.passed] == []
    assert {"phi-additive-in-h", "phi-additive-in-g", "phi-diagonal-equals-twist"} <= {
        c.name for c in checks}


@pytest.mark.parametrize("check,tamper", [
    ("phi-additive-in-h", ("jsq", "j")),
    ("phi-diagonal-equals-twist", ("jsq", "jsq")),
    ("phi-additive-in-g", ("1", "j")),
])
def test_validator_catches_one_tampered_residue(check, tamper, pic_of):
    """Shifting one snapped residue phi_U(g, h) by 1/4, at a fixed point U of
    the order-2 current jsq, must fail the named check (j has order 4, 1 is
    the identity)."""
    pg, rows, jsq, j = _a3_rows(pic_of)
    g, h = ({"1": 0, "jsq": jsq, "j": j}[x] for x in tamper)
    u = pg.fixed_points[jsq][0]
    tampered = []
    for row in rows:
        if row.tsm.fold.element == g:
            vals = dict(row.phi)[h]
            shifted = list(vals.residues)
            at = row.tsm.fold.fixed_points.index(u)
            shifted[at] = (shifted[at] + pg.charge_den // 4) % pg.charge_den
            row = replace(row, phi=tuple(
                (x, replace(v, residues=tuple(shifted)) if x == h else v) for x, v in row.phi))
        tampered.append(row)
    assert check not in {c.name for c in conjecture_checks(pg, rows) if not c.passed}
    assert check in {c.name for c in conjecture_checks(pg, tampered) if not c.passed}


@pytest.mark.parametrize(
    "name,k",
    [("A1", 2), ("A1", 4), ("A1", 6), ("A1", 8), ("A2", 3), ("A3", 2), ("A3", 3), ("A2", 2)],
)
def test_conjecture_suite_passes(name, k, pic_of):
    """Every algebra passes, and the group found again on the same datum, an
    equal group with a phi engine of its own, gives each algebra the same
    report."""
    from wzwkit import find_simple_currents

    pg = pic_of(name, k)
    again = find_simple_currents(pg.md)
    assert again == pg and again is not pg and again.phi_rows is not pg.phi_rows
    for alg, twin in zip(pg.algebras, again.algebras, strict=True):
        report = verify_conjecture(alg)
        assert report.passed, [c for c in report.findings]
        assert twin == alg and verify_conjecture(twin) == report


def test_each_derived_value_is_held_once(md_of, monkeypatch):
    """A datum holds its Picard group, and the group its algebras and its phi
    engine, each made on first read; the datum under another Config is
    another datum with a group of its own.  Over every algebra of A5:3,
    verify_conjecture builds S^w once per current with fixed points, the
    identity among them."""
    from wzwkit import Config, modular_data, twining

    md = md_of("A3", 2)
    pg = md.picard
    assert pg is md.picard and pg.md is md
    assert pg.algebras is pg.algebras and pg.phi_rows is pg.phi_rows and pg.phi_rows.pg is pg
    other = replace(md, config=Config(tolerance=1e-9))
    assert other.picard is not pg and other.picard != pg and other.picard.md is other

    calls = []
    build = twining.twining_S

    def counted(pg, g):
        calls.append(g)
        return build(pg, g)

    monkeypatch.setattr(twining, "twining_S", counted)
    pg = modular_data("A5", 3).picard  # a datum of its own, so its engine starts empty
    assert all(verify_conjecture(alg).passed for alg in pg.algebras)
    folded = {g for alg in pg.algebras for g in alg.support.members if pg.fixed_points[g]}
    assert len(folded) == 3 and sorted(calls) == sorted(folded)


def test_fold_reads_the_groups_fixed_points(pic_of):
    """A fold holds no fixed points of its own: every folded element of
    (A3,2) reads the very tuple its Picard group holds."""
    pg = pic_of("A3", 2)
    folded = [a for a in range(len(pg)) if pg.fixed_points[a]]
    assert len(folded) >= 2
    for a in folded:
        assert fold_diagram(pg, a).fixed_points is pg.fixed_points[a]
        assert twining_S(pg, a).fold.fixed_points is pg.fixed_points[a]


def test_the_datum_config_governs_every_later_check(md_of):
    """twining_S and verify_modular_invariance check under the Config their
    datum was assembled with: below the rounding error both refuse the S^w
    and the Cardy [S, Z] (norm about 5e-16) that pass under the default."""
    from wzwkit import Config, find_simple_currents, verify_modular_invariance
    from wzwkit.errors import InvarianceViolation

    md = md_of("A3", 2)
    assert md.config == Config()
    pg = find_simple_currents(md)
    cardy = classify_algebras(pg)[0].partition
    assert max(twining_S(pg, 0).residuals) < 1e-8
    assert 0 < verify_modular_invariance(md, cardy) < 1e-8
    tight = replace(md, config=Config(tolerance=1e-17))
    with pytest.raises(NormalizationFailure, match=r"^S\^w is not (symmetric|unitary)$"):
        twining_S(find_simple_currents(tight), 0)
    with pytest.raises(InvarianceViolation, match="^commutator norm .* exceeds tolerance$"):
        verify_modular_invariance(tight, cardy)


def test_epsilon_from_extracted_phi_is_alternating(pic_of):
    """Cross-module check: eps = phi + Xi^T built from the twining-extracted
    phi on the stabilizer of the fixed points is exactly alternating."""
    from wzwkit import enumerate_ksbs, enumerate_subgroups

    pg = pic_of("A3", 2)
    den = pg.charge_den
    full = [s for s in enumerate_subgroups(pg) if len(s) == 4][0]
    xi = enumerate_ksbs(full)[0].xi
    rows = PhiRows(pg)
    table = {(u, g, h): r
             for g in full.members if pg.fixed_points[g]
             for h, vals in rows.row(g, full.members).phi
             for u, r in zip(pg.fixed_points[g], vals.residues)}
    jsq = pg.orders.index(2)
    stabilizer = (0, jsq)
    for u in pg.fixed_points[jsq]:
        for g in stabilizer:
            for h in stabilizer:
                eps = (table[u, g, h]
                       + xi[full.members.index(h)][full.members.index(g)]) % den
                if g == h:
                    assert eps == 0
                assert eps == -(table[u, h, g]
                                + xi[full.members.index(g)][full.members.index(h)]) % den


def test_complex_folded_matrix_a5(pic_of):
    """(A5,2) with the order-2 current folds to the rank-2 cycle at level 1,
    whose S-matrix is genuinely complex; the suite is phase-sensitive there."""
    pg = pic_of("A5", 2)
    assert pg.invariant_factors == (6,)
    g = pg.orders.index(2)
    tsm = twining_S(pg, g)
    assert tsm.matrix.shape == (3, 3)
    assert np.max(np.abs(np.imag(tsm.matrix))) > 0.4
    for alg in pg.algebras:
        report = verify_conjecture(alg)
        assert report.passed, [str(c) for c in report.findings]


def test_conjecture_margins_are_tiny(pic_of):
    pg = pic_of("A3", 2)
    full = [c for c in pg.algebras if len(c.support) == 4][0]
    report = verify_conjecture(full)
    worst = max(c.margin for c in report.checks if c.margin is not None)
    assert worst < 1e-8
