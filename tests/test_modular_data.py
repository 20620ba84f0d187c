import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wzwkit import (
    central_charge,
    integrable_weights,
    modular_data,
    modular_data_from_doc,
    modular_data_to_doc,
    parse_lie_type,
    verlinde_fusion,
)
from wzwkit.errors import (
    NegativeFusion,
    NonIntegerFusion,
    NormalizationFailure,
    NotAPermutation,
)

from conftest import CATALOG, canonical_json, dense, t_matrix


@pytest.mark.parametrize(
    "name,k,count",
    [("A1", 2, 3), ("A2", 1, 3), ("A3", 2, 10), ("B2", 1, 3), ("G2", 1, 2), ("D4", 1, 4)],
)
def test_weight_counts(name, k, count, md_of):
    assert len(md_of(name, k)) == count


def test_weight_order_is_lexicographic_with_vacuum_first():
    ld = integrable_weights(parse_lie_type("A2"), 2)
    assert ld.weights == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    assert ld.weights[0] == (0, 0)  # the vacuum is object 0
    ld3 = integrable_weights(parse_lie_type("A3"), 2)
    assert list(ld3.weights) == sorted(ld3.weights)
    assert len(ld3.weights) == len(set(ld3.weights))


@pytest.mark.parametrize(
    "name,k,weight,expected",
    [
        ("A1", 3, (0,), Fraction(0)),
        ("A1", 2, (1,), Fraction(3, 16)),
        ("A1", 4, (4,), Fraction(1)),
        ("A2", 1, (1, 0), Fraction(1, 3)),
        ("A2", 4, (4, 0), Fraction(4, 3)),
        ("A3", 2, (0, 1, 0), Fraction(5, 12)),
    ],
)
def test_conformal_weights(name, k, weight, expected, md_of):
    md = md_of(name, k)
    assert md.conformal_weights[md.level_data.index(weight)] == expected


@pytest.mark.parametrize(
    "name,k,expected",
    [("A1", 2, Fraction(3, 2)), ("A2", 1, Fraction(2)), ("G2", 1, Fraction(14, 5))],
)
def test_central_charge(name, k, expected):
    assert central_charge(integrable_weights(parse_lie_type(name), k)) == expected


def test_central_charge_positive_on_catalog():
    for name, k in CATALOG:
        c = central_charge(integrable_weights(parse_lie_type(name), k))
        assert 0 < c <= Fraction(parse_lie_type(name).rank * 100)


def test_a1_s_matrix_closed_form(md_of):
    for k in range(1, 11):
        md = modular_data("A1", k)
        n = k + 1
        oracle = np.array(
            [
                [np.sqrt(2 / (k + 2)) * np.sin(np.pi * (a + 1) * (b + 1) / (k + 2)) for b in range(n)]
                for a in range(n)
            ]
        )
        assert np.max(np.abs(md.s_matrix - oracle)) < 1e-9


def test_a2_level1_s_matrix_entries(md_of):
    md = md_of("A2", 1)
    assert np.allclose(np.abs(md.s_matrix), 1 / np.sqrt(3), atol=1e-12)


def test_level_one_closed_forms(md_of):
    """Independent closed-form S-matrices for non-simply-laced and level-1
    cases: B2_1 carries the Ising matrix, D4_1 the normalized Hadamard, G2_1
    the golden-ratio matrix."""
    ising = np.array(
        [[0.5, 1 / np.sqrt(2), 0.5], [1 / np.sqrt(2), 0, -1 / np.sqrt(2)], [0.5, -1 / np.sqrt(2), 0.5]]
    )
    assert np.max(np.abs(md_of("B2", 1).s_matrix - ising)) < 1e-12
    hadamard = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    )
    assert np.max(np.abs(md_of("D4", 1).s_matrix - hadamard)) < 1e-12
    golden = (1 + np.sqrt(5)) / 2
    fib = np.array([[1, golden], [golden, -1]]) / np.sqrt(2 + golden)
    assert np.max(np.abs(md_of("G2", 1).s_matrix - fib)) < 1e-12


@pytest.mark.parametrize("name,k", CATALOG)
def test_modular_relations(name, k, md_of):
    md = md_of(name, k)
    s = md.s_matrix
    n = len(md)
    t = t_matrix(md)
    assert np.max(np.abs(s - s.T)) < 1e-8
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-8
    assert np.max(np.abs(np.linalg.matrix_power(s @ t, 3) - s @ s)) < 1e-8
    assert np.max(np.abs(np.linalg.matrix_power(s, 4) - np.eye(n))) < 1e-8


def residuals_of(md):
    """The residuals of S by the expressions the modular-data report once
    computed itself, under its check names and in its order."""
    s = md.s_matrix
    n = len(md)
    t = t_matrix(md)
    return (
        ("s-symmetric", float(np.max(np.abs(s - s.T)))),
        ("s-unitary", float(np.max(np.abs(s @ s.conj().T - np.eye(n))))),
        ("st-cubed-is-s-squared", float(np.max(np.abs(np.linalg.matrix_power(s @ t, 3) - s @ s)))),
    )


@pytest.mark.parametrize("name,k", [*CATALOG, ("A1", 80), ("A2", 12), ("C3", 6), ("E6", 3),
                                    ("D6", 2), ("A6", 3)])
def test_residuals_are_measured_once_bit_for_bit(name, k, md_of):
    """The residuals the datum keeps are the report's own expressions, bit
    for bit, under its check names and in its order."""
    md = md_of(name, k)
    assert md.residuals == residuals_of(md)


def _refuse_s_with_entry(monkeypatch, entry):
    """modular_data("A1", 3) with entry added to S[0, 1] is refused as not
    symmetric when assembled, before Verlinde reads it."""
    from wzwkit import affine

    original = affine.kac_peterson_S

    def asymmetric(ld):
        s = original(ld)
        s[0, 1] += entry
        return s

    monkeypatch.setattr(affine, "kac_peterson_S", asymmetric)
    with pytest.raises(NormalizationFailure, match="^S is not symmetric$"):
        modular_data("A1", 3)


def test_asymmetric_s_is_refused_when_assembled(monkeypatch):
    _refuse_s_with_entry(monkeypatch, 1e-6)


def test_nan_in_s_is_refused_when_assembled(monkeypatch):
    """A NaN residual fails the tolerance test, so Verlinde never sees it."""
    _refuse_s_with_entry(monkeypatch, np.nan)


@pytest.mark.parametrize("name,k", CATALOG)
def test_fusion_properties(name, k, md_of):
    md = md_of(name, k)
    size = len(md)
    n = dense(md.fusion, size)
    vac = md.vacuum
    assert np.array_equal(n[vac], np.eye(size, dtype=np.int64))
    assert np.array_equal(n, np.transpose(n, (1, 0, 2)))
    # N_ij^0 = delta_{j, i_bar}
    for i in range(size):
        for j in range(size):
            assert n[i, j, vac] == (1 if md.conjugation[i] == j else 0)
    lhs = np.einsum("ijm,mkl->ijkl", n, n)
    rhs = np.einsum("jkm,iml->ijkl", n, n)
    assert np.array_equal(lhs, rhs)


def test_a1_fusion_is_truncated_clebsch_gordan(md_of):
    for k in (1, 2, 3, 4, 6):
        fusion = dense(md_of("A1", k).fusion, k + 1)
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    expected = int(
                        abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0
                    )
                    assert fusion[a, b, c] == expected


def test_a2_level1_fusion_is_z3(md_of):
    fusion = dense(md_of("A2", 1).fusion, 3)
    pg_objects = sorted(range(3))
    for i in pg_objects:
        row = fusion[i]
        assert np.array_equal(np.sort(row, axis=1)[:, -1], np.ones(3, dtype=np.int64))
        assert row.sum() == 3


@pytest.mark.parametrize("name,k", CATALOG)
def test_quantum_dimensions(name, k, md_of):
    md = md_of(name, k)
    d = md.quantum_dims
    assert abs(d[md.vacuum] - 1) < 1e-10
    assert np.min(d) > 0
    target = np.einsum("ijk,k->ij", dense(md.fusion, len(md)), d)
    assert np.max(np.abs(np.outer(d, d) - target)) < 1e-8


def test_conjugation_properties(md_of):
    md = md_of("A2", 1)
    assert md.conjugation == (0, 2, 1)
    for name, k in [("A1", 4), ("A3", 2), ("D4", 2)]:
        md = md_of(name, k)
        c = md.conjugation
        assert c[md.vacuum] == md.vacuum
        assert all(c[c[i]] == i for i in range(len(md)))


def test_a1_conjugation_is_identity(md_of):
    for k in (1, 2, 5):
        assert md_of("A1", k).conjugation == tuple(range(k + 1))


def test_verlinde_holds_no_cubic_array():
    """A2:16 (n = 153): building its modular data peaks below half of the
    27 MiB that the dense int64 fusion tensor alone would take."""
    tracemalloc.start()
    try:
        md = modular_data("A2", 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(md) == 153
    assert peak < 153**3 * 8 / 2


def test_verlinde_rejects_garbage():
    rng = np.random.default_rng(7)
    bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(bad)
    with pytest.raises(NonIntegerFusion):
        verlinde_fusion(q)


@pytest.mark.parametrize("name,k,flip,message", [
    ("A1", 3, 1, "N[1,2,3] = -1"),
    ("A2", 2, 2, "N[1,1,2] = -1"),
    ("A2", 2, 5, "N[1,4,5] = -1"),
])
def test_verlinde_rejects_negative_fusion(md_of, name, k, flip, message):
    """Negating row and column `flip` of S keeps it unitary and symmetric but
    gives integer fusion with a negative entry, named at its first index."""
    s = md_of(name, k).s_matrix
    sign = np.ones(len(s))
    sign[flip] = -1.0
    with pytest.raises(NegativeFusion, match=re.escape(message)):
        verlinde_fusion(sign[:, None] * s * sign)


def test_kac_peterson_normalization_check_is_live(md_of):
    """kac_peterson_S reads no tolerance and leaves S to its readers, and
    they check it: below the rounding error, _assemble refuses the S of
    C(g, k) and, under the Config its datum carries, twining_S refuses S^w,
    both the identity's and the folded one (A1 at level 1)."""
    from dataclasses import replace

    from wzwkit import Config, find_simple_currents
    from wzwkit.twining import twining_S

    tight = Config(tolerance=1e-17)
    with pytest.raises(NormalizationFailure, match=r"^S is not (symmetric|unitary)$"):
        modular_data("A2", 3, tight)
    pg = find_simple_currents(replace(md_of("A3", 2), config=tight))
    for element in (0, 2):
        with pytest.raises(NormalizationFailure, match=r"^S\^w is not (symmetric|unitary)$"):
            twining_S(pg, element)


def test_conjugation_rejects_non_permutation():
    from wzwkit.affine import conjugation_from_S

    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    with pytest.raises(NotAPermutation):
        conjugation_from_S(q @ q)


@pytest.mark.parametrize("cycle,message", [
    ([1, 2, 0], "S^2 is not a vacuum-fixing permutation"),  # a 3-cycle moves the vacuum
])
def test_conjugation_refusals_name_their_check(cycle, message):
    from wzwkit.affine import conjugation_from_S

    s = np.eye(len(cycle))[cycle].astype(complex)
    with pytest.raises(NotAPermutation, match=f"^{re.escape(message)}$"):
        conjugation_from_S(s @ s)


@pytest.mark.parametrize("diagonal,row", [
    ([1, 1, 0.5, 0.5], 2),  # rows 2 and 3 of S^2 hold 1/2: the first is named
    ([1, 1j, 1, 1], 1),  # row 1 of S^2 is i, not real
    ([1, 1, 1, 2], 3),
])
def test_conjugation_names_the_first_failing_row(diagonal, row):
    from wzwkit.affine import conjugation_from_S

    s2 = np.diag(np.array(diagonal, dtype=complex))
    with pytest.raises(NotAPermutation, match=f"^row {row} of S\\^2 is not a permutation row$"):
        conjugation_from_S(s2)


def test_json_round_trip(md_of):
    md = md_of("A3", 2)
    doc = modular_data_to_doc(md)
    back = modular_data_from_doc(doc)
    assert back.weights == md.weights
    assert back.conformal_weights == md.conformal_weights
    assert back.central_charge == md.central_charge
    assert back.t_exponents == md.t_exponents
    assert np.array_equal(back.fusion, md.fusion)
    assert np.array_equal(back.s_matrix, md.s_matrix)
    assert back.conjugation == md.conjugation
    assert not np.shares_memory(back.s_matrix, doc["sMatrix"])  # doc holds S as an array
    assert canonical_json(modular_data_to_doc(back)) == canonical_json(doc)


def test_json_round_trip_keeps_signed_zeros(md_of):
    """S of A2 at level 3 has imaginary parts -0.0; loading must keep them,
    or a cache hit fails its canonical comparison."""
    doc = json.loads(canonical_json(modular_data_to_doc(md_of("A2", 3))))
    assert "-0.0]" in canonical_json(doc)
    back = modular_data_from_doc(doc)
    assert np.array_equal(np.signbit(back.s_matrix.imag), np.signbit(md_of("A2", 3).s_matrix.imag))
    assert canonical_json(modular_data_to_doc(back)) == canonical_json(doc)


def test_t_exponents_match_weights(md_of):
    md = md_of("A1", 2)
    c = md.central_charge
    for h, t in zip(md.conformal_weights, md.t_exponents):
        assert (h - c / 24 - t).denominator == 1


def test_arrays_are_read_only(md_of):
    md = md_of("A1", 2)
    with pytest.raises(ValueError):
        md.s_matrix[0, 0] = 0
    with pytest.raises(ValueError):
        md.fusion[0, 3] = 5
