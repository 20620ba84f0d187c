"""The structure-aware S-matrix and BLAS Verlinde against their slow oracles.

The oracles are the per-element Weyl sum over all of W, the n^4 einsum
Verlinde formula, the dense slice loop that the quadruple table replaced and
the per-weight rational form of the conformal weights;
the E7 and E8 cases, whose Weyl groups are too large for the oracle, are
checked against closed forms instead.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from wzwkit import (
    Config,
    integrable_weights,
    kac_peterson_S,
    modular_data,
    parse_lie_type,
    verlinde_fusion,
    weyl_group,
)
from wzwkit.errors import GroupTooLarge

from conftest import CATALOG, quadruples, t_matrix

EXTRA = [("A5", 3), ("A6", 3), ("B3", 3), ("C3", 4), ("D5", 2), ("D6", 2), ("E6", 2),
         ("F4", 2), ("G2", 5)]
REAL_TYPES = ["A1", "B2", "B3", "C3", "D4", "D6", "G2", "F4"]


def weyl_sum_S(ld):
    """Shat[L, M] = sum_w det(w) exp(-2 pi i (w(L+rho), M+rho) / kappa), one
    dense phase matrix per Weyl element, normalized like kac_peterson_S."""
    rs = ld.root_system
    shifted = np.array(ld.weights, dtype=np.int64) + 1
    form = np.array([[float(x) for x in row] for row in rs.quadratic_form])
    kappa = ld.level + rs.dual_coxeter
    fp = form @ shifted.T
    shat = np.zeros((len(ld), len(ld)), dtype=np.complex128)
    w = weyl_group(rs)
    for mat, sign in zip(w.matrices, w.signs):
        shat += sign * np.exp(-2j * np.pi * ((shifted @ mat.T) @ fp) / kappa)
    s = shat / np.sqrt(np.mean(np.real(np.diag(shat @ shat.conj().T))))
    z = s[0, 0]
    return s * (abs(z) / z)


def einsum_fusion(s):
    """N_ij^k from the n^4 einsum, rounded."""
    raw = np.einsum("im,jm,km,m->ijk", s, s, s.conj(), 1.0 / s[0])
    return np.rint(np.real(raw)).astype(np.int64)


def dense_verlinde(s):
    """N_ij^k as the dense n^3 tensor, one BLAS slice per i over the rows
    j >= i with the column j = i of the later slices filled from it: the
    library's Verlinde loop before its quadruple table."""
    if not s.imag.any():
        s = s.real
    n = len(s)
    sdag = s.conj().T
    fusion = np.empty((n, n, n), dtype=np.int64)
    for i, ratio in enumerate(s / s[0]):
        rounded = np.rint(((s[i:] * ratio) @ sdag).real)
        fusion[i, i:] = rounded
        fusion[i + 1:, i] = rounded[1:]
    return fusion


@pytest.mark.parametrize("name,k", sorted(set(CATALOG) | set(EXTRA)))
def test_s_matches_weyl_sum(name, k):
    ld = integrable_weights(parse_lie_type(name), k)
    s = kac_peterson_S(ld)
    assert np.max(np.abs(s - weyl_sum_S(ld))) <= 1e-12
    assert np.array_equal(verlinde_fusion(s), quadruples(einsum_fusion(s)))


def inner(rs, lam, mu):
    """(lam, mu) for weights in Dynkin labels, one Fraction sum over the
    quadratic form."""
    f = rs.quadratic_form
    return sum((lam[i] * f[i][j] * mu[j] for i in range(rs.rank) for j in range(rs.rank)),
               Fraction(0))


def fraction_conformal_weight(ld, weight):
    """h = (Lambda, Lambda + 2 rho) / (2 (k + h_vee))."""
    rs = ld.root_system
    shifted = tuple(label + 2 for label in weight)
    return inner(rs, weight, shifted) / (2 * (ld.level + rs.dual_coxeter))


@pytest.mark.parametrize("name,k", sorted(set(CATALOG) | set(EXTRA)))
def test_conformal_weights_match_fraction_oracle(md_of, name, k):
    md = md_of(name, k)
    ld = md.level_data
    want = tuple(fraction_conformal_weight(ld, w) for w in ld.weights)
    assert md.conformal_weights == want
    assert all(type(h) is Fraction for h in md.conformal_weights)


@pytest.mark.parametrize("name", REAL_TYPES)
def test_self_conjugate_s_is_exactly_real(name):
    s = kac_peterson_S(integrable_weights(parse_lie_type(name), 2))
    assert np.all(s.imag == 0.0)


def _check_modular(md):
    s = md.s_matrix
    assert np.max(np.abs(np.linalg.matrix_power(s @ t_matrix(md), 3) - s @ s)) < 1e-10
    assert np.all(s.imag == 0.0)


def test_e7_level1_is_the_semion():
    md = modular_data("E7", 1, Config(weyl_cap=10**7))
    assert np.max(np.abs(md.s_matrix - np.array([[1, 1], [1, -1]]) / np.sqrt(2))) < 1e-12
    _check_modular(md)


def test_e8_level1_is_trivial():
    md = modular_data("E8", 1, Config(weyl_cap=10**9))
    assert np.max(np.abs(md.s_matrix - np.ones((1, 1)))) < 1e-12
    _check_modular(md)


def test_e8_level2_is_ising():
    md = modular_data("E8", 2, Config(weyl_cap=10**9))
    order = sorted(range(3), key=lambda i: md.conformal_weights[i])  # 0, 15/16, 3/2
    r = 1 / np.sqrt(2)
    ising = np.array([[0.5, r, 0.5], [r, 0, -r], [0.5, -r, 0.5]])
    assert np.max(np.abs(md.s_matrix[np.ix_(order, order)] - ising)) < 1e-12
    _check_modular(md)


@pytest.mark.parametrize("name,k", [("E7", 2), ("E7", 3), ("E8", 3)])
def test_raised_cap_modular_relations(name, k):
    _check_modular(modular_data(name, k, Config(weyl_cap=10**9)))


def test_e7_level2_is_refused_before_any_work():
    start = time.monotonic()
    with pytest.raises(GroupTooLarge):
        modular_data("E7", 2)
    assert time.monotonic() - start < 1.0
