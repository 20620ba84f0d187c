from fractions import Fraction

import numpy as np
import pytest

from wzwkit import (DEFAULT_CONFIG, Config, build_root_system, integrable_weights, parse_lie_type,
                    weyl_group)
from wzwkit.affine import RootSystem, SimpleLieType, _adjugate, _cartan_matrix, _half_lengths
from wzwkit.errors import GroupTooLarge, TooManyObjects, UnsupportedRank
from wzwkit.lietype import admit


def _root_lengths(cartan: list[list[int]]) -> list[Fraction]:
    """Half length squares d_i = (alpha_i, alpha_i)/2 with long roots at 1.

    Solved from the symmetry constraint d_j * A_ij = d_i * A_ji along bonds:
    the breadth-first search that the per-series table replaced.
    """
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                queue.append(j)
    assert all(x is not None for x in d), "Dynkin diagram not connected"
    top = max(d)  # type: ignore[type-var]
    return [x / top for x in d]  # type: ignore[operator]


def _invert_fraction_matrix(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan elimination over the rationals: the exact inverse that
    the checked adjugate replaced."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """All positive roots as coefficient vectors over the simple roots.

    Standard root-string closure: beta + alpha_j is a root iff
    p - (beta, alpha_j^v) > 0 where p is the depth of the string below beta.
    """
    n = len(cartan)
    roots: set[tuple[int, ...]] = set()
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots.update(layer)
    while layer:
        nxt = []
        for beta in layer:
            labels = [sum(beta[i] * cartan[i][j] for i in range(n)) for j in range(n)]
            for j in range(n):
                p = 0
                probe = list(beta)
                while True:
                    probe[j] -= 1
                    if probe[j] < 0 or tuple(probe) not in roots:
                        break
                    p += 1
                if p - labels[j] > 0:
                    up = list(beta)
                    up[j] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        layer = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


def oracle_root_system(t: SimpleLieType) -> tuple[RootSystem, int]:
    """(root system, |Delta_+|) read from the positive-root closure: theta is
    the highest root, its coefficients are the marks, and dim g = r + 2|Delta_+|."""
    cartan = _cartan_matrix(t)
    d = _root_lengths(cartan)
    n = t.rank
    inv = _invert_fraction_matrix([[Fraction(x) for x in row] for row in cartan])
    positives = _positive_roots(cartan)
    theta = positives[-1]
    assert sum(theta) == max(sum(r) for r in positives)
    comarks = tuple(theta[i] * d[i] for i in range(n))
    assert all(x.denominator == 1 for x in comarks)
    rs = RootSystem(
        lie_type=t,
        cartan=tuple(tuple(row) for row in cartan),
        quadratic_form=tuple(tuple(inv[i][j] * d[j] for j in range(n)) for i in range(n)),
        dual_coxeter=1 + int(sum(comarks)),
        comarks=tuple(int(x) for x in comarks),
        half_lengths=tuple(d),
        dimension=n + 2 * len(positives),
        highest_root_labels=tuple(sum(theta[i] * cartan[i][j] for i in range(n)) for j in range(n)),
    )
    return rs, len(positives)


def _types_within_rank_cap() -> list[SimpleLieType]:
    """A1-A8, B2-B8, C2-C8, D3-D8, E6-E8, F4 and G2 under the default cap."""
    out = []
    for series in "ABCDEFG":
        for rank in range(1, DEFAULT_CONFIG.rank_cap + 1):
            try:
                out.append(SimpleLieType(series, rank))
            except UnsupportedRank:
                pass
    return out


TYPES = _types_within_rank_cap()


@pytest.mark.parametrize(
    "name,hv,dim,npos",
    [
        ("A1", 2, 3, 1),
        ("A2", 3, 8, 3),
        ("A3", 4, 15, 6),
        ("B2", 3, 10, 4),
        ("B3", 5, 21, 9),
        ("C3", 4, 21, 9),
        ("D4", 6, 28, 12),
        ("D3", 4, 15, 6),
        ("G2", 4, 14, 6),
        ("F4", 9, 52, 24),
        ("E6", 12, 78, 36),
        ("E7", 18, 133, 63),
        ("E8", 30, 248, 120),
    ],
)
def test_standard_tables(name, hv, dim, npos):
    rs = build_root_system(parse_lie_type(name))
    assert rs.dual_coxeter == hv
    assert rs.dimension == dim
    _, positives = oracle_root_system(rs.lie_type)
    assert positives == npos
    assert rs.dimension == rs.rank + 2 * positives


@pytest.mark.parametrize("t", TYPES, ids=str)
def test_derived_root_system_matches_the_closure(t):
    """Every type the default rank cap admits: theta, the comarks, h-vee and
    dim g derived from the closed-form comarks are those the positive-root
    closure gives, the form satisfies A F = D, and 2|Delta_+| = r h with the
    Coxeter number h = 1 + the sum of the marks."""
    rs = build_root_system(t)
    oracle, positives = oracle_root_system(t)
    assert rs == oracle
    n = rs.rank
    for i in range(n):
        for j in range(n):
            entry = sum(rs.cartan[i][k] * rs.quadratic_form[k][j] for k in range(n))
            assert entry == (rs.half_lengths[i] if i == j else 0)
    coxeter = 1 + sum(c / d for c, d in zip(rs.comarks, rs.half_lengths))
    assert 2 * positives == n * coxeter


@pytest.mark.parametrize("t", TYPES, ids=str)
def test_closed_forms_match_the_solved_ones(t):
    """Every type the default rank cap admits: the half-length table is what
    the search along the bonds solves for, and adj(A) / det(A) is the
    inverse that elimination over the rationals finds."""
    cartan = _cartan_matrix(t)
    assert _half_lengths(t) == tuple(_root_lengths(cartan))
    adj, det = _adjugate(cartan)
    inverse = _invert_fraction_matrix([[Fraction(x) for x in row] for row in cartan])
    assert [[Fraction(x, det) for x in row] for row in adj.tolist()] == inverse


def test_tampered_half_lengths_are_refused(monkeypatch):
    """B3 with every half-length 1: the double bond between nodes 1 and 2
    is not symmetrized, -2 * 1 != -1 * 1."""
    monkeypatch.setattr("wzwkit.affine._half_lengths", lambda t: (Fraction(1),) * t.rank)
    with pytest.raises(AssertionError, match=r"^d_j A_ij must be d_i A_ji$"):
        build_root_system(parse_lie_type("B3"))


def test_tampered_comarks_are_refused(monkeypatch):
    """B3 with comarks (1, 2, 2): the marks (1, 2, 4) give theta the labels
    (0, -1, 4) and (theta, theta) = 6."""
    monkeypatch.setattr("wzwkit.affine.comarks", lambda t: (1, 2, 2))
    with pytest.raises(AssertionError, match=r"\(theta, theta\) must be 2"):
        build_root_system(parse_lie_type("B3"))


def test_a1_is_forced_by_normalization():
    rs = build_root_system(parse_lie_type("A1"))
    assert rs.cartan == ((2,),)
    assert rs.quadratic_form == ((Fraction(1, 2),),)
    assert rs.dual_coxeter == 2
    assert rs.dimension == 3


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "D4", "G2", "F4"])
def test_cartan_matrix_shape(name):
    rs = build_root_system(parse_lie_type(name))
    n = rs.rank
    for i in range(n):
        assert rs.cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert rs.cartan[i][j] <= 0


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_quadratic_form_positive_definite(name):
    rs = build_root_system(parse_lie_type(name))
    f = np.array([[float(x) for x in row] for row in rs.quadratic_form])
    assert np.allclose(f, f.T)
    assert np.min(np.linalg.eigvalsh(f)) > 0


def test_b2_and_c2_are_node_swaps():
    b2 = build_root_system(parse_lie_type("B2"))
    c2 = build_root_system(parse_lie_type("C2"))
    assert b2.cartan == ((2, -2), (-1, 2))
    assert c2.cartan == ((2, -1), (-2, 2))
    assert b2.dual_coxeter == c2.dual_coxeter == 3


@pytest.mark.parametrize(
    "name,order",
    [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48), ("D4", 192), ("G2", 12), ("F4", 1152)],
)
def test_weyl_group_orders(name, order):
    rs = build_root_system(parse_lie_type(name))
    w = weyl_group(rs)
    assert len(w) == order
    signs = sorted(set(int(s) for s in w.signs))
    assert signs == [-1, 1]
    # elements preserve the invariant form on labels and det matches the sign
    f = np.array([[float(x) for x in row] for row in rs.quadratic_form])
    for mat, sign in list(zip(w.matrices, w.signs))[:50]:
        assert np.allclose(mat.T @ f @ mat, f, atol=1e-12)
        assert round(float(np.linalg.det(mat))) == sign


def test_weyl_cap_enforced():
    rs = build_root_system(parse_lie_type("D4"))
    with pytest.raises(GroupTooLarge):
        weyl_group(rs, Config(weyl_cap=10))


def test_weyl_cap_rejects_e7_before_enumerating():
    import time

    rs = build_root_system(parse_lie_type("E7"))
    start = time.monotonic()
    with pytest.raises(GroupTooLarge):
        weyl_group(rs)  # |W(E7)| = 2903040 > default cap
    assert time.monotonic() - start < 1.0


def test_weyl_order_formulas():
    from wzwkit.affine import weyl_order

    assert weyl_order(parse_lie_type("A4")) == 120
    assert weyl_order(parse_lie_type("B4")) == 384
    assert weyl_order(parse_lie_type("D5")) == 1920
    assert weyl_order(parse_lie_type("E6")) == 51840


def test_rank_validation():
    with pytest.raises(UnsupportedRank):
        parse_lie_type("E9")
    with pytest.raises(UnsupportedRank):
        parse_lie_type("D2")
    with pytest.raises(UnsupportedRank):
        parse_lie_type("H4")
    assert str(parse_lie_type("a3")) == "A3"
    # the rank cap (8 by default) is applied where an algebra is admitted,
    # and so wherever its weights are enumerated
    a9 = parse_lie_type("A9")
    for refuse in (lambda: admit(a9, 1, DEFAULT_CONFIG), lambda: integrable_weights(a9, 1)):
        with pytest.raises(UnsupportedRank, match="^rank 9 exceeds cap 8$"):
            refuse()


def test_admit_refuses_rank_then_level_then_weyl_group():
    """lietype.admit refuses in the order of the CLI: rank cap, level, Weyl
    cap, and the object cap last."""
    e8 = parse_lie_type("E8")
    with pytest.raises(UnsupportedRank, match="^rank 8 exceeds cap 7$"):
        admit(e8, 0, Config(rank_cap=7))
    with pytest.raises(ValueError, match="^level must be a positive integer$"):
        admit(e8, 0, DEFAULT_CONFIG)
    with pytest.raises(GroupTooLarge, match=r"^\|W\(E8\)\| = 696729600 exceeds cap 1000000$"):
        admit(e8, 1, DEFAULT_CONFIG)
    admit(e8, 1, Config(weyl_cap=10**9))
    with pytest.raises(GroupTooLarge):
        admit(e8, 10**6, DEFAULT_CONFIG)
    with pytest.raises(TooManyObjects, match="^E8 at level 1000000 has more than 400 integrable weights$"):
        admit(e8, 10**6, Config(weyl_cap=10**9))


@pytest.mark.parametrize("text", ["A²", "A١", "A٣", "D٤"])
def test_rank_must_be_ascii_digits(text):
    """str.isdigit admits these; int() rejects the first and reads the others."""
    with pytest.raises(UnsupportedRank, match="cannot parse Lie type"):
        parse_lie_type(text)


def test_highest_root_has_length_two():
    for name in ["A2", "B3", "C3", "D4", "G2", "F4"]:
        rs = build_root_system(parse_lie_type(name))
        labels = rs.highest_root_labels
        assert sum(c * l for c, l in zip(rs.comarks, labels)) == 2
