from fractions import Fraction

import numpy as np
import pytest

from wzwkit import Config, build_root_system, parse_lie_type, weyl_group
from wzwkit.errors import GroupTooLarge, UnsupportedRank


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
    assert rs.positive_root_count == npos
    assert rs.dimension == rs.rank + 2 * rs.positive_root_count


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
    with pytest.raises(UnsupportedRank):
        parse_lie_type("A9")  # default rank cap is 8
    assert str(parse_lie_type("a3")) == "A3"


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
