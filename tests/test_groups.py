import pytest

from wzwkit.groups import (
    closure,
    cyclic_decomposition,
    element_order,
    exponent,
    exponent_vectors,
    group_name,
    invariant_factors,
    is_abelian,
    power,
    subgroups,
)


def cyclic(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def product(t1, t2):
    n1, n2 = len(t1), len(t2)
    idx = lambda a, b: a * n2 + b
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(t1[a1][a2], t2[b1][b2])
    return tuple(tuple(row) for row in table)


Z2 = cyclic(2)
Z4 = cyclic(4)
Z6 = cyclic(6)
V4 = product(Z2, Z2)
Z2xZ4 = product(Z2, Z4)


def test_orders_and_exponent():
    assert [element_order(Z6, g) for g in range(6)] == [1, 6, 3, 2, 3, 6]
    assert exponent(V4) == 2
    assert exponent(Z2xZ4) == 4
    assert power(Z4, 1, 3) == 3


def test_subgroup_counts():
    assert len(subgroups(Z2)) == 2
    assert len(subgroups(Z4)) == 3
    assert len(subgroups(V4)) == 5
    assert len(subgroups(Z6)) == 4
    assert len(subgroups(Z2xZ4)) == 8


def test_subgroups_are_closed():
    for sub in subgroups(Z2xZ4):
        assert closure(Z2xZ4, set(sub)) == sub


def test_invariant_factors():
    assert invariant_factors(cyclic(1)) == ()
    assert invariant_factors(Z4) == (4,)
    assert invariant_factors(Z6) == (6,)
    assert invariant_factors(V4) == (2, 2)
    assert invariant_factors(Z2xZ4) == (2, 4)
    assert invariant_factors(product(Z2, Z6)) == (2, 6)
    assert invariant_factors(product(cyclic(3), Z2)) == (6,)


def test_group_names():
    assert group_name(()) == "1"
    assert group_name((4,)) == "Z4"
    assert group_name((2, 2)) == "Z2 x Z2"


def test_cyclic_decomposition_spans():
    for table in (Z2, Z4, Z6, V4, Z2xZ4):
        decomp = cyclic_decomposition(table)
        vecs = exponent_vectors(table, decomp)
        assert len(vecs) == len(table)
        for g, o in decomp:
            assert element_order(table, g) == o


def test_is_abelian_rejects_s3():
    # S3 as permutation composition table
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    assert not is_abelian(table)
    with pytest.raises(ValueError):
        invariant_factors(table)
