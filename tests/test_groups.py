import itertools
import random

import pytest

from wzwkit.groups import (
    cyclic_decomposition,
    element_order,
    exponent,
    exponent_vectors,
    group_name,
    invariant_factors,
    power,
    subgroups,
)


def is_abelian(table):
    """Whether a*b = b*a for every pair: what the group layer trusts of every
    table it gets."""
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a))


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


# --- oracles: the general-group algorithms the search replaced ---------------

def closure(table, generators):
    """Subgroup generated by `generators`, as a sorted element tuple, by BFS
    over products on both sides (so it needs no commutativity)."""
    members = {0} | set(generators)
    frontier = list(members)
    while frontier:
        g = frontier.pop()
        for h in list(members):
            for prod in (table[g][h], table[h][g]):
                if prod not in members:
                    members.add(prod)
                    frontier.append(prod)
    return tuple(sorted(members))


def subgroups_by_closure(table):
    """All subgroups, sorted by (order, member tuple), each the closure of a
    smaller one and one more element."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        sub = frontier.pop()
        for g in range(len(table)):
            if g in sub:
                continue
            bigger = closure(table, set(sub) | {g})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), s))


def _primary_type(table, p):
    """Partition (a_1 >= a_2 >= ...) with p-Sylow = prod Z_{p^a_i}.

    Determined from the counts c_k = #{g : g^(p^k) = 1} via the conjugate
    partition: log_p(c_k) - log_p(c_{k-1}) = #{i : a_i >= k}.
    """
    n = len(table)
    counts = [1]
    k = 0
    while True:
        k += 1
        pk = p**k
        c = sum(1 for g in range(n) if power(table, g, pk) == 0)
        counts.append(c)
        if c == counts[-2]:
            break
    heights = []
    for k in range(1, len(counts)):
        ratio = counts[k] // counts[k - 1]
        m = 0
        while ratio > 1:
            ratio //= p
            m += 1
        heights.append(m)
    partition = []
    for k, h in enumerate(heights, start=1):
        while len(partition) < h:
            partition.append(0)
        for i in range(h):
            partition[i] = k
    return sorted(partition, reverse=True)


def invariant_factors_by_primes(table):
    """Invariant factors from the p-primary partitions of each prime of |G|."""
    n = len(table)
    if n == 1:
        return ()
    if not is_abelian(table):
        raise ValueError("group is not abelian")
    primes = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    primary = {p: _primary_type(table, p) for p in primes}
    depth = max(len(v) for v in primary.values())
    factors = []
    for i in range(depth):
        f = 1
        for p, part in primary.items():
            if i < len(part):
                f *= p ** part[i]
        factors.append(f)
    return tuple(sorted(factors))


def cyclic_decomposition_by_pools(table):
    """The first generator tuple, lexicographic over per-factor pools of the
    elements of each invariant factor's order, whose products are distinct."""
    n = len(table)
    if n == 1:
        return []
    factors = sorted(invariant_factors_by_primes(table))
    pools = [[g for g in range(1, n) if element_order(table, g) == f] for f in factors]
    for combo in itertools.product(*pools):
        seen = set()
        for exps in itertools.product(*(range(f) for f in factors)):
            x = 0
            for g, e in zip(combo, exps):
                x = table[x][power(table, g, e)]
            seen.add(x)
        if len(seen) == n:
            return list(zip(combo, factors))
    raise ValueError("no cyclic decomposition found (corrupt table?)")


def exponent_vectors_by_powers(table, decomposition):
    out = {}
    orders = [o for _, o in decomposition]
    gens = [g for g, _ in decomposition]
    for exps in itertools.product(*(range(o) for o in orders)):
        x = 0
        for g, e in zip(gens, exps):
            x = table[x][power(table, g, e)]
        out.setdefault(x, tuple(exps))
    return out


def assert_matches_oracles(table):
    """Subgroups, decomposition, invariant factors and exponent vectors equal
    the replaced algorithms' on `table`."""
    assert subgroups(table) == subgroups_by_closure(table)
    decomp = cyclic_decomposition(table)
    assert decomp == cyclic_decomposition_by_pools(table)
    assert invariant_factors(table) == invariant_factors_by_primes(table)
    assert exponent_vectors(table, decomp) == exponent_vectors_by_powers(table, decomp)


def relabel(table, perm):
    """The table with element a renamed perm[a] (perm[0] == 0)."""
    inv = {b: a for a, b in enumerate(perm)}
    n = len(table)
    return tuple(tuple(perm[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n))


def _product_of_cyclics(orders):
    table = cyclic(1)
    for n in orders:
        table = product(table, cyclic(n))
    return table


# Products of cyclic groups, from the trivial group to Z2 x Z4 x Z8, some
# given out of invariant-factor order (Z3 x Z2, Z4 x Z2)
SYNTHETIC = [(1,), (2,), (3,), (4,), (6,), (8,), (9,), (12,), (2, 2), (2, 4), (4, 2), (3, 2),
             (3, 3), (2, 6), (4, 4), (2, 2, 2), (2, 2, 4), (2, 4, 8)]


@pytest.mark.parametrize("label", range(4), ids=["as-built", "relabel-1", "relabel-2", "relabel-3"])
@pytest.mark.parametrize("orders", SYNTHETIC, ids=lambda o: "x".join(f"Z{n}" for n in o))
def test_synthetic_tables_match_the_oracles(orders, label):
    """Each product as built and under three relabellings fixing the identity."""
    table = _product_of_cyclics(orders)
    if label:
        rest = list(range(1, len(table)))
        random.Random(label).shuffle(rest)
        table = relabel(table, [0, *rest])
    assert_matches_oracles(table)


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
    """Each subgroup holds the identity and every product of two members."""
    for sub in subgroups(Z2xZ4):
        members = set(sub)
        assert 0 in members
        assert all(Z2xZ4[g][h] in members for g in sub for h in sub)


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
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    assert not is_abelian(table)
    assert all(is_abelian(t) for t in (Z2, Z4, Z6, V4, Z2xZ4))
