"""Finite abelian group utilities over explicit multiplication tables.

A group is given as a table `table[a][b] = index of a*b` with identity at
index 0.  Everything here is desk scale (orders well below 100), so plain
brute force is the right tool.
"""

from __future__ import annotations

import itertools
from math import lcm

Table = tuple[tuple[int, ...], ...]


def is_abelian(table: Table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a))


def element_order(table: Table, g: int) -> int:
    order = 1
    x = g
    while x != 0:
        x = table[x][g]
        order += 1
    return order


def power(table: Table, g: int, n: int) -> int:
    """g**n in the table group (n >= 0)."""
    x = 0
    for _ in range(n):
        x = table[x][g]
    return x


def exponent(table: Table) -> int:
    return lcm(*(element_order(table, g) for g in range(len(table))))


def closure(table: Table, generators: set[int]) -> tuple[int, ...]:
    """Subgroup generated by `generators`, as a sorted element tuple."""
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


def subgroups(table: Table) -> list[tuple[int, ...]]:
    """All subgroups, sorted by (order, member tuple)."""
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


def _primary_type(table: Table, p: int) -> list[int]:
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
    partition: list[int] = []
    for k, h in enumerate(heights, start=1):
        while len(partition) < h:
            partition.append(0)
        for i in range(h):
            partition[i] = k
    return sorted(partition, reverse=True)


def invariant_factors(table: Table) -> tuple[int, ...]:
    """Invariant factors n_1 | n_2 | ... of an abelian group (empty if trivial)."""
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


def group_name(factors: tuple[int, ...]) -> str:
    if not factors:
        return "1"
    return " x ".join(f"Z{n}" for n in sorted(factors))


def cyclic_decomposition(table: Table) -> list[tuple[int, int]]:
    """Generators [(g_i, n_i)] with the group an internal direct product
    of the cyclic subgroups <g_i>, ord(g_i) = n_i.

    Matches the invariant factors, largest last.  Found by brute-force search,
    which is fine at the orders arising from Picard groups of bounded rank.
    """
    n = len(table)
    if n == 1:
        return []
    factors = sorted(invariant_factors(table))
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


def exponent_vectors(table: Table, decomposition: list[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """Map element -> exponent tuple w.r.t. a cyclic decomposition."""
    out: dict[int, tuple[int, ...]] = {}
    orders = [o for _, o in decomposition]
    gens = [g for g, _ in decomposition]
    for exps in itertools.product(*(range(o) for o in orders)):
        x = 0
        for g, e in zip(gens, exps):
            x = table[x][power(table, g, e)]
        out.setdefault(x, tuple(exps))
    return out

