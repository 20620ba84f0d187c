"""Finite abelian group utilities over explicit multiplication tables.

A group is given as a table `table[a][b] = index of a*b` with identity at
index 0.  Every table here is abelian by construction, and is trusted to be:
a Picard table is read from a fusion table symmetric in its two factors, its
subgroups are abelian with it, and so is a bimodule ring's unit group, the
ring's structure being symmetric too.  The tables met are tiny (over the
catalog and the property draw: order at most 9, at most 2 invariant
factors), so brute force is the right tool: one search finds the cyclic
decomposition, and the invariant factors are its orders.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from math import lcm, prod

Table = tuple[tuple[int, ...], ...]


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


def subgroups(table: Table) -> list[tuple[int, ...]]:
    """All subgroups, sorted by (order, member tuple).

    In an abelian group the product of two subgroups is a subgroup, so each
    one is grown from a smaller one as sub * <g>."""
    cyclic = [{power(table, g, e) for e in range(element_order(table, g))}
              for g in range(len(table))]
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        sub = frontier.pop()
        for g in range(len(table)):
            if g in sub:
                continue
            bigger = tuple(sorted({table[s][c] for s in sub for c in cyclic[g]}))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), s))


def _span(table: Table, decomposition: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(exponents, g_1^e_1 ... g_r^e_r) for every exponent tuple, in
    itertools.product order."""
    powers = [[power(table, g, e) for e in range(o)] for g, o in decomposition]
    for exps in itertools.product(*(range(o) for _, o in decomposition)):
        x = 0
        for p, e in zip(powers, exps):
            x = table[x][p[e]]
        yield exps, x


def cyclic_decomposition(table: Table) -> list[tuple[int, int]]:
    """Generators [(g_i, n_i)] with the group an internal direct product
    of the cyclic subgroups <g_i>, ord(g_i) = n_i, and n_1 | n_2 | ...

    The first tuple of non-identity elements, shortest first and then
    lexicographic in the element indices, whose orders form a divisor chain
    multiplying to |G| and whose products are all distinct.  The invariant
    factors are unique, so its orders are the invariant factors, largest last.
    """
    n = len(table)
    orders = [element_order(table, g) for g in range(n)]
    for r in range(n.bit_length()):  # r <= log2 n: every factor is at least 2
        for gens in itertools.product(range(1, n), repeat=r):
            chain = all(orders[b] % orders[a] == 0 for a, b in zip(gens, gens[1:]))
            if not chain or prod(orders[g] for g in gens) != n:
                continue
            decomposition = [(g, orders[g]) for g in gens]
            if len({x for _, x in _span(table, decomposition)}) == n:
                return decomposition
    raise ValueError("no cyclic decomposition found (corrupt table?)")


def invariant_factors(table: Table) -> tuple[int, ...]:
    """Invariant factors n_1 | n_2 | ... of an abelian group (empty if trivial)."""
    return tuple(o for _, o in cyclic_decomposition(table))


def group_name(factors: tuple[int, ...]) -> str:
    if not factors:
        return "1"
    return " x ".join(f"Z{n}" for n in sorted(factors))


def exponent_vectors(table: Table, decomposition: list[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """Map element -> exponent tuple w.r.t. a cyclic decomposition."""
    out: dict[int, tuple[int, ...]] = {}
    for exps, x in _span(table, decomposition):
        out.setdefault(x, exps)
    return out
