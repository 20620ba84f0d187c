"""Root systems of simple Lie algebras and the modular data of C(g, k).

Conventions:

* Weights are tuples of non-negative Dynkin labels in the fundamental-weight
  basis; the invariant form is normalized so the highest root has length
  squared 2, hence the quadratic form on weights is F = A^{-1} D with A the
  Cartan matrix and D = diag((alpha_i, alpha_i)/2).  D is a table per series
  and A^{-1} = adj(A) / det(A), checked exactly in integers.
* The level-k simple objects are the integrable highest weights with
  sum(comark_i * label_i) <= k, sorted lexicographically, so the vacuum, the
  zero weight, is object 0.
* Conformal weights h, the central charge c and all T-data are exact
  rationals; the S-matrix is double precision.
* The fusion rules are the sorted (m, 4) int64 table of the nonzero
  (i, j, k, N_ij^k), rounded from Verlinde's formula and checked; no n^3
  array is made, and ``fusion_rows`` gives the dense rows a reader needs.
* S is the Kac-Peterson sum
      Shat[L, M] = sum_w det(w) exp(-2 pi i (w(L+rho), M+rho) / (k+hv)),
  normalized by unitarity with S[0,0] real positive, which avoids the
  lattice-index prefactor entirely.  W is never enumerated: the sum is split
  over the cosets c W_J of a classical subsystem J (the whole diagram for
  A-D, a maximal parabolic for E, F and G), and each W_J sum is a
  determinant in orthogonal coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import NegativeFusion, NonIntegerFusion, NormalizationFailure, NotAPermutation
from .lietype import SimpleLieType, _check_weyl_cap, admit, comarks, parse_lie_type, weyl_order
from .residues import format_rational, mod1

if TYPE_CHECKING:
    from .picard import PicardGroup

Weight = tuple[int, ...]


def _cartan_matrix(t: SimpleLieType) -> list[list[int]]:
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if t.series == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif t.series == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)  # last node short
    elif t.series == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)  # last node long
    elif t.series == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif t.series == "E":
        edges = {6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
                 7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
                 8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]}[n]
        for i, j in edges:
            bond(i, j)
    elif t.series == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # nodes 2, 3 short
        bond(2, 3)
    elif t.series == "G":
        bond(0, 1, -1, -3)  # node 0 short, node 1 long
    return a


def _half_lengths(t: SimpleLieType) -> tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i)/2 in the node order of ``_cartan_matrix``: 1 on
    the long roots, 1/2 on the short ones of B, C and F4 and 1/3 on G2's."""
    n = t.rank
    short = {"B": (n - 1,), "C": range(n - 1), "F": (2, 3), "G": (0,)}.get(t.series, ())
    d = Fraction(1, 3) if t.series == "G" else Fraction(1, 2)
    return tuple(d if i in short else Fraction(1) for i in range(n))


def _adjugate(a: list[list[int]]) -> tuple[np.ndarray, int]:
    """(adj A, det A) of an integer matrix, read from the float inverse and
    checked exactly: adj A @ A = det A * 1 in int64."""
    m = np.array(a, dtype=np.int64)
    det = round(np.linalg.det(m))
    adj = np.rint(np.linalg.inv(m) * det).astype(np.int64)
    assert (adj @ m == det * np.eye(len(m), dtype=np.int64)).all(), "adj(A) A must be det(A) 1"
    return adj, det


@dataclass(frozen=True)
class RootSystem:
    """Tabulated data of a simple Lie algebra in the (theta, theta) = 2 norm;
    theta, h-vee and dim g are derived from ``lietype.comarks``."""

    lie_type: SimpleLieType
    cartan: tuple[tuple[int, ...], ...]
    quadratic_form: tuple[tuple[Fraction, ...], ...]  # F_ij = (Lambda_i, Lambda_j)
    dual_coxeter: int
    comarks: tuple[int, ...]
    half_lengths: tuple[Fraction, ...]                # (alpha_i, alpha_i)/2
    dimension: int
    highest_root_labels: tuple[int, ...]              # Dynkin labels of theta

    @property
    def rank(self) -> int:
        return self.lie_type.rank


def build_root_system(t: SimpleLieType) -> RootSystem:
    """Read the root system from closed forms: the Cartan matrix A, the
    half-lengths d_i of ``_half_lengths`` and the comarks a_i^v of
    ``lietype.comarks``.  The quadratic form is F = adj(A) D / det(A), and

    * the marks a_i = a_i^v / d_i are theta's coefficients over the simple roots;
    * theta's Dynkin labels are sum_i a_i A_ij;
    * h-vee = 1 + sum a_i^v, and dim g = r (h + 1) with h = 1 + sum a_i.

    The asserts check that the tables fit the Cartan matrix: d_j A_ij =
    d_i A_ji, the marks are integers and (theta, theta) = 2.
    """
    cartan = _cartan_matrix(t)
    d = _half_lengths(t)
    n = t.rank
    assert all(d[j] * cartan[i][j] == d[i] * cartan[j][i] for i in range(n) for j in range(i)), \
        "d_j A_ij must be d_i A_ji"
    adj, det = _adjugate(cartan)
    form = tuple(tuple(Fraction(x, det) * d[j] for j, x in enumerate(row)) for row in adj.tolist())
    comark = comarks(t)
    marks_frac = [c / d[i] for i, c in enumerate(comark)]
    assert all(x.denominator == 1 for x in marks_frac), "marks must be integers"
    marks = [int(x) for x in marks_frac]
    theta_labels = tuple(sum(marks[i] * cartan[i][j] for i in range(n)) for j in range(n))
    assert sum(c * l for c, l in zip(comark, theta_labels)) == 2, "(theta, theta) must be 2"
    return RootSystem(
        lie_type=t,
        cartan=tuple(tuple(row) for row in cartan),
        quadratic_form=form,
        dual_coxeter=1 + sum(comark),
        comarks=comark,
        half_lengths=d,
        dimension=n * (2 + sum(marks)),
        highest_root_labels=theta_labels,
    )


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """All Weyl group elements as integer matrices on Dynkin labels.

    matrices has shape (|W|, rank, rank); matrices[w] @ labels applies w.
    signs[w] is det(w) = (-1)^(word length).  Compares by identity.
    """

    matrices: np.ndarray
    signs: np.ndarray

    def __len__(self) -> int:
        return len(self.signs)


def _simple_reflections(rs: RootSystem) -> list[np.ndarray]:
    """s_j as integer matrices on Dynkin labels: s_j(lam) = lam - lam_j alpha_j."""
    gens = []
    for j in range(rs.rank):
        m = np.eye(rs.rank, dtype=np.int64)
        m[:, j] -= rs.cartan[j]
        gens.append(m)
    return gens


def weyl_group(rs: RootSystem, config: Config = DEFAULT_CONFIG) -> WeylGroup:
    """Generate W by closure over simple reflections; cap at config.weyl_cap.

    The order formula gates the enumeration up front and validates it after.
    """
    expected = _check_weyl_cap(rs.lie_type, config)
    gens = _simple_reflections(rs)
    identity = np.eye(rs.rank, dtype=np.int64)
    seen: dict[bytes, int] = {identity.tobytes(): 1}
    elements = [identity]
    signs = [1]
    frontier = [(identity, 1)]
    while frontier:
        nxt = []
        for mat, sign in frontier:
            for g in gens:
                prod = g @ mat
                key = prod.tobytes()
                if key not in seen:
                    seen[key] = 1
                    elements.append(prod)
                    signs.append(-sign)
                    nxt.append((prod, -sign))
        frontier = nxt
    assert len(elements) == expected, "Weyl closure disagrees with the order formula"
    return WeylGroup(np.stack(elements), np.array(signs, dtype=np.int64))


@dataclass(frozen=True)
class LevelData:
    """The level-k integrable weights P_+^k of a root system, in canonical order."""

    root_system: RootSystem
    level: int
    weights: tuple[Weight, ...]

    @property
    def lie_type(self) -> SimpleLieType:
        return self.root_system.lie_type

    @cached_property
    def _lookup(self) -> dict[Weight, int]:
        return {w: i for i, w in enumerate(self.weights)}

    def index(self, weight: Weight) -> int:
        return self._lookup[tuple(weight)]

    def __len__(self) -> int:
        return len(self.weights)


def integrable_weights(t: SimpleLieType, level: int, config: Config = DEFAULT_CONFIG) -> LevelData:
    """Enumerate all label vectors with sum(comark_i * label_i) <= level,
    once ``lietype.admit`` has admitted t and level under config."""
    admit(t, level, config)
    rs = build_root_system(t)
    out: list[Weight] = []

    def extend(prefix: list[int], budget: int, pos: int) -> None:
        if pos == rs.rank:
            out.append(tuple(prefix))
            return
        c = rs.comarks[pos]
        for lab in range(budget // c + 1):
            prefix.append(lab)
            extend(prefix, budget - c * lab, pos + 1)
            prefix.pop()

    extend([], level, 0)
    out.sort()
    return LevelData(rs, level, tuple(out))


def affine_labels(ld: LevelData, weight: Weight) -> tuple[int, ...]:
    """Affine Dynkin labels (lambda_0, lambda_1, ..., lambda_r)."""
    lam0 = ld.level - sum(c * l for c, l in zip(ld.root_system.comarks, weight))
    return (lam0, *weight)


def _integer_form(rs: RootSystem, d: int = 1) -> tuple[np.ndarray, int]:
    """(F * den, den): the quadratic form as an int64 matrix over den, the
    least common multiple of d and the denominators of F."""
    den = lcm(d, *(f.denominator for row in rs.quadratic_form for f in row))
    return np.array([[int(f * den) for f in row] for row in rs.quadratic_form], dtype=np.int64), den


def _conformal_weights(ld: LevelData) -> list[Fraction]:
    """h = (Lambda, Lambda + 2 rho) / (2 (k + h_vee)) for each weight, exact:
    one int64 product over the common denominator of the quadratic form."""
    rs = ld.root_system
    form, den = _integer_form(rs)
    lam = np.array(ld.weights, dtype=np.int64)
    nums = ((lam @ form) * (lam + 2)).sum(axis=1)  # Lambda + 2 rho in labels
    scale = 2 * den * (ld.level + rs.dual_coxeter)
    return [Fraction(int(x), scale) for x in nums]


def central_charge(ld: LevelData) -> Fraction:
    """c = k dim(g) / (k + h_vee), exact."""
    rs = ld.root_system
    return Fraction(ld.level * rs.dimension, ld.level + rs.dual_coxeter)


def _classical_subsystem(t: SimpleLieType) -> tuple[int | None, SimpleLieType, tuple[int, ...]]:
    """(removed node p, type of J, the nodes of t in J's node order).

    J is the whole diagram for the classical series (p is None).  Otherwise it
    is the diagram minus node p: E_n minus node 0 is D_{n-1} read from the end
    of the long arm, F4 minus its short end is B3, and G2 minus its short node
    is the long-root A1.
    """
    if t.series in "ABCD":
        return None, t, tuple(range(t.rank))
    if t.series == "E":
        return 0, SimpleLieType("D", t.rank - 1), tuple(range(t.rank - 1, 0, -1))
    if t.series == "F":
        return 3, SimpleLieType("B", 3), (0, 1, 2)
    return 0, SimpleLieType("A", 1), (1,)


def _orthogonal_embedding(t: SimpleLieType) -> tuple[np.ndarray, int]:
    """Integer coordinates E of the fundamental weights (rows) and a divisor d.

    (lam, mu) = (lam E) . (mu E) / d for B, C and D, where W acts by signed
    permutations of the coordinates.  For A_r the coordinates are those of
    R^(r+1) before projecting out (1, ..., 1), so the pairing is off by a
    W-invariant term and W acts by permutations.
    """
    n = t.rank
    tri = np.tril(np.ones((n, n), dtype=np.int64))  # row i: omega_i = e_1 + ... + e_(i+1)
    if t.series == "A":
        return np.hstack([tri, np.zeros((n, 1), dtype=np.int64)]), 1
    if t.series == "C":  # long roots 2 e_a of length 2, so (e_a, e_a) = 1/2
        return tri, 2
    emb = 2 * tri  # B and D: orthonormal e_a, doubled to keep spinor weights integral
    emb[-1] = 1
    if t.series == "D":
        emb[-2] = 1
        emb[-2, -1] = -1
    return emb, 4


def _alternating_sum(series: str, theta: np.ndarray) -> np.ndarray:
    """sum_u det(u) exp(-i sum_a theta[a, u(a)]) over the classical Weyl group.

    theta[..., a, b] = 2 pi x_a z_b / kappa; W(A) permutes coordinates, W(B) and
    W(C) also flip any signs, W(D) an even number of them.
    """
    if series == "A":
        return np.linalg.det(np.exp(-1j * theta))
    odd = np.linalg.det(-2j * np.sin(theta))
    if series in "BC":
        return odd
    return 0.5 * (np.linalg.det(2 * np.cos(theta)) + odd)


def _coset_representatives(rs: RootSystem, node: int | None) -> list[tuple[np.ndarray, int]]:
    """(c^-1, det c) for one c in each coset c W_J, W_J the stabiliser of omega_node.

    Breadth-first search over the W-orbit of omega_node; c^-1 acts on labels.
    """
    eye = np.eye(rs.rank, dtype=np.int64)
    if node is None:
        return [(eye, 1)]
    gens = _simple_reflections(rs)
    reps = {tuple(eye[node]): (eye, 1)}
    frontier = list(reps)
    while frontier:
        nxt = []
        for v in frontier:
            cinv, sign = reps[v]
            for g in gens:
                w = tuple(g @ v)
                if w not in reps:
                    reps[w] = (cinv @ g, -sign)
                    nxt.append(w)
        frontier = nxt
    return list(reps.values())


def _longest_element_is_minus_one(t: SimpleLieType) -> bool:
    """w0 = -1, so conjugation is trivial and S is real."""
    return not ((t.series == "A" and t.rank > 1) or (t.series == "D" and t.rank % 2)
                or (t.series == "E" and t.rank == 6))


# Names the algorithm behind kac_peterson_S.  Cache file names carry it, so S
# matrices that differ from these in the last bits are never served.
S_ALGORITHM = "kpdet"


def _kac_peterson_sum(ld: LevelData) -> np.ndarray:
    """The Kac-Peterson sum, sqrt(scale) S up to a phase:

    Shat = sum_c det(c) exp(-2 pi i (x, c^-1 y)_rest / kappa) D_J(x, c^-1 y), with
    x = L + rho, y = M + rho, c over W/W_J, D_J the determinant form of the
    W_J sum and (.,.)_rest the W_J-invariant rest of the pairing.  Every phase
    is reduced modulo its period in integers before the exponential.
    """
    rs = ld.root_system
    removed, sub, nodes = _classical_subsystem(ld.lie_type)
    cosets = _coset_representatives(rs, removed)
    assert len(cosets) * weyl_order(sub) == weyl_order(ld.lie_type), \
        "W_J is not the stabiliser of omega_p"
    emb, d = _orthogonal_embedding(sub)
    form, den = _integer_form(rs, d)
    kappa = ld.level + rs.dual_coxeter
    n = len(ld.weights)
    x = np.array(ld.weights, dtype=np.int64) + 1  # Lambda + rho
    xe = x[:, nodes] @ emb
    shat = np.zeros((n, n), dtype=np.complex128)
    for cinv, sign in cosets:
        cy = x @ cinv.T  # c^-1 (M + rho), one row per M
        ye = cy[:, nodes] @ emb
        rest = (x @ form @ cy.T - (den // d) * (xe @ ye.T)) % (den * kappa)
        prod = (xe[:, None, :, None] * ye[None, :, None, :]) % (d * kappa)
        theta = (2 * np.pi / (d * kappa)) * prod
        shat += sign * np.exp((-2j * np.pi / (den * kappa)) * rest) * _alternating_sum(sub.series, theta)
    return shat


def kac_peterson_S(ld: LevelData) -> np.ndarray:
    """Shat / sqrt(scale), scale the mean of the diagonal of Shat Shat^dagger,
    phased so S[0,0] is real positive and cast to real where w0 = -1.  It
    reads no tolerance: NormalizationFailure only for a degenerate sum, one
    with no positive scale or a zero vacuum entry.  Its readers check S
    under their Config: ``_assemble`` the S of C(g, k), on a miss and a
    cache hit alike, and ``twining_S`` a folded one."""
    shat = _kac_peterson_sum(ld)
    scale = float(np.mean(np.real(np.diag(shat @ shat.conj().T))))
    if not scale > 0:
        raise NormalizationFailure(f"Shat of {ld.lie_type} level {ld.level} has no positive scale")
    s = shat / np.sqrt(scale)
    z = s[0, 0]
    if z == 0:
        raise NormalizationFailure("vanishing vacuum-vacuum entry")
    s = s * (abs(z) / z)
    if _longest_element_is_minus_one(ld.lie_type):
        s = s.real.astype(np.complex128)
    return s


def _narrow(a: np.ndarray) -> np.ndarray:
    """The integers a in the smallest dtype that holds them."""
    lo, hi = (int(a.min()), int(a.max())) if len(a) else (0, 0)
    return a.astype(np.promote_types(np.min_scalar_type(lo), np.min_scalar_type(hi)))


_CHUNK = 1 << 14  # rounded slice entries gathered before their nonzero ones are kept


def verlinde_fusion(s: np.ndarray, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m, rounded and checked, as the
    (m, 4) int64 table of the nonzero (i, j, k, N_ij^k) in lexicographic order.

    N_ij^k is symmetric in i and j, so slice i computes only the rows j >= i,
    as the matrix product (S[i:] diag(S_i / S_0)) S^dagger, in real arithmetic
    when S is real.  Each distinct coefficient is computed and checked once.
    The rows (i, j >= i) are taken in order, a few slices at a time: of each
    row only the count of its nonzero entries is kept, and their k and N in
    the narrowest integer dtypes.  Once every slice is checked, the counts
    place each entry at (i, j, k) and at (j, i, k) of the table.  No n^3 array
    is made: the table is the largest array, the kept entries next.
    """
    if not s.imag.any():
        s = s.real
    n = len(s)
    sdag = s.conj().T
    errs = np.empty(n)
    per_pair = np.empty(n * (n + 1) // 2, dtype=np.int64)  # nonzero k of each (i, j >= i), in order
    k_type = np.min_scalar_type(n - 1)
    kept = []  # (first pair, last pair, k, N) of the nonzero entries of consecutive pairs
    pending = []
    pair = 0
    for i in range(n):
        raw = (s[i:] * (s[i] / s[0])) @ sdag
        rounded = np.rint(raw.real)
        errs[i] = np.max(np.abs(raw - rounded))
        pending.append(rounded)
        if i < n - 1 and sum(map(len, pending)) * n < _CHUNK:
            continue
        block = np.concatenate(pending)  # one row per pair (i', j >= i') of the pending slices
        pending = []
        first, pair = pair, pair + len(block)
        if not (errs[:i + 1] <= config.integrality_tolerance).all():
            continue  # refused below, once every slice has its residual
        nonzero = block != 0
        per_pair[first:pair] = np.count_nonzero(nonzero, axis=1)
        kept.append((first, pair, nonzero.nonzero()[1].astype(k_type), _narrow(block[nonzero])))
    err = np.max(errs)
    if not err <= config.integrality_tolerance:  # also rejects NaN
        raise NonIntegerFusion(f"fusion deviates from integers by {err:.3e}")
    del sdag, block, nonzero
    upper = np.triu_indices(n)  # the pairs (i, j >= i), in order
    counts = np.zeros((n, n), dtype=np.int64)
    counts[upper] = per_pair
    counts.T[upper] = per_pair
    start = (np.cumsum(counts) - counts.ravel()).reshape(n, n)  # [i, j]: the table row of (i, j, k_0)
    m = int(counts.sum())
    del counts
    table = np.empty((m, 4), dtype=np.int64)
    while kept:  # each group is freed once placed
        first, last, k, v = kept.pop(0)
        per = per_pair[first:last]
        of = np.repeat(np.arange(last - first), per)  # the pair of each entry, within the group
        i, j = upper[0][first:last][of], upper[1][first:last][of]
        rank = np.arange(len(k))  # then made each entry's rank among its pair's entries
        rank -= (np.cumsum(per) - per)[of]
        for a, b in ((i, j), (j, i)):
            row = start[a, b]
            row += rank
            table[row, 0] = a
            table[row, 1] = b
            table[row, 2] = k
            table[row, 3] = v
    if len(table) and table[:, 3].min() < 0:
        i, j, k, v = table[table[:, 3].argmin()].tolist()
        raise NegativeFusion(f"N[{i},{j},{k}] = {v}")
    return table


def fusion_rows(table: np.ndarray, xs, n: int) -> np.ndarray:
    """The rows xs of a rank-n fusion ring held as its sorted (m, 4) table of
    nonzero (i, j, k, N_ij^k): the dense int64 block [a, j, k] = N_{xs[a] j}^k
    of shape (len(xs), n, n)."""
    xs = np.asarray(xs, dtype=np.intp)
    first = table[:, 0]
    lo = np.searchsorted(first, xs)
    per_row = np.searchsorted(first, xs, side="right") - lo
    at = np.arange(per_row.sum()) + np.repeat(lo - (np.cumsum(per_row) - per_row), per_row)
    block = np.zeros((len(xs), n, n), dtype=np.int64)
    block[np.repeat(np.arange(len(xs)), per_row), table[at, 1], table[at, 2]] = table[at, 3]
    return block


def conjugation_from_S(s2: np.ndarray, config: Config = DEFAULT_CONFIG) -> tuple[int, ...]:
    """The permutation C = S^2 as i -> i_bar, read from the S^2 given:
    NotAPermutation unless each row of S^2 is a permutation row and C fixes
    the vacuum.  ``_assemble`` has checked S symmetric and unitary, so S^2 is
    its own inverse and those rows make a bijective involution."""
    c = np.real(s2)
    perm = c.argmax(axis=1)
    unit = np.arange(len(c)) == perm[:, None]
    ok = (np.abs(c - unit).max(axis=1) < config.tolerance) & (
        np.abs(np.imag(s2)).max(axis=1) < config.tolerance)
    if not ok.all():
        raise NotAPermutation(f"row {int(np.argmin(ok))} of S^2 is not a permutation row")
    if perm[0] != 0:
        raise NotAPermutation("S^2 is not a vacuum-fixing permutation")
    return tuple(perm.tolist())


@dataclass(frozen=True, eq=False)
class ModularData:
    """Simple objects, S and T data, fusion and duality of C(g, k).

    fusion is the (m, 4) int64 table of the nonzero (i, j, k, N_ij^k), sorted
    by (i, j, k), as ``verlinde_fusion`` makes it and the report writes it;
    ``fusion_rows`` reads dense rows from it.  No n^3 array is held.
    All arrays are read-only; instances are safe to share across threads.
    residuals holds max|S - S^T|, max|S S^dagger - 1| and max|(ST)^3 - S^2|
    under the names of the report's checks, in that order, as measured when
    the datum was assembled, and config is the Config it was assembled and
    checked under, which every later layer reads its tolerance from.  A datum
    compares and hashes by identity, and holds its Picard group as `picard`.
    """

    level_data: LevelData
    conformal_weights: tuple[Fraction, ...]
    central_charge: Fraction
    t_exponents: tuple[Fraction, ...]  # h - c/24 mod 1
    s_matrix: np.ndarray
    fusion: np.ndarray
    quantum_dims: np.ndarray
    conjugation: tuple[int, ...]
    residuals: tuple[tuple[str, float], ...]
    config: Config

    @property
    def weights(self) -> tuple[Weight, ...]:
        return self.level_data.weights

    @property
    def vacuum(self) -> int:
        """The vacuum's index: 0, as the zero weight sorts first."""
        return 0

    def __len__(self) -> int:
        return len(self.level_data)

    @cached_property
    def picard(self) -> PicardGroup:
        """The simple currents, by `picard.find_simple_currents`, found once."""
        from . import picard

        return picard.find_simple_currents(self)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def s_residuals(s: np.ndarray) -> tuple[float, float]:
    """(max|S - S^T|, max|S S^dagger - 1|) of a square matrix."""
    return (float(np.max(np.abs(s - s.T))),
            float(np.max(np.abs(s @ s.conj().T - np.eye(len(s))))))


def _assemble(ld: LevelData, s: np.ndarray, config: Config) -> ModularData:
    """The modular datum of the weights ld and the normalized S: h, c and the
    T-exponents from ld; Verlinde, conjugation and quantum dimensions from S.

    Both the computing and the loading path end here, so this is the one
    place S is accepted: NormalizationFailure unless it is symmetric and
    unitary within the tolerance (a NaN residual is neither).  Those two
    residuals and max|(ST)^3 - S^2| are kept as the datum's residuals; the
    one S^2 serves that residual and the conjugation.
    """
    sym, uni = s_residuals(s)
    if not sym <= config.tolerance:
        raise NormalizationFailure("S is not symmetric")
    if not uni <= config.tolerance:
        raise NormalizationFailure("S is not unitary")
    hs = tuple(_conformal_weights(ld))
    c = central_charge(ld)
    t_exponents = tuple(mod1(h - c / 24) for h in hs)
    t = np.diag(np.exp(2j * np.pi * np.array([float(x) for x in t_exponents])))
    s2 = s @ s
    st = float(np.max(np.abs(np.linalg.matrix_power(s @ t, 3) - s2)))
    return ModularData(
        level_data=ld,
        conformal_weights=hs,
        central_charge=c,
        t_exponents=t_exponents,
        s_matrix=_freeze(s),
        fusion=_freeze(verlinde_fusion(s, config)),
        quantum_dims=_freeze(np.real(s[0] / s[0, 0])),
        conjugation=conjugation_from_S(s2, config),
        residuals=(("s-symmetric", sym), ("s-unitary", uni), ("st-cubed-is-s-squared", st)),
        config=config,
    )


def modular_data(t: SimpleLieType | str, level: int, config: Config = DEFAULT_CONFIG) -> ModularData:
    """Build the full modular datum for C(g, k)."""
    if isinstance(t, str):
        t = parse_lie_type(t)
    ld = integrable_weights(t, level, config)
    return _assemble(ld, kac_peterson_S(ld), config)


# --- JSON document (CLI payload; the cache keeps its key and S) -------------


def modular_data_to_doc(md: ModularData) -> dict:
    """Serialize to the JSON document of the ``modular-data`` payload.

    Weights are integer arrays, rationals are "p/q" strings, complex entries
    are [re, im] pairs and the fusion rules are the sorted quadruple table.
    The two big tables stay numpy arrays until they become text: ``sMatrix``
    is the (n, n, 2) float64 array of [re, im] pairs and ``fusion`` is
    ``md.fusion`` itself, and ``jsonout`` writes them from the arrays.
    """
    s = md.s_matrix
    return {
        "schemaVersion": 1,
        "series": md.level_data.lie_type.series,
        "rank": md.level_data.lie_type.rank,
        "level": md.level_data.level,
        "weights": [list(w) for w in md.weights],
        "vacuumIndex": md.vacuum,
        "dualCoxeter": md.level_data.root_system.dual_coxeter,
        "centralCharge": format_rational(md.central_charge),
        "conformalWeights": [format_rational(h) for h in md.conformal_weights],
        "tExponents": [format_rational(x) for x in md.t_exponents],
        "quantumDims": md.quantum_dims.tolist(),
        "conjugation": [int(x) for x in md.conjugation],
        "sMatrix": np.stack((s.real, s.imag), -1),
        "fusion": md.fusion,
    }


def modular_data_from_doc(doc: dict, config: Config = DEFAULT_CONFIG) -> ModularData:
    """Rebuild a ModularData from a document holding at least the series,
    rank, level and S-matrix as [re, im] pairs, as a cache hit passes.

    Only those four fields are read (S is the one expensive quantity, being
    the Kac-Peterson sum).  S must have the shape of the weight set and be
    finite, else ValueError, before any arithmetic on it; the rest is derived
    and checked by the same ``_assemble`` as ``modular_data``, so an S that
    is not symmetric or not unitary raises its NormalizationFailure.  Any
    other field is ignored here:
    ``cache.cache_lookup`` requires that the key and S of the result, saved
    again, reproduce the stored file byte for byte.
    """
    ld = integrable_weights(SimpleLieType(doc["series"], doc["rank"]), doc["level"], config)
    n = len(ld)
    pairs = np.array(doc["sMatrix"], dtype=np.float64)  # a copy: S must not alias doc
    if pairs.shape != (n, n, 2):
        raise ValueError("stored S-matrix has the wrong shape")
    if not np.isfinite(pairs).all():  # no computed S holds NaN or inf: a bad file
        raise ValueError("stored S-matrix is not finite")
    s = pairs.view(np.complex128)[..., 0]  # exact, signed zeros included
    return _assemble(ld, s, config)
