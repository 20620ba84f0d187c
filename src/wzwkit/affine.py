"""Root systems of simple Lie algebras and the modular data of C(g, k).

Conventions:

* Weights are tuples of non-negative Dynkin labels in the fundamental-weight
  basis; the invariant form is normalized so the highest root has length
  squared 2, hence the quadratic form on weights is F = A^{-1} D with A the
  Cartan matrix and D = diag((alpha_i, alpha_i)/2).
* The level-k simple objects are the integrable highest weights with
  sum(comark_i * label_i) <= k, sorted lexicographically (vacuum first).
* Conformal weights h, the central charge c and all T-data are exact
  rationals; the S-matrix and the fusion tensor are double precision.
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
from math import lcm

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import (
    GroupTooLarge,
    NegativeFusion,
    NonIntegerFusion,
    NormalizationFailure,
    NotAPermutation,
    UnsupportedRank,
    WeightNotIntegrable,
)
from .residues import format_rational, mod1

Weight = tuple[int, ...]

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class SimpleLieType:
    """A simple Lie algebra series letter plus rank, e.g. A1 or D4."""

    series: str
    rank: int

    def __post_init__(self) -> None:
        if self.series not in _RANK_RANGE:
            raise UnsupportedRank(f"unknown series {self.series!r}")
        lo, hi = _RANK_RANGE[self.series]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise UnsupportedRank(f"rank {self.rank} invalid for series {self.series}")

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def parse_lie_type(text: str, config: Config = DEFAULT_CONFIG) -> SimpleLieType:
    """Parse strings like "A1" or "D4", enforcing the configured rank cap.

    The rank is ASCII digits only: str.isdigit alone would admit "²", which
    int() rejects, and "٣", which int() reads as 3.
    """
    text = text.strip()
    rank = text[1:]
    if (len(text) < 2 or text[0].upper() not in _RANK_RANGE
            or not (rank.isascii() and rank.isdigit())):
        raise UnsupportedRank(f"cannot parse Lie type {text!r}")
    t = SimpleLieType(text[0].upper(), int(rank))
    if t.rank > config.rank_cap:
        raise UnsupportedRank(f"rank {t.rank} exceeds cap {config.rank_cap}")
    return t


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


def _root_lengths(cartan: list[list[int]]) -> list[Fraction]:
    """Half length squares d_i = (alpha_i, alpha_i)/2 with long roots at 1.

    Solved from the symmetry constraint d_j * A_ij = d_i * A_ji along bonds.
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


@dataclass(frozen=True)
class RootSystem:
    """Tabulated data of a simple Lie algebra in the (theta, theta) = 2 norm."""

    lie_type: SimpleLieType
    cartan: tuple[tuple[int, ...], ...]
    quadratic_form: tuple[tuple[Fraction, ...], ...]  # F_ij = (Lambda_i, Lambda_j)
    weyl_vector: Weight                               # rho, all labels 1
    dual_coxeter: int
    comarks: tuple[int, ...]
    marks: tuple[int, ...]
    half_lengths: tuple[Fraction, ...]                # (alpha_i, alpha_i)/2
    dimension: int
    positive_root_count: int
    highest_root_labels: tuple[int, ...]              # Dynkin labels of theta

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def inner(self, lam: Weight, mu: Weight) -> Fraction:
        """(lam, mu) for weights in Dynkin labels."""
        f = self.quadratic_form
        return sum(
            (lam[i] * f[i][j] * mu[j] for i in range(self.rank) for j in range(self.rank)),
            Fraction(0),
        )


def build_root_system(t: SimpleLieType, config: Config = DEFAULT_CONFIG) -> RootSystem:
    """Construct Cartan matrix, quadratic form, comarks, h-vee and dim g."""
    if t.rank > config.rank_cap:
        raise UnsupportedRank(f"rank {t.rank} exceeds cap {config.rank_cap}")
    cartan = _cartan_matrix(t)
    d = _root_lengths(cartan)
    n = t.rank
    inv = _invert_fraction_matrix([[Fraction(x) for x in row] for row in cartan])
    form = tuple(tuple(inv[i][j] * d[j] for j in range(n)) for i in range(n))
    positives = _positive_roots(cartan)
    theta = positives[-1]
    assert sum(theta) == max(sum(r) for r in positives)
    marks = tuple(theta)
    comarks_frac = [marks[i] * d[i] for i in range(n)]
    assert all(x.denominator == 1 for x in comarks_frac), "comarks must be integers"
    comarks = tuple(int(x) for x in comarks_frac)
    theta_labels = tuple(sum(theta[i] * cartan[i][j] for i in range(n)) for j in range(n))
    # (theta, theta) = sum_i comark_i * theta_label_i must be 2 in this norm
    assert sum(c * l for c, l in zip(comarks, theta_labels)) == 2
    return RootSystem(
        lie_type=t,
        cartan=tuple(tuple(row) for row in cartan),
        quadratic_form=form,
        weyl_vector=tuple([1] * n),
        dual_coxeter=1 + sum(comarks),
        comarks=comarks,
        marks=marks,
        half_lengths=tuple(d),
        dimension=n + 2 * len(positives),
        positive_root_count=len(positives),
        highest_root_labels=theta_labels,
    )


@dataclass(frozen=True)
class WeylGroup:
    """All Weyl group elements as integer matrices on Dynkin labels.

    matrices has shape (|W|, rank, rank); matrices[w] @ labels applies w.
    signs[w] is det(w) = (-1)^(word length).
    """

    matrices: np.ndarray
    signs: np.ndarray

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return zip(self.matrices, self.signs)


def weyl_order(t: SimpleLieType) -> int:
    """|W| from the classical order formulas."""
    from math import factorial

    n = t.rank
    if t.series == "A":
        return factorial(n + 1)
    if t.series in ("B", "C"):
        return 2**n * factorial(n)
    if t.series == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E": {6: 51840, 7: 2903040, 8: 696729600}, "F": {4: 1152}, "G": {2: 12}}[t.series][n]


def _check_weyl_cap(t: SimpleLieType, config: Config) -> int:
    """|W|, or GroupTooLarge when it exceeds config.weyl_cap."""
    order = weyl_order(t)
    if order > config.weyl_cap:
        raise GroupTooLarge(f"|W({t})| = {order} exceeds cap {config.weyl_cap}")
    return order


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
    """The level-k integrable weight set P_+^k in canonical order."""

    lie_type: SimpleLieType
    level: int
    weights: tuple[Weight, ...]
    vacuum_index: int
    root_system: RootSystem

    def index(self, weight: Weight) -> int:
        try:
            return self._lookup[tuple(weight)]
        except AttributeError:
            object.__setattr__(self, "_lookup", {w: i for i, w in enumerate(self.weights)})
            return self._lookup[tuple(weight)]

    def __len__(self) -> int:
        return len(self.weights)


def integrable_weights(t: SimpleLieType, level: int, config: Config = DEFAULT_CONFIG) -> LevelData:
    """Enumerate all label vectors with sum(comark_i * label_i) <= level."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    rs = build_root_system(t, config)
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
    vacuum = out.index(tuple([0] * rs.rank))
    return LevelData(t, level, tuple(out), vacuum, rs)


def affine_labels(ld: LevelData, weight: Weight) -> tuple[int, ...]:
    """Affine Dynkin labels (lambda_0, lambda_1, ..., lambda_r)."""
    lam0 = ld.level - sum(c * l for c, l in zip(ld.root_system.comarks, weight))
    return (lam0, *weight)


def weight_from_affine(ld: LevelData, labels: tuple[int, ...]) -> Weight:
    """Drop the node-0 label; the caller guarantees consistency with the level."""
    finite = tuple(labels[1:])
    expected = ld.level - sum(c * l for c, l in zip(ld.root_system.comarks, finite))
    if labels[0] != expected or any(x < 0 for x in labels):
        raise WeightNotIntegrable(f"affine labels {labels} invalid at level {ld.level}")
    return finite


def conformal_weight(ld: LevelData, weight: Weight) -> Fraction:
    """h_Lambda = (Lambda, Lambda + 2 rho) / (2 (k + h_vee)), exact."""
    weight = tuple(weight)
    if weight not in ld.weights:
        raise WeightNotIntegrable(f"{weight} is not integrable at level {ld.level}")
    rs = ld.root_system
    shifted = tuple(l + 2 for l in weight)  # Lambda + 2 rho in labels
    return rs.inner(weight, shifted) / (2 * (ld.level + rs.dual_coxeter))


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


def kac_peterson_S(ld: LevelData, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """Unitary symmetric S-matrix from the Kac-Peterson sum, S[0,0] real positive.

    Shat = sum_c det(c) exp(-2 pi i (x, c^-1 y)_rest / kappa) D_J(x, c^-1 y), with
    x = L + rho, y = M + rho, c over W/W_J, D_J the determinant form of the
    W_J sum and (.,.)_rest the W_J-invariant rest of the pairing.  Every phase
    is reduced modulo its period in integers before the exponential.
    """
    rs = ld.root_system
    order = _check_weyl_cap(ld.lie_type, config)
    removed, sub, nodes = _classical_subsystem(ld.lie_type)
    cosets = _coset_representatives(rs, removed)
    assert len(cosets) * weyl_order(sub) == order, "W_J is not the stabiliser of omega_p"
    emb, d = _orthogonal_embedding(sub)
    den = lcm(d, *(f.denominator for row in rs.quadratic_form for f in row))
    form = np.array([[int(f * den) for f in row] for row in rs.quadratic_form])
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
    gram = shat @ shat.conj().T
    scale = float(np.mean(np.real(np.diag(gram))))
    if scale <= 0 or np.max(np.abs(gram - scale * np.eye(n))) > config.tolerance * max(scale, 1.0):
        raise NormalizationFailure(
            f"Shat Shat^dagger is not a positive multiple of the identity for {ld.lie_type} level {ld.level}"
        )
    s = shat / np.sqrt(scale)
    z = s[ld.vacuum_index, ld.vacuum_index]
    if abs(z) < config.tolerance:
        raise NormalizationFailure("vanishing vacuum-vacuum entry")
    s = s * (abs(z) / z)
    if _longest_element_is_minus_one(ld.lie_type):
        if np.max(np.abs(s.imag)) > config.tolerance:
            raise NormalizationFailure("S of a self-conjugate algebra is not real")
        s = s.real.astype(np.complex128)
    if np.max(np.abs(s - s.T)) > config.tolerance:
        raise NormalizationFailure("normalized S is not symmetric")
    if np.max(np.abs(s @ s.conj().T - np.eye(n))) > config.tolerance:
        raise NormalizationFailure("normalized S is not unitary")
    return s


def verlinde_fusion(s: np.ndarray, config: Config = DEFAULT_CONFIG) -> np.ndarray:
    """N_ij^k = sum_m S_im S_jm conj(S_km) / S_0m, rounded and checked.

    Slice i is the matrix product (S diag(S_i / S_0)) S^dagger, in real
    arithmetic when S is real.  Each slice is rounded as it is made, so the
    result is the only n^3 array.
    """
    if not s.imag.any():
        s = s.real
    n = len(s)
    sdag = s.conj().T
    fusion = np.empty((n, n, n), dtype=np.int64)
    errs = np.empty(n)
    for i, ratio in enumerate(s / s[0]):
        raw = (s * ratio) @ sdag
        rounded = np.rint(raw.real)
        errs[i] = np.max(np.abs(raw - rounded))
        fusion[i] = rounded
    err = np.max(errs)
    if not err <= config.integrality_tolerance:  # also rejects NaN
        raise NonIntegerFusion(f"fusion deviates from integers by {err:.3e}")
    if np.min(fusion) < 0:
        i, j, k = np.unravel_index(int(np.argmin(fusion)), fusion.shape)
        raise NegativeFusion(f"N[{i},{j},{k}] = {fusion[i, j, k]}")
    return fusion


def conjugation_from_S(s: np.ndarray, vacuum: int, config: Config = DEFAULT_CONFIG) -> tuple[int, ...]:
    """The permutation C with S^2 = C entrywise, as i -> i_bar."""
    s2 = s @ s
    c = np.real(s2)
    n = len(c)
    perm = []
    for i in range(n):
        j = int(np.argmax(c[i]))
        unit = np.arange(n) == j
        if not (np.max(np.abs(c[i] - unit)) < config.tolerance
                and np.max(np.abs(np.imag(s2[i]))) < config.tolerance):
            raise NotAPermutation(f"row {i} of S^2 is not a permutation row")
        perm.append(j)
    if sorted(perm) != list(range(n)) or perm[vacuum] != vacuum:
        raise NotAPermutation("S^2 is not a vacuum-fixing permutation")
    if any(perm[perm[i]] != i for i in range(n)):
        raise NotAPermutation("S^2 is not an involution")
    return tuple(perm)


@dataclass(frozen=True)
class ModularData:
    """Simple objects, S and T data, fusion and duality of C(g, k).

    All arrays are read-only; instances are safe to share across threads.
    """

    level_data: LevelData
    conformal_weights: tuple[Fraction, ...]
    central_charge: Fraction
    t_exponents: tuple[Fraction, ...]  # h - c/24 mod 1
    s_matrix: np.ndarray
    fusion: np.ndarray
    quantum_dims: np.ndarray
    conjugation: tuple[int, ...]

    @property
    def weights(self) -> tuple[Weight, ...]:
        return self.level_data.weights

    @property
    def vacuum(self) -> int:
        return self.level_data.vacuum_index

    def __len__(self) -> int:
        return len(self.level_data)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _assemble(ld: LevelData, s: np.ndarray, config: Config) -> ModularData:
    """The modular datum of the weights ld and the normalized S: h, c and the
    T-exponents from ld; Verlinde, conjugation and quantum dimensions from S.
    Both the computing and the loading path end here."""
    hs = tuple(conformal_weight(ld, w) for w in ld.weights)
    c = central_charge(ld)
    v = ld.vacuum_index
    return ModularData(
        level_data=ld,
        conformal_weights=hs,
        central_charge=c,
        t_exponents=tuple(mod1(h - c / 24) for h in hs),
        s_matrix=_freeze(s),
        fusion=_freeze(verlinde_fusion(s, config)),
        quantum_dims=_freeze(np.real(s[v] / s[v, v])),
        conjugation=conjugation_from_S(s, v, config),
    )


def modular_data(t: SimpleLieType | str, level: int, config: Config = DEFAULT_CONFIG) -> ModularData:
    """Build the full modular datum for C(g, k)."""
    if isinstance(t, str):
        t = parse_lie_type(t, config)
    ld = integrable_weights(t, level, config)
    return _assemble(ld, kac_peterson_S(ld, config), config)


def t_matrix(md: ModularData) -> np.ndarray:
    """Diagonal T = exp(2 pi i (h - c/24)) as a dense matrix."""
    phases = np.exp(2j * np.pi * np.array([float(x) for x in md.t_exponents]))
    return np.diag(phases)


# --- JSON document (CLI payload; the cache keeps its key and S) -------------


def sparse_entries(a: np.ndarray) -> np.ndarray:
    """The nonzero entries of an int64 array as the int64 rows (index..., value),
    in C order, so they come out sorted by index."""
    idx = np.argwhere(a)
    return np.column_stack((idx, a[tuple(idx.T)]))


def modular_data_to_doc(md: ModularData) -> dict:
    """Serialize to the canonical JSON document.

    Weights are integer arrays, rationals are "p/q" strings, complex entries
    are [re, im] pairs and the fusion tensor is a sparse sorted quadruple list.
    The two big tables stay numpy arrays until they become text: ``sMatrix``
    is the (n, n, 2) float64 array of [re, im] pairs and ``fusion`` the
    (m, 4) int64 array of quadruples.  ``jsonout`` writes them from the
    arrays, and ``cache.canonical_json`` reads each as its ``tolist()``.
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
        "fusion": sparse_entries(md.fusion),
    }


def modular_data_from_doc(doc: dict, config: Config = DEFAULT_CONFIG) -> ModularData:
    """Rebuild a ModularData from a JSON document holding at least the
    series, rank, level and S-matrix, as a cache file does.

    Only those four fields are read (S is the one expensive quantity, being
    the Kac-Peterson sum).  S must have the shape of the weight set and be
    finite, symmetric and unitary, else ValueError; the rest is derived by
    the same ``_assemble`` as ``modular_data``.  Any other field is ignored here:
    ``cache.cache_lookup`` requires that the four fields of the result
    reproduce the stored file byte for byte.
    """
    ld = integrable_weights(SimpleLieType(doc["series"], doc["rank"]), doc["level"], config)
    n = len(ld)
    pairs = np.array(doc["sMatrix"], dtype=np.float64)  # a copy: S must not alias doc
    if pairs.shape != (n, n, 2):
        raise ValueError("stored S-matrix has the wrong shape")
    if not np.isfinite(pairs).all():  # NaN would slip past the tolerance tests below
        raise ValueError("stored S-matrix is not finite")
    s = pairs.view(np.complex128)[..., 0]  # exact, signed zeros included
    if np.max(np.abs(s - s.T)) > config.tolerance:
        raise ValueError("stored S-matrix is not symmetric")
    if np.max(np.abs(s @ s.conj().T - np.eye(n))) > config.tolerance:
        raise ValueError("stored S-matrix is not unitary")
    return _assemble(ld, s, config)
