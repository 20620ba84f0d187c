"""Diagram foldings along simple-current automorphisms, the twining
S-matrices, and the extraction of the gauge-invariant 6j-scalars.

The fold of a Picard element g reads its fixed points from the group's
`fixed_points`, which holds them once; S^w, phi and a phi row read the
group, g and the fixed points from it, and every value here hashes.  No
function here takes a Config: each reads the one its modular datum was
assembled and checked under, `pg.md.config`, so S^w, phi and their checks
are held to the tolerance S was accepted under.  Folding covers
the identity and A-series cycle rotations (which include the rank-1 affine
swap): a rotation of order d on the (n+1)-cycle folds to the cycle of length
(n+1)/d at level k/d, and a fixed weight to its labels on one cycle.

The 6j-scalar phi_{U}(g, h) is recovered from the ratio identity

    phi_{U}(g, h) = theta_ref(h) * S^w[ref, U] / S^w[ref, h.U]

which must be independent of the reference fixed point `ref`; that
independence is the testable content of the conjecture and is enforced here,
never assumed.  theta_ref(h) is evaluated once per reference row from the
integer charge table; the columns are scanned in order, and the reference
dependence of a column is the diameter of its candidate set.  A snapped phi
is a residue over the Picard group's `charge_den`, like the twists it is
checked against, so the additivity and diagonal checks compare integers.

Every consumer of phi uses one engine, `PhiRows` (S^w of one g, then phi(g, h)
for a list of h, keeping a violation met for one h in the row, each computed
once per Picard group), which the group holds as `phi_rows`, and one
validator, `conjecture_checks`, which turns rows into the property suite.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .affine import (
    LevelData, SimpleLieType, integrable_weights, kac_peterson_S, s_residuals,
)
from .errors import LambdaDependence, NormalizationFailure, SnapFailure, UnsupportedFolding, WzwError
from .picard import PicardGroup, diagram_automorphism
from .residues import format_residue, snap_to_residue


@dataclass(frozen=True)
class OrbitAlgebraData:
    """The fold of Picard element `element`: the folded level, the folded
    weights (None at rank 0) and `folded`, the index in them of each fixed
    point, as the group holds them in `picard.fixed_points[element]`."""

    picard: PicardGroup
    element: int
    folded_level: int
    folded_level_data: LevelData | None
    folded: tuple[int, ...]

    @property
    def fixed_points(self) -> tuple[int, ...]:
        return self.picard.fixed_points[self.element]


def fold_diagram(pg: PicardGroup, a: int) -> OrbitAlgebraData:
    """Fold the affine diagram along the automorphism that induces the action
    of Picard element a, an A-series rotation or the identity, keeping the
    fixed points of g_a.  The rotation moves node 0 to m = perm[0], where the
    current's weight has label k, so m is 0 only for the identity; the labels
    of a fixed weight repeat along its cycles, so its order divides k, and a
    single cycle keeps only the weight whose labels are all equal."""
    fixed = pg.fixed_points[a]
    if not fixed:
        raise ValueError(f"Picard element {a} has no fixed points at this level")
    perm = diagram_automorphism(pg, a)
    ld = pg.md.level_data
    m = perm[0]
    if m == 0:
        return OrbitAlgebraData(pg, a, ld.level, ld, fixed)
    if ld.lie_type.series != "A":
        raise UnsupportedFolding(
            f"folding supports only A-series cycle rotations, got {perm} "
            f"on {ld.lie_type}"
        )
    nodes = ld.lie_type.rank + 1
    cycle_len = math.gcd(m, nodes)  # folded cycle length
    folded_level = ld.level // (nodes // cycle_len)  # k over the rotation order
    if cycle_len == 1:
        return OrbitAlgebraData(pg, a, folded_level, None, (0,))
    folded_ld = integrable_weights(SimpleLieType("A", cycle_len - 1), folded_level, pg.md.config)
    # a fixed weight's labels at nodes 1 .. cycle_len - 1 are its folded weight
    folded = tuple(folded_ld.index(ld.weights[i][:cycle_len - 1]) for i in fixed)
    if sorted(folded) != list(range(len(folded_ld))):
        raise UnsupportedFolding("fixed points do not biject onto the folded weight set")
    return OrbitAlgebraData(pg, a, folded_level, folded_ld, folded)


@dataclass(frozen=True, eq=False)
class TwiningSMatrix:
    """The unitary symmetric modular matrix S^w on the fixed points of its
    fold, in index order.

    Making one checks only its shape, one row and column per fixed point,
    so the battery can hand a perturbed S^w to extract_phi; twining_S checks
    the matrices it makes.  Compares and hashes by identity.
    """

    matrix: np.ndarray
    fold: OrbitAlgebraData

    def __post_init__(self) -> None:
        n = len(self)
        if self.matrix.shape != (n, n):
            raise ValueError(f"S^w of shape {self.matrix.shape} is not {n}x{n} on its fold's fixed points")

    def __len__(self) -> int:
        return len(self.fold.folded)

    @cached_property
    def residuals(self) -> tuple[float, float]:
        """(max|S^w - S^w^T|, max|S^w S^w^dagger - 1|), measured once."""
        return s_residuals(self.matrix)


def twining_S(pg: PicardGroup, a: int) -> TwiningSMatrix:
    """S^w for the automorphism attached to Picard element a.

    Computed as the Kac-Peterson matrix of the folded algebra pulled back
    along the fold's folded weights; the overall scalar is fixed by making
    the diagonal entry at the minimal-conformal-weight fixed point real
    positive.
    """
    md = pg.md
    config = md.config
    fold = fold_diagram(pg, a)
    fixed = fold.fixed_points
    ld = fold.folded_level_data
    if ld is None:
        matrix = np.ones((1, 1), dtype=np.complex128)
    else:
        identity = ld is md.level_data  # then S^w is S
        s_f = md.s_matrix if identity else kac_peterson_S(ld)
        matrix = s_f[np.ix_(fold.folded, fold.folded)]
    anchor = min(range(len(fixed)), key=lambda r: (md.conformal_weights[fixed[r]], fixed[r]))
    z = matrix[anchor, anchor]
    if not abs(z) >= config.tolerance:  # also rejects NaN
        raise NormalizationFailure("anchor entry of S^w vanishes; cannot fix the phase")
    matrix = matrix * (abs(z) / z)
    matrix.flags.writeable = False
    tsm = TwiningSMatrix(matrix, fold)
    sym, uni = tsm.residuals
    if not sym <= config.tolerance:
        raise NormalizationFailure("S^w is not symmetric")
    if not uni <= config.tolerance:
        raise NormalizationFailure("S^w is not unitary")
    return tsm


@dataclass(frozen=True)
class PhiValues:
    """Snapped phi residues over charge_den for one (g, h) pair, one per
    fixed point of g in the order of its fold; a ``PhiRow`` files them under h."""

    residues: tuple[int, ...]
    spread: float  # worst-case reference dependence of the raw ratio


def extract_phi(tsm: TwiningSMatrix, h: int) -> PhiValues:
    """phi_{U}(g, h) for every fixed point U of g, via the ratio identity,
    with the Picard group and g those of the fold of tsm.

    Twist eigenvalues are exponentials of minus 2*pi*i times the conformal
    weight, so the candidate is exp(-2 pi i Q_ref(h)) * S^w[ref, U] / S^w[ref, h.U];
    the returned residues are normalized additively so that the diagonal
    phi(g, g) equals +h_g mod 1, matching the KSB tables elsewhere in the
    package; each is p/exponent, stored as an integer over charge_den.
    The columns are scanned in order, and the first to fail raises: a
    LambdaDependence for an |S^w| mismatch, no usable reference row, a ratio
    that varies with the reference weight beyond tolerance (a conjecture
    violation) or a modulus off 1, a SnapFailure if a phase is not a small
    root of unity.
    """
    pg, g, fixed = tsm.fold.picard, tsm.fold.element, tsm.fold.fixed_points
    tol = pg.md.config.tolerance
    zero_floor = math.sqrt(tol)
    denom = pg.exponent
    grid = pg.charge_den
    # h commutes with g, so it permutes the fixed points of g: column c pairs
    # with the column of h.fixed[c]
    c2 = np.searchsorted(fixed, pg.action[h, list(fixed)])
    m = tsm.matrix
    small = np.hypot(m.real, m.imag) < zero_floor
    theta = np.array([cmath.exp(2j * cmath.pi * (-q % grid / grid))
                      for q in pg.charges[list(fixed), h].tolist()], dtype=np.complex128)
    out, diameters = [], []
    for c in range(len(fixed)):
        mismatch = small[:, c] != small[:, c2[c]]
        if mismatch.any():
            raise LambdaDependence(f"|S^w| mismatch between columns {c} and {c2[c]} "
                                   f"at reference {fixed[int(mismatch.argmax())]}")
        ref = ~small[:, c]  # the usable reference rows: both entries away from zero
        if not ref.any():
            raise LambdaDependence(f"no usable reference row for fixed point {fixed[c]}")
        t, num = theta[ref], m[ref, c]
        # theta * num spelt out in real arithmetic, which is bit-equal to the
        # scalar complex product (numpy's array complex multiply is not)
        cand = np.empty(len(num), dtype=np.complex128)
        cand.real = t.real * num.real - t.imag * num.imag
        cand.imag = t.real * num.imag + t.imag * num.real
        cand /= m[ref, c2[c]]
        diff = cand[:, None] - cand
        diameter = float(np.hypot(diff.real, diff.imag).max())
        if diameter > tol:
            raise LambdaDependence(f"phi ratio for (g={g}, h={h}) varies with the "
                                   f"reference by {diameter:.3e}")
        diameters.append(diameter)
        value = cand[0]
        modulus = np.hypot(value.real, value.imag)
        if abs(modulus - 1.0) > zero_floor:
            raise LambdaDependence(f"phi candidate has modulus {modulus:.6f}, not 1")
        # store additively with the +h_g diagonal convention
        phase = (-cmath.phase(value) / (2 * math.pi)) % 1.0
        snapped = snap_to_residue(phase, denom, 1e-6)
        if snapped is None:
            raise SnapFailure(
                f"phase {phase:.9f} is not within 1e-6 of a multiple of 1/{denom}"
            )
        out.append(snapped * (grid // denom))
    return PhiValues(tuple(out), float(np.max(diameters, initial=0.0)))  # keeps a NaN


@dataclass(frozen=True)
class PhiRow:
    """S^w of one g, its fold's element, and for each h asked (h, the phi values
    of (g, h) or the LambdaDependence or SnapFailure extracting them raised)."""

    tsm: TwiningSMatrix
    phi: tuple[tuple[int, PhiValues | LambdaDependence | SnapFailure], ...]


class PhiRows:
    """The phi engine over one Picard group: S^w of each g and phi(g, h) of
    each pair are computed at most once, however many rows ask for them.  An
    error of twining_S is kept and raised again for every row of its g."""

    def __init__(self, pg: PicardGroup) -> None:
        self.pg = pg
        self._tsm: dict[int, TwiningSMatrix | WzwError] = {}
        self._phi: dict[tuple[int, int], PhiValues | LambdaDependence | SnapFailure] = {}

    def row(self, g: int, hs: Iterable[int]) -> PhiRow:
        """S^w for g (its errors propagate), then phi(g, h) for every h in
        `hs`, in that order, a violation met for one h kept in the row."""
        if g not in self._tsm:
            try:
                self._tsm[g] = twining_S(self.pg, g)
            except WzwError as exc:
                self._tsm[g] = exc
        tsm = self._tsm[g]
        if isinstance(tsm, WzwError):
            raise tsm
        phi = []
        for h in hs:
            if (g, h) not in self._phi:
                try:
                    self._phi[g, h] = extract_phi(tsm, h)
                except (LambdaDependence, SnapFailure) as exc:
                    self._phi[g, h] = exc
            phi.append((h, self._phi[g, h]))
        return PhiRow(tsm, tuple(phi))


@dataclass(frozen=True)
class ConjectureCheck:
    name: str
    g: int
    h: int | None
    passed: bool
    margin: float | None
    detail: str


@dataclass(frozen=True)
class ConjectureReport:
    checks: tuple[ConjectureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def findings(self) -> tuple[ConjectureCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _additive(a: dict[int, int], b: dict[int, int], ab: dict[int, int], weights, den: int) -> bool:
    return all((a[u] + b[u]) % den == ab[u] for u in weights)


def conjecture_checks(pg: PicardGroup, rows: Iterable[PhiRow]) -> list[ConjectureCheck]:
    """The validator: the property suite over phi rows that share one list of h.

    Per row, in order: S^w symmetry and unitarity, reference independence of
    the phi ratio for every h, additivity of the snapped phi in h, and the
    twist-diagonal property; then additivity in g at common fixed points.
    Violations are returned as failed checks, never raised.
    """
    rows = list(rows)
    tol = pg.md.config.tolerance
    den = pg.charge_den
    phis = {(row.tsm.fold.element, h): dict(zip(row.tsm.fold.fixed_points, v.residues))
            for row in rows for h, v in row.phi if isinstance(v, PhiValues)}
    checks: list[ConjectureCheck] = []
    for row in rows:
        g, n = row.tsm.fold.element, len(row.tsm)
        sym, uni = row.tsm.residuals
        checks.append(ConjectureCheck(
            "s-omega-symmetric", g, None, sym <= tol, sym, f"{n}x{n} twining matrix"))
        checks.append(ConjectureCheck("s-omega-unitary", g, None, uni <= tol, uni, ""))
        for h, vals in row.phi:
            ok = isinstance(vals, PhiValues)
            checks.append(ConjectureCheck(
                "phi-ratio-reference-independent", g, h, ok,
                vals.spread if ok else None, "" if ok else str(vals)))
        for h1, _ in row.phi:
            for h2, _ in row.phi:
                h12 = pg.table[h1][h2]
                trio = [phis.get((g, h)) for h in (h1, h2, h12)]
                if None not in trio:
                    checks.append(ConjectureCheck(
                        "phi-additive-in-h", g, h12, _additive(*trio, trio[2], den),
                        None, f"h1={h1}, h2={h2}"))
        if (g, g) in phis:
            twist = int(pg.twists[g])
            ok = all(r == twist for r in phis[(g, g)].values())
            checks.append(ConjectureCheck("phi-diagonal-equals-twist", g, g, ok, None,
                                          f"twist residue {format_residue(twist, den)}"))
    for row1 in rows:
        for row2 in rows:
            g1, g2 = row1.tsm.fold.element, row2.tsm.fold.element
            g12 = pg.table[g1][g2]
            for h, _ in row1.phi:
                trio = [phis.get((g, h)) for g in (g1, g2, g12)]
                if None in trio:
                    continue
                common = set.intersection(*map(set, trio))
                if common:
                    checks.append(ConjectureCheck(
                        "phi-additive-in-g", g12, h, _additive(*trio, common, den),
                        None, f"g1={g1}, g2={g2}"))
    return checks


def verify_conjecture(algebra) -> ConjectureReport:
    """Property suite for the twining/6j relation over the support of an
    algebra: the validator over the rows of every g in H with fixed points,
    each against every h in H, read from the phi engine its Picard group
    holds (`phi_rows`), which all algebras on the group share."""
    pg = algebra.picard
    members = algebra.support.members
    rows = (pg.phi_rows.row(g, members) for g in members if pg.fixed_points[g])
    return ConjectureReport(tuple(conjecture_checks(pg, rows)))
