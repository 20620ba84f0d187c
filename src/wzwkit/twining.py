"""Fixed points of simple-current automorphisms, diagram foldings, the
twining S-matrices, and the extraction of the gauge-invariant 6j-scalars.

The folding catalog covers trivial automorphisms and A-series cycle rotations
(which includes the rank-1 affine swap).  A rotation of order d on the
(n+1)-cycle folds to the cycle of length (n+1)/d at level k/d; fixed-point
weights restrict to the folded weight set by reading off one affine label per
node orbit.

The 6j-scalar phi_{U}(g, h) is recovered from the ratio identity

    phi_{U}(g, h) = theta_ref(h) * S^w[ref, U] / S^w[ref, h.U]

which must be independent of the reference fixed point `ref`; that
independence is the testable content of the conjecture and is enforced here,
never assumed.  theta_ref(h) is evaluated once per reference row from the
integer charge table, the ratios of all columns form one array, and the
reference dependence of a column is the diameter of its candidate set, taken
over all pairs at once.  A snapped phi is a residue over the Picard group's
`charge_den`, like the twists it is checked against, so the additivity and
diagonal checks compare integers.

Every consumer of phi uses one engine, `PhiRows` (S^w of one g, then phi(g, h)
for a list of h, keeping a violation met for one h in the row, each computed
once per Picard group), and one validator, `conjecture_checks`, which turns
rows into the property suite.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .affine import LevelData, SimpleLieType, affine_labels, integrable_weights, kac_peterson_S
from .config import Config, DEFAULT_CONFIG
from .errors import LambdaDependence, NormalizationFailure, SnapFailure, UnsupportedFolding, WzwError
from .picard import PicardGroup, diagram_automorphism
from .residues import format_residue, snap_to_residue


def fixed_points(pg: PicardGroup, a: int) -> tuple[int, ...]:
    """Indices of all weights with g.Lambda = Lambda under the fusion action."""
    return tuple(i for i, j in enumerate(pg.elements[a].action) if j == i)


@dataclass(frozen=True)
class OrbitAlgebraData:
    """Folded algebra identification plus the fixed-point weight dictionary."""

    folded_series: str
    folded_rank: int
    folded_level: int
    weight_map: dict[int, int]  # original weight index -> folded weight index
    folded_level_data: LevelData | None  # None when the folded rank is 0


def _rotation_amount(perm: tuple[int, ...]) -> int | None:
    n = len(perm)
    m = perm[0]
    if all(perm[i] == (i + m) % n for i in range(n)):
        return m
    return None


def fold_diagram(ld: LevelData, perm: tuple[int, ...], config: Config = DEFAULT_CONFIG) -> OrbitAlgebraData:
    """Fold the affine diagram along the node permutation `perm`, an A-series
    rotation or the identity."""
    n = ld.lie_type.rank
    k = ld.level
    m = _rotation_amount(perm)
    if m == 0:
        return OrbitAlgebraData(
            folded_series=ld.lie_type.series,
            folded_rank=n,
            folded_level=k,
            weight_map={i: i for i in range(len(ld.weights))},
            folded_level_data=ld,
        )
    if ld.lie_type.series != "A" or m is None:
        raise UnsupportedFolding(
            f"folding supports only A-series cycle rotations, got {perm} "
            f"on {ld.lie_type}"
        )
    nodes = n + 1
    cycle_len = math.gcd(m, nodes)   # folded cycle length
    d = nodes // cycle_len           # rotation order
    if k % d != 0:
        raise UnsupportedFolding(
            f"rotation order {d} does not divide level {k}; the fixed-point set is empty"
        )
    folded_level = k // d
    fixed_labels = {}
    for idx, w in enumerate(ld.weights):
        labels = affine_labels(ld, w)
        if all(labels[i] == labels[(i + m) % nodes] for i in range(nodes)):
            fixed_labels[idx] = labels
    if cycle_len == 1:
        if len(fixed_labels) != 1:
            raise UnsupportedFolding(
                f"expected a single fixed point for total folding, found {len(fixed_labels)}"
            )
        return OrbitAlgebraData("A", 0, folded_level, dict.fromkeys(fixed_labels, 0), None)
    folded_ld = integrable_weights(SimpleLieType("A", cycle_len - 1), folded_level, config)
    weight_map = {idx: folded_ld.index(tuple(labels[1:cycle_len]))
                  for idx, labels in fixed_labels.items()}
    if sorted(weight_map.values()) != list(range(len(folded_ld))):
        raise UnsupportedFolding("fixed points do not biject onto the folded weight set")
    return OrbitAlgebraData("A", cycle_len - 1, folded_level, weight_map, folded_ld)


@dataclass(frozen=True)
class TwiningSMatrix:
    """Fixed-point set plus the unitary symmetric modular matrix S^w."""

    fixed_points: tuple[int, ...]
    matrix: np.ndarray
    fold: OrbitAlgebraData = field(compare=False)

    def __len__(self) -> int:
        return len(self.fixed_points)

    @property
    def symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))

    @property
    def unitarity_residual(self) -> float:
        m = self.matrix
        return float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))


def twining_S(pg: PicardGroup, a: int, config: Config = DEFAULT_CONFIG) -> TwiningSMatrix:
    """S^w for the automorphism attached to Picard element a.

    Computed as the Kac-Peterson matrix of the folded algebra pulled back
    along the weight dictionary; the overall scalar is fixed by making the
    diagonal entry at the minimal-conformal-weight fixed point real positive.
    """
    md = pg.md
    fixed = fixed_points(pg, a)
    if not fixed:
        raise ValueError(f"Picard element {a} has no fixed points at this level")
    fold = fold_diagram(md.level_data, diagram_automorphism(pg, a), config)
    if sorted(fold.weight_map) != sorted(fixed):
        raise WzwError(
            "label fixed points disagree with the fusion action "
            f"({sorted(fold.weight_map)} vs {sorted(fixed)})"
        )
    if fold.folded_rank == 0:
        matrix = np.ones((1, 1), dtype=np.complex128)
    else:
        if fold.folded_level_data is md.level_data:  # identity fold: S^w is S
            s_f = md.s_matrix
        else:
            s_f = kac_peterson_S(fold.folded_level_data, config)
        rows = [fold.weight_map[i] for i in fixed]
        matrix = s_f[np.ix_(rows, rows)]
    anchor = min(range(len(fixed)), key=lambda r: (md.conformal_weights[fixed[r]], fixed[r]))
    z = matrix[anchor, anchor]
    if abs(z) < config.tolerance:
        raise NormalizationFailure("anchor entry of S^w vanishes; cannot fix the phase")
    matrix = matrix * (abs(z) / z)
    matrix.flags.writeable = False
    tsm = TwiningSMatrix(tuple(fixed), matrix, fold)
    if tsm.symmetry_residual > config.tolerance:
        raise NormalizationFailure("S^w is not symmetric")
    if tsm.unitarity_residual > config.tolerance:
        raise NormalizationFailure("S^w is not unitary")
    return tsm


_PAIR_BUDGET = 1 << 18  # candidate pairs held at once by the spread computation


@dataclass(frozen=True)
class PhiValues:
    """Snapped phi residues over charge_den for one (g, h) pair, per fixed
    point of g."""

    g: int
    h: int
    by_weight: dict[int, int]
    spread: float  # worst-case reference dependence of the raw ratio


def extract_phi(
    pg: PicardGroup,
    tsm: TwiningSMatrix,
    g: int,
    h: int,
    config: Config = DEFAULT_CONFIG,
) -> PhiValues:
    """phi_{U}(g, h) for every fixed point U of g, via the ratio identity.

    Twist eigenvalues are exponentials of minus 2*pi*i times the conformal
    weight, so the candidate is exp(-2 pi i Q_ref(h)) * S^w[ref, U] / S^w[ref, h.U];
    the returned residues are normalized additively so that the diagonal
    phi(g, g) equals +h_g mod 1, matching the KSB tables elsewhere in the
    package; each is p/exponent, stored as an integer over charge_den.
    Raises LambdaDependence if the ratio varies with the reference
    weight beyond tolerance (a conjecture violation), SnapFailure if a phase
    is not a small root of unity.

    The columns are checked as arrays but reported as a scan in column order
    would: the first failing column raises, and within it the first of
    |S^w| mismatch (at its first reference row), no usable row, spread,
    modulus and snap that fails.
    """
    fixed = tsm.fixed_points
    pos = {w: r for r, w in enumerate(fixed)}
    action = pg.elements[h].action
    zero_floor = math.sqrt(config.tolerance)
    denom = max(pg.exponent, 1)
    # the scan stops at the first column that h moves off the fixed-point set
    partner = []
    for w in fixed:
        if action[w] not in pos:
            break
        partner.append(pos[action[w]])
    ncol = len(partner)
    c2 = np.array(partner, dtype=np.intp)
    m = tsm.matrix
    small = np.hypot(m.real, m.imag) < zero_floor
    num, den = m[:, :ncol].T, m[:, c2].T  # [column, reference row]
    num_small, den_small = small[:, :ncol].T, small[:, c2].T
    mismatch = num_small != den_small
    usable = ~(num_small | den_small)
    grid = pg.charge_den
    theta = np.array([cmath.exp(2j * cmath.pi * (-q % grid / grid))
                      for q in pg.charges[list(fixed), h].tolist()], dtype=np.complex128)
    # theta * num spelt out in real arithmetic, which is bit-equal to the
    # scalar complex product (numpy's array complex multiply is not)
    cand = np.empty(num.shape, dtype=np.complex128)
    cand.real = theta.real * num.real - theta.imag * num.imag
    cand.imag = theta.real * num.imag + theta.imag * num.real
    cand /= np.where(usable, den, 1.0)
    # spread: the diameter of each column's usable candidates, in column blocks
    spread = np.zeros(ncol)
    step = max(1, _PAIR_BUDGET // max(1, len(fixed) ** 2))
    for lo in range(0, ncol, step):
        block, ok = cand[lo:lo + step], usable[lo:lo + step]
        diff = block[:, :, None] - block[:, None, :]
        dist = np.hypot(diff.real, diff.imag)
        dist[~(ok[:, :, None] & ok[:, None, :])] = 0.0
        spread[lo:lo + step] = dist.max(axis=(1, 2), initial=0.0)
    first_usable = usable.argmax(axis=1) if ncol else np.zeros(0, dtype=np.intp)
    value = cand[np.arange(ncol), first_usable]
    modulus = np.hypot(value.real, value.imag)
    failing = np.flatnonzero(
        mismatch.any(axis=1) | ~usable.any(axis=1) | (spread > config.tolerance)
        | (np.abs(modulus - 1.0) > zero_floor)
    )
    stop = int(failing[0]) if len(failing) else ncol
    out: dict[int, int] = {}
    for c in range(stop):
        # store additively with the +h_g diagonal convention
        phase = (-cmath.phase(value[c]) / (2 * math.pi)) % 1.0
        snapped = snap_to_residue(phase, denom, 1e-6)
        if snapped is None:
            raise SnapFailure(
                f"phase {phase:.9f} is not within 1e-6 of a multiple of 1/{denom}"
            )
        out[fixed[c]] = snapped * (grid // denom)
    if stop < ncol:
        c = stop
        if mismatch[c].any():
            ref = fixed[int(mismatch[c].argmax())]
            raise LambdaDependence(
                f"|S^w| mismatch between columns {c} and {partner[c]} at reference {ref}"
            )
        if not usable[c].any():
            raise LambdaDependence(f"no usable reference row for fixed point {fixed[c]}")
        if spread[c] > config.tolerance:
            raise LambdaDependence(
                f"phi ratio for (g={g}, h={h}) varies with the reference by {spread[c]:.3e}"
            )
        raise LambdaDependence(f"phi candidate has modulus {modulus[c]:.6f}, not 1")
    if ncol < len(fixed):
        raise ValueError(f"element {h} does not preserve the fixed-point set of {g}")
    return PhiValues(g, h, out, float(spread.max(initial=0.0)))


@dataclass(frozen=True)
class PhiRow:
    """S^w of one g and, for each h in the order asked, the phi values of
    (g, h) or the LambdaDependence or SnapFailure that extracting them raised."""

    g: int
    tsm: TwiningSMatrix
    phi: dict[int, PhiValues | LambdaDependence | SnapFailure]


class PhiRows:
    """The phi engine over one Picard group: S^w of each g and phi(g, h) of
    each pair are computed at most once, however many rows ask for them.  An
    error of twining_S is kept and raised again for every row of its g."""

    def __init__(self, pg: PicardGroup, config: Config = DEFAULT_CONFIG) -> None:
        self.pg, self.config = pg, config
        self._tsm: dict[int, TwiningSMatrix | WzwError] = {}
        self._phi: dict[tuple[int, int], PhiValues | LambdaDependence | SnapFailure] = {}

    def row(self, g: int, hs: Iterable[int]) -> PhiRow:
        """S^w for g (its errors propagate), then phi(g, h) for every h in
        `hs`, in that order, a violation met for one h kept in the row."""
        if g not in self._tsm:
            try:
                self._tsm[g] = twining_S(self.pg, g, self.config)
            except WzwError as exc:
                self._tsm[g] = exc
        tsm = self._tsm[g]
        if isinstance(tsm, WzwError):
            raise tsm
        phi = {}
        for h in hs:
            if (g, h) not in self._phi:
                try:
                    self._phi[g, h] = extract_phi(self.pg, tsm, g, h, self.config)
                except (LambdaDependence, SnapFailure) as exc:
                    self._phi[g, h] = exc
            phi[h] = self._phi[g, h]
        return PhiRow(g, tsm, phi)


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


def _additive(a: PhiValues, b: PhiValues, ab: PhiValues, weights, den: int) -> bool:
    return all((a.by_weight[u] + b.by_weight[u]) % den == ab.by_weight[u] for u in weights)


def conjecture_checks(
    pg: PicardGroup, rows: Iterable[PhiRow], config: Config = DEFAULT_CONFIG
) -> list[ConjectureCheck]:
    """The validator: the property suite over phi rows that share one list of h.

    Per row, in order: S^w symmetry and unitarity, reference independence of
    the phi ratio for every h, additivity of the snapped phi in h, and the
    twist-diagonal property; then additivity in g at common fixed points.
    Violations are returned as failed checks, never raised.
    """
    rows = list(rows)
    tol = config.tolerance
    den = pg.charge_den
    phis = {(row.g, h): v for row in rows for h, v in row.phi.items() if isinstance(v, PhiValues)}
    checks: list[ConjectureCheck] = []
    for row in rows:
        g, n = row.g, len(row.tsm)
        sym, uni = row.tsm.symmetry_residual, row.tsm.unitarity_residual
        checks.append(ConjectureCheck(
            "s-omega-symmetric", g, None, sym <= tol, sym, f"{n}x{n} twining matrix"))
        checks.append(ConjectureCheck("s-omega-unitary", g, None, uni <= tol, uni, ""))
        for h, vals in row.phi.items():
            ok = isinstance(vals, PhiValues)
            checks.append(ConjectureCheck(
                "phi-ratio-reference-independent", g, h, ok,
                vals.spread if ok else None, "" if ok else str(vals)))
        for h1 in row.phi:
            for h2 in row.phi:
                h12 = pg.table[h1][h2]
                trio = [phis.get((g, h)) for h in (h1, h2, h12)]
                if None not in trio:
                    checks.append(ConjectureCheck(
                        "phi-additive-in-h", g, h12, _additive(*trio, trio[2].by_weight, den),
                        None, f"h1={h1}, h2={h2}"))
        if (g, g) in phis:
            twist = int(pg.twists[g])
            ok = all(r == twist for r in phis[(g, g)].by_weight.values())
            checks.append(ConjectureCheck("phi-diagonal-equals-twist", g, g, ok, None,
                                          f"twist residue {format_residue(twist, den)}"))
    for row1 in rows:
        for row2 in rows:
            g1, g2 = row1.g, row2.g
            g12 = pg.table[g1][g2]
            for h in row1.phi:
                trio = [phis.get((g, h)) for g in (g1, g2, g12)]
                if None in trio:
                    continue
                common = set.intersection(*(set(v.by_weight) for v in trio))
                if common:
                    checks.append(ConjectureCheck(
                        "phi-additive-in-g", g12, h, _additive(*trio, common, den),
                        None, f"g1={g1}, g2={g2}"))
    return checks


def verify_conjecture(
    algebra, config: Config = DEFAULT_CONFIG, rows: PhiRows | None = None
) -> ConjectureReport:
    """Property suite for the twining/6j relation over the support of an
    algebra: the validator over the rows of every g in H with fixed points,
    each against every h in H.  Algebras of one Picard group can share `rows`,
    so that each S^w and phi value is computed once for all of them."""
    pg = algebra.picard
    if rows is None:
        rows = PhiRows(pg, config)
    elif rows.pg is not pg or rows.config != config:
        raise ValueError("phi rows of another Picard group or Config")
    members = algebra.support.members
    support_rows = (rows.row(g, members) for g in members if fixed_points(pg, g))
    return ConjectureReport(tuple(conjecture_checks(pg, support_rows, config)))
