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
never assumed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .affine import (
    LevelData,
    ModularData,
    SimpleLieType,
    affine_labels,
    integrable_weights,
    kac_peterson_S,
)
from .config import Config, DEFAULT_CONFIG
from .errors import LambdaDependence, NormalizationFailure, SnapFailure, UnsupportedFolding, WzwError
from .picard import DiagramAutomorphism, PicardGroup, diagram_automorphism, monodromy_charge
from .residues import mod1, snap_to_residue, unit_phase


def fixed_points(md: ModularData, pg: PicardGroup, a: int) -> tuple[int, ...]:
    """Indices of all weights with g.Lambda = Lambda under the fusion action."""
    action = pg.elements[a].action
    return tuple(i for i in range(len(md)) if action[i] == i)


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


def fold_diagram(ld: LevelData, aut: DiagramAutomorphism, config: Config = DEFAULT_CONFIG) -> OrbitAlgebraData:
    """Fold the affine diagram along an A-series rotation (or the identity)."""
    n = ld.lie_type.rank
    k = ld.level
    m = _rotation_amount(aut.node_permutation)
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
            f"folding supports only A-series cycle rotations, got {aut.node_permutation} "
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
    if cycle_len == 1:
        weight_map = {}
        for idx, w in enumerate(ld.weights):
            labels = affine_labels(ld, w)
            if all(labels[i] == labels[(i + m) % nodes] for i in range(nodes)):
                weight_map[idx] = 0
        if len(weight_map) != 1:
            raise UnsupportedFolding(
                f"expected a single fixed point for total folding, found {len(weight_map)}"
            )
        return OrbitAlgebraData("A", 0, folded_level, weight_map, None)
    folded_ld = integrable_weights(SimpleLieType("A", cycle_len - 1), folded_level, config)
    weight_map = {}
    for idx, w in enumerate(ld.weights):
        labels = affine_labels(ld, w)
        if all(labels[i] == labels[(i + m) % nodes] for i in range(nodes)):
            folded_finite = tuple(labels[1:cycle_len])
            weight_map[idx] = folded_ld.index(folded_finite)
    if sorted(weight_map.values()) != list(range(len(folded_ld))):
        raise UnsupportedFolding("fixed points do not biject onto the folded weight set")
    return OrbitAlgebraData("A", cycle_len - 1, folded_level, weight_map, folded_ld)


@dataclass(frozen=True)
class TwiningSMatrix:
    """Fixed-point set plus the unitary symmetric modular matrix S^w."""

    fixed_points: tuple[int, ...]
    matrix: np.ndarray
    fold: OrbitAlgebraData | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.fixed_points)


def twining_S(md: ModularData, pg: PicardGroup, a: int, config: Config = DEFAULT_CONFIG) -> TwiningSMatrix:
    """S^w for the automorphism attached to Picard element a.

    Computed as the Kac-Peterson matrix of the folded algebra pulled back
    along the weight dictionary; the overall scalar is fixed by making the
    diagonal entry at the minimal-conformal-weight fixed point real positive.
    """
    fixed = fixed_points(md, pg, a)
    if not fixed:
        raise ValueError(f"Picard element {a} has no fixed points at this level")
    aut = diagram_automorphism(pg, a)
    fold = fold_diagram(md.level_data, aut, config)
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
    if np.max(np.abs(matrix - matrix.T)) > config.tolerance:
        raise NormalizationFailure("S^w is not symmetric")
    if np.max(np.abs(matrix @ matrix.conj().T - np.eye(len(fixed)))) > config.tolerance:
        raise NormalizationFailure("S^w is not unitary")
    matrix.flags.writeable = False
    return TwiningSMatrix(tuple(fixed), matrix, fold)


@dataclass(frozen=True)
class PhiValues:
    """Snapped phi residues for one (g, h) pair, per fixed point of g."""

    g: int
    h: int
    by_weight: dict[int, Fraction]
    spread: float  # worst-case reference dependence of the raw ratio


def extract_phi(
    md: ModularData,
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
    package.  Raises LambdaDependence if the ratio varies with the reference
    weight beyond tolerance (a conjecture violation), SnapFailure if a phase
    is not a small root of unity.
    """
    fixed = tsm.fixed_points
    pos = {w: r for r, w in enumerate(fixed)}
    action = pg.elements[h].action
    zero_floor = math.sqrt(config.tolerance)
    denom = max(pg.exponent, 1)
    out: dict[int, Fraction] = {}
    worst_spread = 0.0
    for c, target_weight in enumerate(fixed):
        moved = action[target_weight]
        if moved not in pos:
            raise ValueError(f"element {h} does not preserve the fixed-point set of {g}")
        c2 = pos[moved]
        candidates = []
        for r, ref in enumerate(fixed):
            num = tsm.matrix[r, c]
            den = tsm.matrix[r, c2]
            if abs(num) < zero_floor and abs(den) < zero_floor:
                continue
            if min(abs(num), abs(den)) < zero_floor:
                raise LambdaDependence(
                    f"|S^w| mismatch between columns {c} and {c2} at reference {ref}"
                )
            theta = unit_phase(-monodromy_charge(md, pg, ref, h))
            candidates.append(theta * num / den)
        if not candidates:
            raise LambdaDependence(f"no usable reference row for fixed point {target_weight}")
        spread = max(
            abs(x - y) for x in candidates for y in candidates
        )
        worst_spread = max(worst_spread, spread)
        if spread > config.tolerance:
            raise LambdaDependence(
                f"phi ratio for (g={g}, h={h}) varies with the reference by {spread:.3e}"
            )
        value = candidates[0]
        if abs(abs(value) - 1.0) > zero_floor:
            raise LambdaDependence(f"phi candidate has modulus {abs(value):.6f}, not 1")
        # store additively with the +h_g diagonal convention
        phase = (-cmath.phase(value) / (2 * math.pi)) % 1.0
        snapped = snap_to_residue(phase, denom, 1e-6)
        if snapped is None:
            raise SnapFailure(
                f"phase {phase:.9f} is not within 1e-6 of a multiple of 1/{denom}"
            )
        out[target_weight] = snapped
    return PhiValues(g, h, out, worst_spread)


@dataclass(frozen=True)
class PhiTable:
    """Residue table phi_U(g, h) keyed (fixed-point weight, g, h).

    g and h are Picard element indices; entries exist for every h in the
    subgroup the table was built for and every fixed point U of g.
    """

    values: dict[tuple[int, int, int], Fraction]

    def value(self, weight_index: int, g: int, h: int) -> Fraction:
        return self.values[(weight_index, g, h)]

    def has(self, weight_index: int, g: int, h: int) -> bool:
        return (weight_index, g, h) in self.values

    def validate(self, pg: PicardGroup, members: tuple[int, ...]) -> list[str]:
        """KSB-property violations (bi-additivity, twist diagonal); empty if clean."""
        problems = []
        keys = self.values
        weights = sorted({u for (u, _, _) in keys})
        for u in weights:
            for g in members:
                for h1 in members:
                    for h2 in members:
                        h12 = pg.table[h1][h2]
                        trio = [(u, g, h1), (u, g, h2), (u, g, h12)]
                        if all(t in keys for t in trio):
                            if mod1(keys[trio[0]] + keys[trio[1]]) != keys[trio[2]]:
                                problems.append(f"phi not additive in h at U={u}, g={g}")
            for g1 in members:
                for g2 in members:
                    g12 = pg.table[g1][g2]
                    for h in members:
                        trio = [(u, g1, h), (u, g2, h), (u, g12, h)]
                        if all(t in keys for t in trio):
                            if mod1(keys[trio[0]] + keys[trio[1]]) != keys[trio[2]]:
                                problems.append(f"phi not additive in g at U={u}, h={h}")
            for g in members:
                if (u, g, g) in keys and keys[(u, g, g)] != pg.twists[g]:
                    problems.append(f"phi diagonal != twist at U={u}, g={g}")
        return problems


def build_phi_table(
    md: ModularData, pg: PicardGroup, members: tuple[int, ...], config: Config = DEFAULT_CONFIG
) -> PhiTable:
    """phi values for all g in `members` with fixed points, against all h in `members`."""
    values: dict[tuple[int, int, int], Fraction] = {}
    for g in members:
        if not fixed_points(md, pg, g):
            continue
        tsm = twining_S(md, pg, g, config)
        for h in members:
            vals = extract_phi(md, pg, tsm, g, h, config)
            for u, r in vals.by_weight.items():
                values[(u, g, h)] = r
    return PhiTable(values)


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


def verify_conjecture(md: ModularData, algebra, config: Config = DEFAULT_CONFIG) -> ConjectureReport:
    """Property suite for the twining/6j relation over the support of an algebra.

    For every g in H with fixed points: S^w unitarity and symmetry, reference
    independence of the phi ratio for every h in H, additivity of the snapped
    phi in both arguments, and the twist-diagonal property.  Violations are
    collected as findings, not raised.
    """
    pg = algebra.picard
    members = algebra.support.members
    checks: list[ConjectureCheck] = []
    phis: dict[tuple[int, int], PhiValues] = {}
    for g in members:
        fixed = fixed_points(md, pg, g)
        if not fixed:
            continue
        tsm = twining_S(md, pg, g, config)
        m = tsm.matrix
        sym = float(np.max(np.abs(m - m.T)))
        uni = float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))
        checks.append(ConjectureCheck(
            "s-omega-symmetric", g, None, sym <= config.tolerance, sym,
            f"{len(m)}x{len(m)} twining matrix"))
        checks.append(ConjectureCheck(
            "s-omega-unitary", g, None, uni <= config.tolerance, uni, ""))
        for h in members:
            try:
                vals = extract_phi(md, pg, tsm, g, h, config)
            except (LambdaDependence, SnapFailure) as exc:
                checks.append(ConjectureCheck(
                    "phi-ratio-reference-independent", g, h, False, None, str(exc)))
                continue
            phis[(g, h)] = vals
            checks.append(ConjectureCheck(
                "phi-ratio-reference-independent", g, h, True, vals.spread, ""))
        # additivity in h on snapped residues
        for h1 in members:
            for h2 in members:
                h12 = pg.table[h1][h2]
                if (g, h1) in phis and (g, h2) in phis and (g, h12) in phis:
                    ok = all(
                        mod1(phis[(g, h1)].by_weight[u] + phis[(g, h2)].by_weight[u])
                        == phis[(g, h12)].by_weight[u]
                        for u in phis[(g, h12)].by_weight
                    )
                    checks.append(ConjectureCheck(
                        "phi-additive-in-h", g, h12, ok, None, f"h1={h1}, h2={h2}"))
        if (g, g) in phis:
            ok = all(r == pg.twists[g] for r in phis[(g, g)].by_weight.values())
            checks.append(ConjectureCheck(
                "phi-diagonal-equals-twist", g, g, ok, None,
                f"twist residue {pg.twists[g]}"))
    # additivity in g at common fixed points
    for g1 in members:
        for g2 in members:
            g12 = pg.table[g1][g2]
            for h in members:
                if (g1, h) in phis and (g2, h) in phis and (g12, h) in phis:
                    common = (
                        set(phis[(g1, h)].by_weight)
                        & set(phis[(g2, h)].by_weight)
                        & set(phis[(g12, h)].by_weight)
                    )
                    if not common:
                        continue
                    ok = all(
                        mod1(phis[(g1, h)].by_weight[u] + phis[(g2, h)].by_weight[u])
                        == phis[(g12, h)].by_weight[u]
                        for u in common
                    )
                    checks.append(ConjectureCheck(
                        "phi-additive-in-g", g12, h, ok, None, f"g1={g1}, g2={g2}"))
    return ConjectureReport(tuple(checks))
