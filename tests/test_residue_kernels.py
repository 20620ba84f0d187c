"""The array kernels of extract_phi, the bimodule ring and partition_function
against the scalar loops they replaced.

Each oracle below is the per-entry implementation over Fractions and numpy
scalars that the kernel superseded, kept as it was.  Results must agree
exactly (phi spreads bit for bit), and on tampered input the kernels must
raise the same exception with the same message as the scalar scan.
"""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from wzwkit import (
    build_bimodule_ring,
    build_pointed_bimodule_ring,
    classify_algebras,
    extract_phi,
    find_simple_currents,
    fixed_points,
    partition_function,
    twining_S,
)
from wzwkit.bimodule import BimoduleClass, _all_characters, _build_ring, _char_add, _ksb_character
from wzwkit.config import DEFAULT_CONFIG
from wzwkit.errors import (
    FixedPointsPresent,
    LambdaDependence,
    NegativeEntry,
    NonIntegerEntry,
    SnapFailure,
    UnsupportedFolding,
    WzwError,
)
from wzwkit.picard import PicardGroup
from wzwkit.residues import mod1, snap_to_residue, unit_phase
from wzwkit.schellekens import KSB, SchellekensAlgebra, Subgroup
from wzwkit.twining import PhiValues, TwiningSMatrix

from conftest import CATALOG

CASES = [*CATALOG, ("A5", 3), ("D4", 4), ("A3", 6), ("D6", 2), ("A7", 2)]
IDS = [f"{name}:{k}" for name, k in CASES]


# -- scalar oracles ----------------------------------------------------------


def monodromy_charge(md, pg, i, a):
    """Q_i(g) = h_{g.i} - h_g - h_i mod 1, from md's conformal weights."""
    g = pg.elements[a]
    hs = md.conformal_weights
    return mod1(hs[g.action[i]] - hs[g.object_index] - hs[i])


def scalar_additivity_scan(md, pg):
    """Raise at the first object whose charges are not a character of the group."""
    n = len(pg)
    for i in range(len(md)):
        row = [monodromy_charge(md, pg, i, a) for a in range(n)]
        for a in range(n):
            for b in range(n):
                if mod1(row[pg.table[a][b]] - row[a] - row[b]) != 0:
                    raise NonIntegerEntry(f"monodromy charge not additive at object {i}")


def scalar_extract_phi(md, pg, tsm, g, h, config=DEFAULT_CONFIG):
    fixed = tsm.fixed_points
    pos = {w: r for r, w in enumerate(fixed)}
    action = pg.elements[h].action
    zero_floor = math.sqrt(config.tolerance)
    denom = max(pg.exponent, 1)
    out = {}
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
        spread = max(abs(x - y) for x in candidates for y in candidates)
        worst_spread = max(worst_spread, spread)
        if spread > config.tolerance:
            raise LambdaDependence(
                f"phi ratio for (g={g}, h={h}) varies with the reference by {spread:.3e}"
            )
        value = candidates[0]
        if abs(abs(value) - 1.0) > zero_floor:
            raise LambdaDependence(f"phi candidate has modulus {abs(value):.6f}, not 1")
        phase = (-cmath.phase(value) / (2 * math.pi)) % 1.0
        snapped = snap_to_residue(phase, denom, 1e-6)
        if snapped is None:
            raise SnapFailure(
                f"phase {phase:.9f} is not within 1e-6 of a multiple of 1/{denom}"
            )
        out[target_weight] = snapped
    return PhiValues(g, h, out, worst_spread)


def scalar_ring(md, algebra, objects, representative_choice=None):
    """(basis, structure, unit) by the per-entry loop over Fraction characters."""
    sub = algebra.support
    pg = algebra.picard
    members = sub.members
    obj_set = set(objects)
    orbit_rep = {}
    shift = {}
    fixed = sorted(i for i in objects for g in members[1:] if pg.act(g, i) == i)
    if fixed:
        raise FixedPointsPresent([md.weights[i] for i in sorted(set(fixed))])
    for i in objects:
        if i in orbit_rep:
            continue
        orbit = sorted(pg.act(g, i) for g in members)
        if any(j not in obj_set for j in orbit):
            raise WzwError("object set is not closed under the H-action")
        rep = orbit[0]
        if representative_choice is not None:
            rep = representative_choice.get(orbit[0], orbit[0])
            if rep not in orbit:
                raise ValueError(f"representative {rep} is not in orbit {orbit}")
        for g in members:
            j = pg.act(g, rep)
            orbit_rep[j] = rep
            shift[j] = _ksb_character(algebra, sub.local(g))
    chars = _all_characters(algebra)
    reps = sorted(set(orbit_rep.values()))
    basis = [BimoduleClass(rep, ch) for rep in reps for ch in chars]
    basis_t = tuple(sorted(basis, key=lambda c: (c.object_index, c.character)))
    index = {cls: x for x, cls in enumerate(basis_t)}
    expected = len(objects) * len(chars) // len(members)
    if len(basis_t) != expected:
        raise WzwError(f"rank {len(basis_t)} != |I||H*|/|H| = {expected}")

    def canonical(obj, ch):
        return index[BimoduleClass(orbit_rep[obj], _char_add(ch, shift[obj]))]

    n = len(basis_t)
    structure = np.zeros((n, n, n), dtype=np.int64)
    fusion = md.fusion
    for x, cx in enumerate(basis_t):
        for y, cy in enumerate(basis_t):
            ch = _char_add(cx.character, cy.character)
            row = fusion[cx.object_index, cy.object_index]
            for k in np.nonzero(row)[0]:
                k = int(k)
                if k not in obj_set:
                    raise WzwError("fusion leaves the object set")
                structure[x, y, canonical(k, ch)] += int(row[k])
    trivial = tuple(mod1(Fraction(0)) for _ in members)
    return basis_t, structure, canonical(md.vacuum, trivial)


def _scalar_is_bihomomorphism(sub, values):
    table = sub.local_table
    n = len(sub)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mod1(values[table[a][b]][c] - values[a][c] - values[b][c]) != 0:
                    return False
                if mod1(values[c][table[a][b]] - values[c][a] - values[c][b]) != 0:
                    return False
    return True


def scalar_partition_function(md, algebra):
    sub = algebra.support
    pg = algebra.picard
    ksb = algebra.ksb
    if not _scalar_is_bihomomorphism(sub, ksb.values):
        raise NonIntegerEntry("Xi is not a bihomomorphism on H x H")
    n = len(md)
    members = sub.members
    charges = [[monodromy_charge(md, pg, i, g) for g in members] for i in range(n)]
    z = [[0] * n for _ in range(n)]
    for i in range(n):
        for a, g in enumerate(members):
            trivial = all(
                mod1(charges[i][b] + ksb.value(b, a)) == 0 for b in range(len(members))
            )
            if trivial:
                j = md.conjugation[pg.act(g, i)]
                z[i][j] += 1
    if any(entry < 0 for row in z for entry in row):
        raise NegativeEntry("negative partition entry")
    return z


# -- helpers -----------------------------------------------------------------


def _outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return (type(exc), str(exc))


def _assert_same_phi(new, old):
    if isinstance(old, tuple):
        assert new == old
        return
    assert (new.g, new.h) == (old.g, old.h)
    assert list(new.by_weight.items()) == list(old.by_weight.items())
    assert float(new.spread).hex() == float(old.spread).hex()


def _twining_matrices(md, pg):
    """(g, S^w) for every Picard element with fixed points and a supported fold."""
    out = []
    for g in range(len(pg)):
        if not fixed_points(md, pg, g):
            continue
        try:
            out.append((g, twining_S(md, pg, g)))
        except UnsupportedFolding:
            continue
    return out


# -- agreement on the catalog ------------------------------------------------


@pytest.mark.parametrize("name,k", CASES, ids=IDS)
def test_phi_kernel_matches_scalar_scan(name, k, md_of, pic_of):
    md, pg = md_of(name, k), pic_of(name, k)
    pairs = 0
    for g, tsm in _twining_matrices(md, pg):
        for h in range(len(pg)):
            new = _outcome(extract_phi, pg, tsm, g, h)
            old = _outcome(scalar_extract_phi, md, pg, tsm, g, h)
            _assert_same_phi(new, old)
            pairs += 1
    assert pairs >= 1  # the identity always has every weight fixed


@pytest.mark.parametrize("name,k", CASES, ids=IDS)
def test_ring_kernel_matches_scalar_loop(name, k, md_of, pic_of):
    md, pg = md_of(name, k), pic_of(name, k)
    invertible = sorted(el.object_index for el in pg.elements)
    for ca in classify_algebras(md, pg):
        for build, objects in (
            (build_bimodule_ring, list(range(len(md)))),
            (build_pointed_bimodule_ring, invertible),
        ):
            new = _outcome(build, md, ca.algebra)
            old = _outcome(scalar_ring, md, ca.algebra, objects)
            if isinstance(old, tuple) and isinstance(old[0], type):
                assert new == old
                continue
            basis, structure, unit = old
            assert new.basis == basis
            assert new.unit == unit
            assert new.structure.dtype == structure.dtype
            assert np.array_equal(new.structure, structure)


@pytest.mark.parametrize("name,k", CASES, ids=IDS)
def test_partition_kernel_matches_scalar_loop(name, k, md_of, pic_of):
    md, pg = md_of(name, k), pic_of(name, k)
    for ca in classify_algebras(md, pg):
        new = partition_function(md, ca.algebra)
        assert new.tolist() == scalar_partition_function(md, ca.algebra)
        assert new.dtype == np.int64 and not new.flags.writeable


def test_ring_kernel_honours_representative_choice(md_of, pic_of):
    md, pg = md_of("A2", 2), pic_of("A2", 2)
    algebra = next(ca.algebra for ca in classify_algebras(md, pg) if len(ca.algebra.support) == 3)
    members = algebra.support.members
    choice = {}
    for i in range(len(md)):
        orbit = sorted(pg.act(g, i) for g in members)
        choice[orbit[0]] = orbit[-1]
    ring = build_bimodule_ring(md, algebra, choice)
    basis, structure, unit = scalar_ring(md, algebra, list(range(len(md))), choice)
    assert ring.basis == basis and ring.unit == unit
    assert np.array_equal(ring.structure, structure)


# -- error parity on tampered input ------------------------------------------


def _a3_swap(md_of, pic_of):
    md, pg = md_of("A3", 2), pic_of("A3", 2)
    jsq = next(a for a in range(len(pg)) if pg.elements[a].order == 2)
    j = next(a for a in range(len(pg)) if pg.elements[a].order == 4)
    return md, pg, jsq, j, twining_S(md, pg, jsq)


def _mismatch(m):
    bad = np.array(m, copy=True)
    bad[1, 0] = 0.0
    return bad


def _no_usable_row(m):
    bad = np.array(m, copy=True)
    bad[:, 0] = 0.0
    return bad


def _spread(m):
    bad = np.array(m, copy=True)
    bad[0, 0] += 1e-3
    return bad


def _modulus(m):
    bad = np.array(m, copy=True)
    bad[:, 0] *= 1.1
    return bad


def _snap(m):
    z = np.exp(2j * np.pi * 0.13)
    return np.array([[z, 1.0], [1.0, -np.conj(z)]]) / np.sqrt(2)


@pytest.mark.parametrize(
    "tamper,use_swap,exc,prefix",
    [
        (_mismatch, True, LambdaDependence, "|S^w| mismatch between columns 0 and 1"),
        (_no_usable_row, False, LambdaDependence, "no usable reference row"),
        (_spread, True, LambdaDependence, "phi ratio for"),
        (_modulus, True, LambdaDependence, "phi candidate has modulus 1.1"),
        (_snap, True, SnapFailure, "phase "),
    ],
    ids=["mismatch", "no-usable-row", "spread", "modulus", "snap"],
)
def test_phi_error_parity(tamper, use_swap, exc, prefix, md_of, pic_of):
    md, pg, jsq, j, tsm = _a3_swap(md_of, pic_of)
    h = j if use_swap else 0
    bad = TwiningSMatrix(tsm.fixed_points, tamper(tsm.matrix), tsm.fold)
    new = _outcome(extract_phi, pg, bad, jsq, h)
    assert new == _outcome(scalar_extract_phi, md, pg, bad, jsq, h)
    assert new[0] is exc and new[1].startswith(prefix)


@pytest.mark.parametrize("tamper", [None, _mismatch], ids=["clean", "mismatch-first"])
def test_phi_moved_column_raises_after_earlier_columns(tamper, md_of, pic_of):
    """A column that h moves off the fixed set raises ValueError, but only
    after the columns before it have passed their own checks."""
    md, pg, jsq, j, tsm = _a3_swap(md_of, pic_of)
    other = next(i for i in range(len(md)) if i not in tsm.fixed_points)
    m = tsm.matrix if tamper is None else tamper(tsm.matrix)
    grown = np.eye(3, dtype=np.complex128)
    grown[:2, :2] = m
    bad = TwiningSMatrix(tsm.fixed_points + (other,), grown, tsm.fold)
    new = _outcome(extract_phi, pg, bad, jsq, j)
    assert new == _outcome(scalar_extract_phi, md, pg, bad, jsq, j)
    assert new[0] is (ValueError if tamper is None else LambdaDependence)


@pytest.mark.parametrize("name,k", [("A3", 2), ("A5", 3), ("D4", 4)])
def test_phi_error_parity_under_random_tampering(name, k, md_of, pic_of):
    """Random zeroed, nudged, rescaled and rotated entries: the kernel reports
    what the scalar scan reports, for every h, whichever column fails first."""
    md, pg = md_of(name, k), pic_of(name, k)
    rng = np.random.default_rng(11)
    kinds = set()
    for g, tsm in _twining_matrices(md, pg):
        n = len(tsm)
        for _ in range(12):
            bad = np.array(tsm.matrix, copy=True)
            for _ in range(rng.integers(1, 4)):
                r, c = rng.integers(0, n, size=2)
                op = rng.integers(0, 4)
                if op == 0:
                    bad[r, c] = 0.0
                elif op == 1:
                    bad[r, c] += 10.0 ** rng.uniform(-9, -2)
                elif op == 2:
                    bad[:, c] *= 1.0 + 10.0 ** rng.uniform(-8, -1)
                else:
                    bad[:, c] *= np.exp(2j * np.pi * 0.13)
            tampered = TwiningSMatrix(tsm.fixed_points, bad, tsm.fold)
            for h in range(len(pg)):
                new = _outcome(extract_phi, pg, tampered, g, h)
                old = _outcome(scalar_extract_phi, md, pg, tampered, g, h)
                _assert_same_phi(new, old)
                kinds.add(new[1].split(" ")[0] if isinstance(new, tuple) else "ok")
    assert len(kinds) >= 3


@pytest.mark.parametrize("name,k", [("A1", 4), ("A3", 3), ("D4", 2)])
def test_partition_additivity_error_parity(name, k, md_of, pic_of):
    """Edited conformal weights break the additivity of Q: building the Picard
    group reports the first failing object of a scalar scan over the whole
    group.  Where Q stays additive, Z still matches the scalar loop."""
    md, pg = md_of(name, k), pic_of(name, k)
    algebras = [ca.algebra for ca in classify_algebras(md, pg)]
    failing = set()
    for w in range(1, len(md)):
        hs = list(md.conformal_weights)
        hs[w] += Fraction(1, 7)
        edited = dataclasses.replace(md, conformal_weights=tuple(hs))
        new = _outcome(find_simple_currents, edited)
        old = _outcome(scalar_additivity_scan, edited, pg)
        if not isinstance(new, PicardGroup):
            assert new == old
            assert new[0] is NonIntegerEntry
            failing.add(new[1])
            continue
        assert old is None
        for algebra in algebras:
            sub = Subgroup(new, algebra.support.members)
            rebuilt = SchellekensAlgebra(sub, KSB(sub, algebra.ksb.values))
            z = _outcome(partition_function, edited, rebuilt)
            assert z.tolist() == scalar_partition_function(edited, rebuilt)
    assert any(not msg.endswith("object 0") for msg in failing)


def test_partition_bicharacter_error_parity(md_of, pic_of):
    md, pg = md_of("A1", 4), pic_of("A1", 4)
    algebra = next(ca.algebra for ca in classify_algebras(md, pg) if len(ca.algebra.support) == 2)
    good = algebra.ksb
    bad_values = ((Fraction(0), Fraction(1, 3)), (Fraction(0), good.value(1, 1)))
    bad = SchellekensAlgebra(algebra.support, KSB(algebra.support, bad_values))
    new = _outcome(partition_function, md, bad)
    assert new == _outcome(scalar_partition_function, md, bad)
    assert new == (NonIntegerEntry, "Xi is not a bihomomorphism on H x H")


def test_ring_error_parity(md_of, pic_of):
    """Products the ring cannot place raise what the per-entry loop raised:
    a fusion product outside the object set, and an object whose shift
    Xi(., h) is no character of H (a Xi that is not a bicharacter)."""
    md, pg = md_of("A2", 2), pic_of("A2", 2)
    algebra = next(ca.algebra for ca in classify_algebras(md, pg) if len(ca.algebra.support) == 3)
    members = algebra.support.members
    currents = {el.object_index for el in pg.elements}
    i = next(i for i in range(len(md)) if i not in currents)
    orbit = sorted(pg.act(g, i) for g in members)  # closed under H, not under fusion
    values = [list(row) for row in algebra.ksb.values]
    values[1][2] = mod1(values[1][2] + Fraction(1, 2))
    skewed = SchellekensAlgebra(algebra.support, KSB(algebra.support, tuple(map(tuple, values))))
    for alg, objects, exc in (
        (algebra, orbit, WzwError),
        (skewed, list(range(len(md))), KeyError),
    ):
        new = _outcome(_build_ring, md, alg, objects, False)
        assert new == _outcome(scalar_ring, md, alg, objects)
        assert new[0] is exc
