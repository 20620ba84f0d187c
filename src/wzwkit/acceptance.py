"""The release-gate battery: one callable per acceptance criterion.

Both the pytest suite and the CLI `selftest` subcommand run these; each
criterion returns a CheckResult with its worst observed margin, under the id
it is registered with in `CRITERIA`, which also names it when it crashes.
Oracles are deliberately independent of the code paths they check (closed
forms, brute force, hand-frozen matrices).
"""

from __future__ import annotations

import functools
import io
import tempfile
from collections.abc import Callable
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bimodule, boundary, picard, schellekens, twining
from .affine import ModularData, fusion_rows, modular_data
from .cache import cache_key, cache_lookup, cache_store
from .config import Config, DEFAULT_CONFIG
from .errors import LambdaDependence, PhiUnavailable

CATALOG: tuple[tuple[str, int], ...] = tuple(
    [("A1", k) for k in range(1, 9)]
    + [("A2", k) for k in range(1, 6)]
    + [("A3", k) for k in range(1, 4)]
    + [("B2", k) for k in range(1, 5)]
    + [("G2", k) for k in range(1, 5)]
    + [("D4", k) for k in range(1, 3)]
)


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    margin: float | None
    detail: str


Verdict = tuple[bool, float | None, str]  # (passed, margin, detail) of one run

# (id, runner) of every criterion, in the order run_acceptance runs them
CRITERIA: list[tuple[str, Callable[[Config], CheckResult]]] = []


def _criterion(criterion: str):
    """Register a function of the Config as the runner of `criterion`, whose
    Verdict becomes a CheckResult under that id."""
    def register(fn: Callable[[Config], Verdict]) -> Callable[[Config], CheckResult]:
        @functools.wraps(fn)
        def runner(config: Config) -> CheckResult:
            return CheckResult(criterion, *fn(config))
        CRITERIA.append((criterion, runner))
        return runner
    return register


def _from_notes(notes: list[str], margin: float | None, detail: str) -> Verdict:
    """The verdict of a criterion that fails exactly when it notes a failure:
    the notes are then its detail, else `detail`."""
    return not notes, margin, "; ".join(notes) if notes else detail


@functools.cache
def md(name: str, level: int, config: Config) -> ModularData:
    """The modular datum of name at level under config, made once per process
    for every criterion and the test suite; it holds its Picard group, which
    holds its algebras and phi engine, so they are made once too."""
    return modular_data(name, level, config)


def _of_order(name: str, level: int, order: int,
              config: Config) -> list[schellekens.SchellekensAlgebra]:
    """The classified algebras whose support has the given order."""
    return [a for a in md(name, level, config).picard.algebras if len(a.support) == order]


@_criterion("01-s-matrix-oracle")
def s_matrix_oracle(config: Config) -> Verdict:
    worst = 0.0
    for k in range(1, 11):
        datum = md("A1", k, config)
        n = k + 1
        oracle = np.array(
            [
                [np.sqrt(2.0 / (k + 2)) * np.sin(np.pi * (a + 1) * (b + 1) / (k + 2)) for b in range(n)]
                for a in range(n)
            ]
        )
        worst = max(worst, float(np.max(np.abs(datum.s_matrix - oracle))))
    return (
        worst < 1e-9, worst,
        f"Weyl sum vs closed-form rank-1 S for k<=10, max err {worst:.2e}")


@_criterion("02-modular-relations")
def modular_relations(config: Config) -> Verdict:
    tol = config.tolerance
    worst = 0.0
    for name, k in CATALOG:
        datum = md(name, k, config)
        s = datum.s_matrix
        s4 = float(np.max(np.abs(np.linalg.matrix_power(s, 4) - np.eye(len(datum)))))
        worst = max(worst, *(r for _, r in datum.residuals), s4)
    return (
        worst < tol, worst,
        f"S symmetric/unitary, (ST)^3 = S^2, S^4 = 1 on {len(CATALOG)} catalog entries")


@_criterion("03-fusion")
def fusion_checks(config: Config) -> Verdict:
    notes = []
    for k in range(1, 9):
        n = fusion_rows(md("A1", k, config).fusion, range(k + 1), k + 1)
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    cg = int(
                        abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0
                    )
                    if n[a, b, c] != cg:
                        notes.append(f"A1 level {k} CG mismatch at ({a},{b},{c})")
    for name, k in CATALOG:
        datum = md(name, k, config)
        n = fusion_rows(datum.fusion, range(len(datum)), len(datum))
        lhs = np.einsum("ijm,mkl->ijkl", n, n)
        rhs = np.einsum("jkm,iml->ijkl", n, n)
        if not np.array_equal(lhs, rhs):
            notes.append(f"associativity fails for {name} level {k}")
        if not np.array_equal(n[datum.vacuum], np.eye(len(datum), dtype=np.int64)):
            notes.append(f"vacuum row wrong for {name} level {k}")
    return _from_notes(
        notes, None,
        "A1 truncated Clebsch-Gordan oracle and exact associativity on the catalog")


@_criterion("04-picard-groups")
def picard_groups(config: Config) -> Verdict:
    expected = {"A1": (2,), "A2": (3,), "A3": (4,), "D4": (2, 2), "G2": ()}
    notes = []
    for name, k in CATALOG:
        if name not in expected:
            continue
        pg = md(name, k, config).picard
        if pg.invariant_factors != expected[name]:
            notes.append(f"{name} level {k}: got {pg.invariant_factors}")
    return _from_notes(
        notes, None,
        "A1 -> Z2, A2 -> Z3, A3 -> Z4, D4 -> Z2xZ2, G2 -> 1 at every catalog level")


@_criterion("05-quadratic-form")
def quadratic_form(config: Config) -> Verdict:
    for name, k in CATALOG:
        picard.verify_quadratic(md(name, k, config).picard)
    return (
        True, None,
        "q(g^n) = n^2 q(g), bi-additivity and b = -Q exact on the catalog")


@_criterion("06-partition-functions")
def partition_functions(config: Config) -> Verdict:
    notes = []
    worst = 0.0
    for name, k in CATALOG:
        datum = md(name, k, config)
        for alg in datum.picard.algebras:
            if len(alg.support) == 1:
                conjugation = np.eye(len(datum), dtype=np.int64)[list(datum.conjugation)]
                if not np.array_equal(alg.partition, conjugation):
                    notes.append(f"Cardy Z != conjugation for {name} level {k}")
            norm = schellekens.verify_modular_invariance(datum, alg.partition)
            worst = max(worst, norm)
    deven = _of_order("A1", 4, 2, config)
    want = tuple(
        tuple({(0, 0): 1, (0, 4): 1, (4, 0): 1, (4, 4): 1, (2, 2): 2}.get((i, j), 0)
              for j in range(5))
        for i in range(5)
    )
    if len(deven) != 1 or not np.array_equal(deven[0].partition, want):
        notes.append("(A1,4) D-even matrix wrong")
    dodd = _of_order("A1", 6, 2, config)
    want6 = tuple(
        tuple(int((i % 2 == 0 and i == j) or (i % 2 == 1 and j == 6 - i)) for j in range(7))
        for i in range(7)
    )
    if len(dodd) != 1 or not np.array_equal(dodd[0].partition, want6):
        notes.append("(A1,6) D-odd matrix wrong")
    z2 = [s for s in schellekens.enumerate_subgroups(md("A1", 5, config).picard) if len(s) == 2]
    if len(z2) != 1 or schellekens.enumerate_ksbs(z2[0]):
        notes.append("(A1,5) unexpectedly admits a Z2 KSB")
    return _from_notes(
        notes, worst,
        "Cardy = conjugation, (A1,4) D-even, (A1,6) D-odd, (A1,5) empty; all Z invariant")


@_criterion("07-boundary-counts")
def boundary_counts(config: Config) -> Verdict:
    notes = []
    for name, k, expected in [("A1", 4, 4), ("A1", 6, 5)]:
        alg = _of_order(name, k, 2, config)[0]
        count = boundary.count_boundary_conditions(alg)
        if count.total != expected:
            notes.append(f"({name},{k}) boundary count {count.total} != {expected}")
    checked = 0
    skipped = 0
    for name, k in CATALOG:
        datum = md(name, k, config)
        for alg in datum.picard.algebras:
            try:
                count = boundary.count_boundary_conditions(alg)
            except PhiUnavailable:
                skipped += 1  # non-cyclic stabilizer without a supported folding
                continue
            ishibashi = int(alg.partition[range(len(datum)), datum.conjugation].sum())
            checked += 1
            if count.total != ishibashi:
                notes.append(
                    f"completeness fails for {name} level {k} "
                    f"support {alg.support.members}: {count.total} != {ishibashi}"
                )
    return _from_notes(
        notes, None,
        f"ADE node counts match; completeness exact on {checked} algebras"
        + (f" ({skipped} skipped: phi needs unsupported folding)" if skipped else ""))


@_criterion("08-bimodule-rings")
def bimodule_rings(config: Config) -> Verdict:
    notes = []
    alg = _of_order("A2", 2, 3, config)[0]
    ring = bimodule.build_bimodule_ring(alg)
    if len(ring) != 6:
        notes.append(f"(A2,2) ring rank {len(ring)} != 6")
    n = fusion_rows(ring.structure, range(len(ring)), len(ring))
    if not np.array_equal(np.einsum("ijm,mkl->ijkl", n, n), np.einsum("jkm,iml->ijkl", n, n)):
        notes.append("(A2,2) ring not associative")
    bp = bimodule.bimodule_picard(ring)
    if len(bp) != 3:
        notes.append(f"(A2,2) bimodule Picard order {len(bp)} != 3")
    cardy = _of_order("A1", 2, 1, config)[0]
    ring2 = bimodule.build_bimodule_ring(cardy)
    bp2 = bimodule.bimodule_picard(ring2)
    if bp2.iso_class_name != "Z2" or bp2.invariant_factors != (2,):
        notes.append(f"Ising bimodule Picard is {bp2.iso_class_name}, not Z2")
    return _from_notes(
        notes, None,
        "(A2,2) H=Z3 free ring of rank 6, Pic order 3; Ising Cardy Pic = Z2")


@_criterion("09-kramers-wannier")
def kramers_wannier(config: Config) -> Verdict:
    notes = []
    cardy = _of_order("A1", 2, 1, config)[0]
    ring = bimodule.build_bimodule_ring(cardy)
    kw = bimodule.kramers_wannier_candidates(ring)
    if [c.object_index for c in kw] != [1]:
        notes.append(f"Ising KW candidates {[c.object_index for c in kw]} != [sigma]")
    cardy4 = _of_order("A1", 4, 1, config)[0]
    ring4 = bimodule.build_bimodule_ring(cardy4)
    kw4 = bimodule.kramers_wannier_candidates(ring4)
    if kw4:
        notes.append(f"(A1,4) Cardy unexpectedly has KW candidates {kw4}")
    return _from_notes(
        notes, None,
        "Ising sigma detected via sigma x sigma = 1 + eps; (A1,4) Cardy has none")


@_criterion("10-twining-conjecture")
def conjecture_suite(config: Config) -> Verdict:
    notes = []
    worst = 0.0
    pg = md("A3", 2, config).picard
    tsm = pg.phi_rows.row(pg.orders.index(2), ()).tsm
    m = tsm.matrix
    if m.shape != (2, 2):
        notes.append(f"(A3,2) twining matrix is {m.shape}, not 2x2")
    worst = max(worst, *tsm.residuals)
    full = _of_order("A3", 2, 4, config)[0]
    rep = twining.verify_conjecture(full)
    if not rep.passed:
        notes.extend(f"{c.name} g={c.g} h={c.h}" for c in rep.findings)
    worst = max([worst, *(c.margin for c in rep.checks if c.margin is not None)])
    for name, k in [("A1", 2), ("A1", 4), ("A1", 6), ("A1", 8), ("A2", 3)]:
        for alg in md(name, k, config).picard.algebras:
            if not twining.verify_conjecture(alg).passed:
                notes.append(f"1x1 case {name} level {k} fails")
    # liveness: a perturbed twining matrix must trip the reference test
    perturbed = np.array(m, copy=True)
    perturbed[0, 0] += 1e-3
    u, v = tsm.fold.fixed_points[:2]
    h_swap = next(a for a in range(len(pg)) if pg.action[a, u] == v)
    try:
        twining.extract_phi(twining.TwiningSMatrix(perturbed, tsm.fold), h_swap)
        notes.append("perturbed S^w was not detected (test is dead)")
    except LambdaDependence:
        pass
    return _from_notes(
        notes, worst,
        "(A3,2) 2x2 suite, all 1x1 cases, and the 1e-3 perturbation trips the check")


@_criterion("11-determinism")
def determinism(config: Config) -> Verdict:
    from . import cli

    notes = []
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["modular-data", "A1", "4", "--cache-dir", tmp]
        out1, out2 = io.StringIO(), io.StringIO()
        with redirect_stdout(out1):
            code1 = cli.run(argv)
        with redirect_stdout(out2):
            code2 = cli.run(argv)
        if code1 != 0 or code2 != 0:
            notes.append(f"exit codes {code1}, {code2}")
        if out1.getvalue() != out2.getvalue():
            notes.append("repeated invocations differ")
        path = Path(tmp) / cache_key("A", 1, 4)
        if not path.is_file():
            notes.append("cache file missing")
        else:
            before = path.read_bytes()
            datum = md("A1", 4, config)
            cache_store(Path(tmp), datum)
            if path.read_bytes() != before:
                notes.append("re-store is not byte-identical")
            hit = cache_lookup(Path(tmp), "A", 1, 4, config)
            if hit is None or hit.s_matrix.tobytes() != datum.s_matrix.tobytes():
                notes.append("cache lookup does not return S bit for bit")
    return _from_notes(
        notes, None,
        "CLI output byte-identical across runs; cache round-trips exactly")

def run_acceptance(config: Config = DEFAULT_CONFIG) -> list[CheckResult]:
    """Every criterion's result under config, in the order of CRITERIA."""
    results = []
    for criterion, runner in CRITERIA:
        try:
            results.append(runner(config))
        except Exception as exc:  # a crash is still a clean failure line
            results.append(CheckResult(criterion, False, None, f"{type(exc).__name__}: {exc}"))
    return results
