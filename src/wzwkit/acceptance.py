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

# (id, runner) of every criterion, in the order run_all runs them
CRITERIA: list[tuple[str, Callable[[Battery], CheckResult]]] = []


def _criterion(criterion: str):
    """Register a Battery method as the runner of `criterion`, whose Verdict
    becomes a CheckResult under that id."""
    def register(fn: Callable[[Battery], Verdict]) -> Callable[[Battery], CheckResult]:
        @functools.wraps(fn)
        def runner(self: Battery) -> CheckResult:
            return CheckResult(criterion, *fn(self))
        CRITERIA.append((criterion, runner))
        return runner
    return register


def _from_notes(notes: list[str], margin: float | None, detail: str) -> Verdict:
    """The verdict of a criterion that fails exactly when it notes a failure:
    the notes are then its detail, else `detail`."""
    return not notes, margin, "; ".join(notes) if notes else detail


class Battery:
    """Shared modular-data cache plus the eleven criterion runners."""

    # One memo of each kind for every Battery in the process, and so for the
    # test suite's md_of and pic_of too; what they hold is immutable.
    _md: dict[tuple[str, int, Config], ModularData] = {}
    _pic: dict[tuple[str, int, Config], picard.PicardGroup] = {}
    _algebras: dict[tuple[str, int, Config], list[schellekens.SchellekensAlgebra]] = {}

    def __init__(self, config: Config = DEFAULT_CONFIG):
        self.config = config

    def md(self, name: str, level: int) -> ModularData:
        key = (name, level, self.config)
        if key not in self._md:
            self._md[key] = modular_data(name, level, self.config)
        return self._md[key]

    def pic(self, name: str, level: int) -> picard.PicardGroup:
        key = (name, level, self.config)
        if key not in self._pic:
            self._pic[key] = picard.find_simple_currents(self.md(name, level))
        return self._pic[key]

    def algebras(self, name: str, level: int) -> list[schellekens.SchellekensAlgebra]:
        key = (name, level, self.config)
        if key not in self._algebras:
            self._algebras[key] = schellekens.classify_algebras(self.pic(name, level))
        return self._algebras[key]

    def of_order(self, name: str, level: int, order: int) -> list[schellekens.SchellekensAlgebra]:
        """The classified algebras whose support has the given order."""
        return [a for a in self.algebras(name, level) if len(a.support) == order]

    # -- 1 ------------------------------------------------------------------

    @_criterion("01-s-matrix-oracle")
    def s_matrix_oracle(self) -> Verdict:
        worst = 0.0
        for k in range(1, 11):
            md = self.md("A1", k)
            n = k + 1
            oracle = np.array(
                [
                    [np.sqrt(2.0 / (k + 2)) * np.sin(np.pi * (a + 1) * (b + 1) / (k + 2)) for b in range(n)]
                    for a in range(n)
                ]
            )
            worst = max(worst, float(np.max(np.abs(md.s_matrix - oracle))))
        return (
            worst < 1e-9, worst,
            f"Weyl sum vs closed-form rank-1 S for k<=10, max err {worst:.2e}")

    # -- 2 ------------------------------------------------------------------

    @_criterion("02-modular-relations")
    def modular_relations(self) -> Verdict:
        tol = self.config.tolerance
        worst = 0.0
        for name, k in CATALOG:
            md = self.md(name, k)
            s = md.s_matrix
            s4 = float(np.max(np.abs(np.linalg.matrix_power(s, 4) - np.eye(len(md)))))
            worst = max(worst, *(r for _, r in md.residuals), s4)
        return (
            worst < tol, worst,
            f"S symmetric/unitary, (ST)^3 = S^2, S^4 = 1 on {len(CATALOG)} catalog entries")

    # -- 3 ------------------------------------------------------------------

    @_criterion("03-fusion")
    def fusion_checks(self) -> Verdict:
        notes = []
        for k in range(1, 9):
            n = fusion_rows(self.md("A1", k).fusion, range(k + 1), k + 1)
            for a in range(k + 1):
                for b in range(k + 1):
                    for c in range(k + 1):
                        cg = int(
                            abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0
                        )
                        if n[a, b, c] != cg:
                            notes.append(f"A1 level {k} CG mismatch at ({a},{b},{c})")
        for name, k in CATALOG:
            md = self.md(name, k)
            n = fusion_rows(md.fusion, range(len(md)), len(md))
            lhs = np.einsum("ijm,mkl->ijkl", n, n)
            rhs = np.einsum("jkm,iml->ijkl", n, n)
            if not np.array_equal(lhs, rhs):
                notes.append(f"associativity fails for {name} level {k}")
            vac = md.vacuum
            if not np.array_equal(n[vac], np.eye(len(md), dtype=np.int64)):
                notes.append(f"vacuum row wrong for {name} level {k}")
        return _from_notes(
            notes, None,
            "A1 truncated Clebsch-Gordan oracle and exact associativity on the catalog")

    # -- 4 ------------------------------------------------------------------

    @_criterion("04-picard-groups")
    def picard_groups(self) -> Verdict:
        expected = {"A1": (2,), "A2": (3,), "A3": (4,), "D4": (2, 2), "G2": ()}
        notes = []
        for name, k in CATALOG:
            if name not in expected:
                continue
            pg = self.pic(name, k)
            if pg.invariant_factors != expected[name]:
                notes.append(f"{name} level {k}: got {pg.invariant_factors}")
        return _from_notes(
            notes, None,
            "A1 -> Z2, A2 -> Z3, A3 -> Z4, D4 -> Z2xZ2, G2 -> 1 at every catalog level")

    # -- 5 ------------------------------------------------------------------

    @_criterion("05-quadratic-form")
    def quadratic_form(self) -> Verdict:
        for name, k in CATALOG:
            picard.verify_quadratic(self.pic(name, k))
        return (
            True, None,
            "q(g^n) = n^2 q(g), bi-additivity and b = -Q exact on the catalog")

    # -- 6 ------------------------------------------------------------------

    @_criterion("06-partition-functions")
    def partition_functions(self) -> Verdict:
        notes = []
        worst = 0.0
        for name, k in CATALOG:
            md = self.md(name, k)
            for alg in self.algebras(name, k):
                if len(alg.support) == 1:
                    conjugation = np.eye(len(md), dtype=np.int64)[list(md.conjugation)]
                    if not np.array_equal(alg.partition, conjugation):
                        notes.append(f"Cardy Z != conjugation for {name} level {k}")
                norm = schellekens.verify_modular_invariance(md, alg.partition)
                worst = max(worst, norm)
        deven = self.of_order("A1", 4, 2)
        want = tuple(
            tuple({(0, 0): 1, (0, 4): 1, (4, 0): 1, (4, 4): 1, (2, 2): 2}.get((i, j), 0)
                  for j in range(5))
            for i in range(5)
        )
        if len(deven) != 1 or not np.array_equal(deven[0].partition, want):
            notes.append("(A1,4) D-even matrix wrong")
        dodd = self.of_order("A1", 6, 2)
        want6 = tuple(
            tuple(int((i % 2 == 0 and i == j) or (i % 2 == 1 and j == 6 - i)) for j in range(7))
            for i in range(7)
        )
        if len(dodd) != 1 or not np.array_equal(dodd[0].partition, want6):
            notes.append("(A1,6) D-odd matrix wrong")
        z2 = [s for s in schellekens.enumerate_subgroups(self.pic("A1", 5)) if len(s) == 2]
        if len(z2) != 1 or schellekens.enumerate_ksbs(z2[0]):
            notes.append("(A1,5) unexpectedly admits a Z2 KSB")
        return _from_notes(
            notes, worst,
            "Cardy = conjugation, (A1,4) D-even, (A1,6) D-odd, (A1,5) empty; all Z invariant")

    # -- 7 ------------------------------------------------------------------

    @_criterion("07-boundary-counts")
    def boundary_counts(self) -> Verdict:
        notes = []
        for name, k, expected in [("A1", 4, 4), ("A1", 6, 5)]:
            alg = self.of_order(name, k, 2)[0]
            count = boundary.count_boundary_conditions(alg)
            if count.total != expected:
                notes.append(f"({name},{k}) boundary count {count.total} != {expected}")
        checked = 0
        skipped = 0
        for name, k in CATALOG:
            md = self.md(name, k)
            for alg in self.algebras(name, k):
                try:
                    count = boundary.count_boundary_conditions(alg)
                except PhiUnavailable:
                    skipped += 1  # non-cyclic stabilizer without a supported folding
                    continue
                ishibashi = int(alg.partition[range(len(md)), md.conjugation].sum())
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

    # -- 8 ------------------------------------------------------------------

    @_criterion("08-bimodule-rings")
    def bimodule_rings(self) -> Verdict:
        notes = []
        alg = self.of_order("A2", 2, 3)[0]
        ring = bimodule.build_bimodule_ring(alg)
        if len(ring) != 6:
            notes.append(f"(A2,2) ring rank {len(ring)} != 6")
        n = fusion_rows(ring.structure, range(len(ring)), len(ring))
        if not np.array_equal(np.einsum("ijm,mkl->ijkl", n, n), np.einsum("jkm,iml->ijkl", n, n)):
            notes.append("(A2,2) ring not associative")
        bp = bimodule.bimodule_picard(ring)
        if len(bp) != 3:
            notes.append(f"(A2,2) bimodule Picard order {len(bp)} != 3")
        cardy = self.of_order("A1", 2, 1)[0]
        ring2 = bimodule.build_bimodule_ring(cardy)
        bp2 = bimodule.bimodule_picard(ring2)
        if bp2.iso_class_name != "Z2" or bp2.invariant_factors != (2,):
            notes.append(f"Ising bimodule Picard is {bp2.iso_class_name}, not Z2")
        return _from_notes(
            notes, None,
            "(A2,2) H=Z3 free ring of rank 6, Pic order 3; Ising Cardy Pic = Z2")

    # -- 9 ------------------------------------------------------------------

    @_criterion("09-kramers-wannier")
    def kramers_wannier(self) -> Verdict:
        notes = []
        cardy = self.of_order("A1", 2, 1)[0]
        ring = bimodule.build_bimodule_ring(cardy)
        kw = bimodule.kramers_wannier_candidates(ring)
        if [c.object_index for c in kw] != [1]:
            notes.append(f"Ising KW candidates {[c.object_index for c in kw]} != [sigma]")
        cardy4 = self.of_order("A1", 4, 1)[0]
        ring4 = bimodule.build_bimodule_ring(cardy4)
        kw4 = bimodule.kramers_wannier_candidates(ring4)
        if kw4:
            notes.append(f"(A1,4) Cardy unexpectedly has KW candidates {kw4}")
        return _from_notes(
            notes, None,
            "Ising sigma detected via sigma x sigma = 1 + eps; (A1,4) Cardy has none")

    # -- 10 -----------------------------------------------------------------

    @_criterion("10-twining-conjecture")
    def conjecture_suite(self) -> Verdict:
        notes = []
        worst = 0.0
        pg = self.pic("A3", 2)
        rows = twining.PhiRows(pg)  # one phi engine per Picard group
        tsm = rows.row(pg.orders.index(2), ()).tsm
        m = tsm.matrix
        if m.shape != (2, 2):
            notes.append(f"(A3,2) twining matrix is {m.shape}, not 2x2")
        worst = max(worst, *tsm.residuals)
        full = self.of_order("A3", 2, 4)[0]
        rep = twining.verify_conjecture(full, rows)
        if not rep.passed:
            notes.extend(f"{c.name} g={c.g} h={c.h}" for c in rep.findings)
        worst = max([worst, *(c.margin for c in rep.checks if c.margin is not None)])
        for name, k in [("A1", 2), ("A1", 4), ("A1", 6), ("A1", 8), ("A2", 3)]:
            rows1 = twining.PhiRows(self.pic(name, k))
            for alg in self.algebras(name, k):
                rep1 = twining.verify_conjecture(alg, rows1)
                if not rep1.passed:
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

    # -- 11 -----------------------------------------------------------------

    @_criterion("11-determinism")
    def determinism(self) -> Verdict:
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
                md = self.md("A1", 4)
                cache_store(Path(tmp), md)
                if path.read_bytes() != before:
                    notes.append("re-store is not byte-identical")
                hit = cache_lookup(Path(tmp), "A", 1, 4, self.config)
                if hit is None or hit.s_matrix.tobytes() != md.s_matrix.tobytes():
                    notes.append("cache lookup does not return S bit for bit")
        return _from_notes(
            notes, None,
            "CLI output byte-identical across runs; cache round-trips exactly")

    # ------------------------------------------------------------------------

    def run_all(self) -> list[CheckResult]:
        results = []
        for criterion, runner in CRITERIA:
            try:
                results.append(runner(self))
            except Exception as exc:  # a crash is still a clean failure line
                results.append(CheckResult(criterion, False, None, f"{type(exc).__name__}: {exc}"))
        return results


def run_acceptance(config: Config = DEFAULT_CONFIG) -> list[CheckResult]:
    return Battery(config).run_all()
