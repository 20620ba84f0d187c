"""The release-gate battery: one callable per acceptance criterion.

Both the pytest suite and the CLI `selftest` subcommand run these; each
criterion returns a CheckResult with its worst observed margin.  Oracles are
deliberately independent of the code paths they check (closed forms, brute
force, hand-frozen matrices).
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bimodule, boundary, picard, schellekens, twining
from .affine import ModularData, modular_data, t_matrix
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
            self._pic[key] = picard.find_simple_currents(self.md(name, level), self.config)
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

    def s_matrix_oracle(self) -> CheckResult:
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
        return CheckResult(
            "01-s-matrix-oracle", worst < 1e-9, worst,
            f"Weyl sum vs closed-form rank-1 S for k<=10, max err {worst:.2e}")

    # -- 2 ------------------------------------------------------------------

    def modular_relations(self) -> CheckResult:
        tol = self.config.tolerance
        worst = 0.0
        for name, k in CATALOG:
            md = self.md(name, k)
            s = md.s_matrix
            n = len(md)
            t = t_matrix(md)
            worst = max(worst, float(np.max(np.abs(s - s.T))))
            worst = max(worst, float(np.max(np.abs(s @ s.conj().T - np.eye(n)))))
            worst = max(worst, float(np.max(np.abs(np.linalg.matrix_power(s @ t, 3) - s @ s))))
            worst = max(worst, float(np.max(np.abs(np.linalg.matrix_power(s, 4) - np.eye(n)))))
        return CheckResult(
            "02-modular-relations", worst < tol, worst,
            f"S symmetric/unitary, (ST)^3 = S^2, S^4 = 1 on {len(CATALOG)} catalog entries")

    # -- 3 ------------------------------------------------------------------

    def fusion_checks(self) -> CheckResult:
        ok = True
        notes = []
        for k in range(1, 9):
            md = self.md("A1", k)
            for a in range(k + 1):
                for b in range(k + 1):
                    for c in range(k + 1):
                        cg = int(
                            abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0
                        )
                        if md.fusion[a, b, c] != cg:
                            ok = False
                            notes.append(f"A1 level {k} CG mismatch at ({a},{b},{c})")
        for name, k in CATALOG:
            md = self.md(name, k)
            n = md.fusion
            lhs = np.einsum("ijm,mkl->ijkl", n, n)
            rhs = np.einsum("jkm,iml->ijkl", n, n)
            if not np.array_equal(lhs, rhs):
                ok = False
                notes.append(f"associativity fails for {name} level {k}")
            vac = md.vacuum
            if not np.array_equal(n[vac], np.eye(len(md), dtype=np.int64)):
                ok = False
                notes.append(f"vacuum row wrong for {name} level {k}")
        return CheckResult(
            "03-fusion", ok, None,
            "; ".join(notes) if notes else
            "A1 truncated Clebsch-Gordan oracle and exact associativity on the catalog")

    # -- 4 ------------------------------------------------------------------

    def picard_groups(self) -> CheckResult:
        expected = {"A1": (2,), "A2": (3,), "A3": (4,), "D4": (2, 2), "G2": ()}
        ok = True
        notes = []
        for name, k in CATALOG:
            if name not in expected:
                continue
            pg = self.pic(name, k)
            if pg.invariant_factors != expected[name]:
                ok = False
                notes.append(f"{name} level {k}: got {pg.invariant_factors}")
        return CheckResult(
            "04-picard-groups", ok, None,
            "; ".join(notes) if notes else
            "A1 -> Z2, A2 -> Z3, A3 -> Z4, D4 -> Z2xZ2, G2 -> 1 at every catalog level")

    # -- 5 ------------------------------------------------------------------

    def quadratic_form(self) -> CheckResult:
        for name, k in CATALOG:
            picard.verify_quadratic(self.pic(name, k))
        return CheckResult(
            "05-quadratic-form", True, None,
            "q(g^n) = n^2 q(g), bi-additivity and b = -Q exact on the catalog")

    # -- 6 ------------------------------------------------------------------

    def partition_functions(self) -> CheckResult:
        ok = True
        notes = []
        worst = 0.0
        for name, k in CATALOG:
            md = self.md(name, k)
            for alg in self.algebras(name, k):
                if len(alg.support) == 1:
                    conjugation = np.eye(len(md), dtype=np.int64)[list(md.conjugation)]
                    if not np.array_equal(alg.partition, conjugation):
                        ok = False
                        notes.append(f"Cardy Z != conjugation for {name} level {k}")
                norm = schellekens.verify_modular_invariance(md, alg.partition, self.config)
                worst = max(worst, norm)
        deven = self.of_order("A1", 4, 2)
        want = tuple(
            tuple({(0, 0): 1, (0, 4): 1, (4, 0): 1, (4, 4): 1, (2, 2): 2}.get((i, j), 0)
                  for j in range(5))
            for i in range(5)
        )
        if len(deven) != 1 or not np.array_equal(deven[0].partition, want):
            ok = False
            notes.append("(A1,4) D-even matrix wrong")
        dodd = self.of_order("A1", 6, 2)
        want6 = tuple(
            tuple(int((i % 2 == 0 and i == j) or (i % 2 == 1 and j == 6 - i)) for j in range(7))
            for i in range(7)
        )
        if len(dodd) != 1 or not np.array_equal(dodd[0].partition, want6):
            ok = False
            notes.append("(A1,6) D-odd matrix wrong")
        z2 = [s for s in schellekens.enumerate_subgroups(self.pic("A1", 5)) if len(s) == 2]
        if len(z2) != 1 or schellekens.enumerate_ksbs(z2[0]):
            ok = False
            notes.append("(A1,5) unexpectedly admits a Z2 KSB")
        return CheckResult(
            "06-partition-functions", ok, worst,
            "; ".join(notes) if notes else
            "Cardy = conjugation, (A1,4) D-even, (A1,6) D-odd, (A1,5) empty; all Z invariant")

    # -- 7 ------------------------------------------------------------------

    def boundary_counts(self) -> CheckResult:
        ok = True
        notes = []
        for name, k, expected in [("A1", 4, 4), ("A1", 6, 5)]:
            alg = self.of_order(name, k, 2)[0]
            count = boundary.count_boundary_conditions(alg)
            if count.total != expected:
                ok = False
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
                    ok = False
                    notes.append(
                        f"completeness fails for {name} level {k} "
                        f"support {alg.support.members}: {count.total} != {ishibashi}"
                    )
        detail = (
            "; ".join(notes)
            if notes
            else f"ADE node counts match; completeness exact on {checked} algebras"
            + (f" ({skipped} skipped: phi needs unsupported folding)" if skipped else "")
        )
        return CheckResult("07-boundary-counts", ok, None, detail)

    # -- 8 ------------------------------------------------------------------

    def bimodule_rings(self) -> CheckResult:
        ok = True
        notes = []
        alg = self.of_order("A2", 2, 3)[0]
        ring = bimodule.build_bimodule_ring(alg)
        if len(ring) != 6:
            ok = False
            notes.append(f"(A2,2) ring rank {len(ring)} != 6")
        n = ring.structure
        if not np.array_equal(np.einsum("ijm,mkl->ijkl", n, n), np.einsum("jkm,iml->ijkl", n, n)):
            ok = False
            notes.append("(A2,2) ring not associative")
        bp = bimodule.bimodule_picard(ring)
        if len(bp) != 3:
            ok = False
            notes.append(f"(A2,2) bimodule Picard order {len(bp)} != 3")
        cardy = self.of_order("A1", 2, 1)[0]
        ring2 = bimodule.build_bimodule_ring(cardy)
        bp2 = bimodule.bimodule_picard(ring2)
        if bp2.iso_class_name != "Z2" or bp2.invariant_factors != (2,):
            ok = False
            notes.append(f"Ising bimodule Picard is {bp2.iso_class_name}, not Z2")
        return CheckResult(
            "08-bimodule-rings", ok, None,
            "; ".join(notes) if notes else
            "(A2,2) H=Z3 free ring of rank 6, Pic order 3; Ising Cardy Pic = Z2")

    # -- 9 ------------------------------------------------------------------

    def kramers_wannier(self) -> CheckResult:
        ok = True
        notes = []
        cardy = self.of_order("A1", 2, 1)[0]
        ring = bimodule.build_bimodule_ring(cardy)
        kw = bimodule.kramers_wannier_candidates(ring)
        if [c.object_index for c in kw] != [1]:
            ok = False
            notes.append(f"Ising KW candidates {[c.object_index for c in kw]} != [sigma]")
        cardy4 = self.of_order("A1", 4, 1)[0]
        ring4 = bimodule.build_bimodule_ring(cardy4)
        kw4 = bimodule.kramers_wannier_candidates(ring4)
        if kw4:
            ok = False
            notes.append(f"(A1,4) Cardy unexpectedly has KW candidates {kw4}")
        return CheckResult(
            "09-kramers-wannier", ok, None,
            "; ".join(notes) if notes else
            "Ising sigma detected via sigma x sigma = 1 + eps; (A1,4) Cardy has none")

    # -- 10 -----------------------------------------------------------------

    def conjecture_suite(self) -> CheckResult:
        ok = True
        notes = []
        worst = 0.0
        pg = self.pic("A3", 2)
        g = pg.orders.index(2)
        tsm = twining.twining_S(pg, g, self.config)
        m = tsm.matrix
        if m.shape != (2, 2):
            ok = False
            notes.append(f"(A3,2) twining matrix is {m.shape}, not 2x2")
        worst = max(worst, tsm.symmetry_residual, tsm.unitarity_residual)
        full = self.of_order("A3", 2, 4)[0]
        rep = twining.verify_conjecture(full, self.config)
        if not rep.passed:
            ok = False
            notes.extend(f"{c.name} g={c.g} h={c.h}" for c in rep.findings)
        worst = max([worst, *(c.margin for c in rep.checks if c.margin is not None)])
        for name, k in [("A1", 2), ("A1", 4), ("A1", 6), ("A1", 8), ("A2", 3)]:
            for alg in self.algebras(name, k):
                rep1 = twining.verify_conjecture(alg, self.config)
                if not rep1.passed:
                    ok = False
                    notes.append(f"1x1 case {name} level {k} fails")
        # liveness: a perturbed twining matrix must trip the reference test
        perturbed = np.array(m, copy=True)
        perturbed[0, 0] += 1e-3
        h_swap = next(
            a for a in range(len(pg))
            if pg.action[a, tsm.fixed_points[0]] == tsm.fixed_points[1]
        )
        try:
            twining.extract_phi(
                pg, twining.TwiningSMatrix(tsm.fixed_points, perturbed, tsm.fold),
                g, h_swap, self.config)
            ok = False
            notes.append("perturbed S^w was not detected (test is dead)")
        except LambdaDependence:
            pass
        return CheckResult(
            "10-twining-conjecture", ok, worst,
            "; ".join(notes) if notes else
            "(A3,2) 2x2 suite, all 1x1 cases, and the 1e-3 perturbation trips the check")

    # -- 11 -----------------------------------------------------------------

    def determinism(self) -> CheckResult:
        from . import cli

        ok = True
        notes = []
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["modular-data", "A1", "4", "--cache-dir", tmp]
            out1, out2 = io.StringIO(), io.StringIO()
            with redirect_stdout(out1):
                code1 = cli.run(argv)
            with redirect_stdout(out2):
                code2 = cli.run(argv)
            if code1 != 0 or code2 != 0:
                ok = False
                notes.append(f"exit codes {code1}, {code2}")
            if out1.getvalue() != out2.getvalue():
                ok = False
                notes.append("repeated invocations differ")
            path = Path(tmp) / cache_key("A", 1, 4)
            if not path.is_file():
                ok = False
                notes.append("cache file missing")
            else:
                before = path.read_bytes()
                md = self.md("A1", 4)
                cache_store(Path(tmp), md)
                if path.read_bytes() != before:
                    ok = False
                    notes.append("re-store is not byte-identical")
                hit = cache_lookup(Path(tmp), "A", 1, 4, self.config)
                if hit is None or hit.s_matrix.tobytes() != md.s_matrix.tobytes():
                    ok = False
                    notes.append("cache lookup does not return S bit for bit")
        return CheckResult(
            "11-determinism", ok, None,
            "; ".join(notes) if notes else
            "CLI output byte-identical across runs; cache round-trips exactly")

    # ------------------------------------------------------------------------

    def run_all(self) -> list[CheckResult]:
        runners = [
            self.s_matrix_oracle,
            self.modular_relations,
            self.fusion_checks,
            self.picard_groups,
            self.quadratic_form,
            self.partition_functions,
            self.boundary_counts,
            self.bimodule_rings,
            self.kramers_wannier,
            self.conjecture_suite,
            self.determinism,
        ]
        results = []
        for fn in runners:
            name = fn.__name__.replace("_", "-")
            try:
                results.append(fn())
            except Exception as exc:  # a crash is still a clean failure line
                results.append(CheckResult(name, False, None, f"{type(exc).__name__}: {exc}"))
        return results


def run_acceptance(config: Config = DEFAULT_CONFIG) -> list[CheckResult]:
    return Battery(config).run_all()
