"""Command-line front end.

One JSON report per invocation on standard output, byte-identical to
``json.dumps(report, indent=2)`` and streamed by ``jsonout``; human-readable
tables only behind --pretty.  The cache holds the key and S of the modular
data, and a hit derives the rest; a modular-data query builds its document
once, for the report, on a miss and on a hit alike.  Each command imports only
the modules it uses, so a modular-data query never loads the simple-current
layers.  Exit codes:
0 success, 2 user error, 3 mathematical-check failure under --strict
(selftest is always strict).  A reader that closes standard output early
ends the run quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from math import isqrt
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import jsonout
from .affine import (ModularData, modular_data, modular_data_to_doc, parse_lie_type,
                     sparse_entries, t_matrix)
from .cache import cache_lookup, cache_store, default_cache_dir
from .config import Config
from .errors import (
    FixedPointsPresent,
    InvarianceViolation,
    PhiUnavailable,
    QuadraticFormViolation,
    WzwError,
)
from .residues import format_rational

if TYPE_CHECKING:
    from .schellekens import ClassifiedAlgebra


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=1e-8)
    common.add_argument("--integrality-tolerance", type=float, default=1e-6)
    common.add_argument("--weyl-cap", type=int, default=10**6)
    common.add_argument("--rank-cap", type=int, default=8)
    common.add_argument("--cache-dir", type=str, default=None)
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when a mathematical check fails")
    common.add_argument("--pretty", action="store_true",
                        help="human-readable tables instead of JSON")
    common.add_argument("--timing", action="store_true",
                        help="include wall time in the report")

    parser = argparse.ArgumentParser(
        prog="wzwkit",
        description="Modular data and simple-current machinery for WZW categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_algebra(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.add_argument("algebra", help="series plus rank, e.g. A1 or D4")
        p.add_argument("level", type=int, help="positive integer level")
        return p

    with_algebra("modular-data", help="weights, S, T, fusion, quantum dimensions")
    with_algebra("picard", help="simple-current group, twists and charge table")
    inv = with_algebra("invariants", help="Schellekens algebras and partition matrices")
    inv.add_argument("--latex", action="store_true",
                     help="also emit each Z as a |chi|^2 combination string")
    with_algebra("boundaries", help="orbits, stabilizers and boundary counts")
    with_algebra("bimodules", help="bimodule rings, their Picard groups, KW candidates")
    with_algebra("twining", help="fixed points, folded algebras, S^w and phi tables")
    with_algebra("verify-conjecture", help="property suite for the twining relation")
    sub.add_parser("selftest", parents=[common],
                   help="run the acceptance battery (always strict)")
    return parser


def _config(args: argparse.Namespace) -> Config:
    return Config(
        tolerance=args.tolerance,
        integrality_tolerance=args.integrality_tolerance,
        weyl_cap=args.weyl_cap,
        rank_cap=args.rank_cap,
    )


def _get_modular_data(args: argparse.Namespace, config: Config) -> ModularData:
    t = parse_lie_type(args.algebra, config)
    if args.level < 1:
        raise ValueError("level must be a positive integer")
    if args.no_cache:
        return modular_data(t, args.level, config)
    cache_dir = Path(args.cache_dir).expanduser() if args.cache_dir else default_cache_dir()
    hit = cache_lookup(cache_dir, t.series, t.rank, args.level, config)
    if hit is not None:
        return hit
    md = modular_data(t, args.level, config)
    try:
        cache_store(cache_dir, md)
    except OSError as exc:
        print(f"wzwkit: cannot write cache ({exc})", file=sys.stderr)
    return md


def _check(name: str, passed: bool, margin: float | None) -> dict:
    return {"name": name, "pass": bool(passed), "margin": margin}


def _latex_partition(md: ModularData, arr: np.ndarray) -> str:
    """Write Z as a sum of c|sum chi|^2 blocks where possible, cross terms otherwise."""
    n = len(md)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if arr[i, j]:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    comps: dict[int, list[int]] = {}
    for i in range(n):
        if arr[i].any() or arr[:, i].any():
            comps.setdefault(find(i), []).append(i)
    terms = []
    for comp in sorted(comps.values()):
        sub = arr[np.ix_(comp, comp)]
        c = int(np.gcd.reduce(sub[sub > 0])) if (sub > 0).any() else 1
        m = sub // c
        roots = [isqrt(int(m[a, a])) for a in range(len(comp))]
        if all(r * r == m[a, a] for a, r in enumerate(roots)) and any(roots):
            outer = np.outer(roots, roots)
            if np.array_equal(outer, m):
                inner = " + ".join(
                    (f"{r}" if r > 1 else "") + f"\\chi_{{{comp[a]}}}"
                    for a, r in enumerate(roots) if r
                )
                prefix = f"{c}" if c > 1 else ""
                terms.append(f"{prefix}|{inner}|^2")
                continue
        for a, i in enumerate(comp):
            for b, j in enumerate(comp):
                if sub[a, b]:
                    coeff = f"{sub[a, b]}" if sub[a, b] > 1 else ""
                    terms.append(f"{coeff}\\chi_{{{i}}}\\bar\\chi_{{{j}}}")
    return " + ".join(terms)


# --- payload builders -----------------------------------------------------------


def _cmd_modular_data(md: ModularData, args, config: Config):
    s = md.s_matrix
    n = len(md)
    t = t_matrix(md)
    sym = float(np.max(np.abs(s - s.T)))
    uni = float(np.max(np.abs(s @ s.conj().T - np.eye(n))))
    st = float(np.max(np.abs(np.linalg.matrix_power(s @ t, 3) - s @ s)))
    checks = [
        _check("s-symmetric", sym < config.tolerance, sym),
        _check("s-unitary", uni < config.tolerance, uni),
        _check("st-cubed-is-s-squared", st < config.tolerance, st),
    ]
    return modular_data_to_doc(md), checks


def _cmd_picard(md: ModularData, args, config: Config):
    from . import picard

    pg = picard.find_simple_currents(md, config)
    checks = []
    try:
        picard.verify_quadratic(pg)
        checks.append(_check("quadratic-form", True, None))
    except QuadraticFormViolation as exc:
        checks.append(_check("quadratic-form", False, None))
        print(f"wzwkit: {exc}", file=sys.stderr)
    payload = {
        "order": len(pg),
        "invariantFactors": list(pg.invariant_factors),
        "elements": [
            {
                "index": a,
                "objectIndex": el.object_index,
                "weight": list(md.weights[el.object_index]),
                "order": el.order,
                "twist": format_rational(pg.twists[a]),
            }
            for a, el in enumerate(pg.elements)
        ],
        "chargeTable": [
            [format_rational(pg.charge(i, a)) for a in range(len(pg))]
            for i in range(len(md))
        ],
    }
    return payload, checks


def _algebra_blob(md: ModularData, ca: ClassifiedAlgebra, config: Config,
                  latex: bool) -> tuple[dict, bool, float | None]:
    from . import schellekens

    sub = ca.algebra.support
    blob = {
        "support": {
            "order": len(sub),
            "objectIndices": [sub.picard.elements[g].object_index for g in sub.members],
            "generators": [
                {"objectIndex": sub.picard.elements[sub.members[g]].object_index, "order": o}
                for g, o in sub.decomposition
            ],
        },
        "ksb": [
            [a, b, format_rational(ca.algebra.ksb.value(a, b))]
            for a in range(len(sub))
            for b in range(len(sub))
        ],
        "Z": sparse_entries(ca.partition),
    }
    if latex:
        blob["latex"] = _latex_partition(md, ca.partition)
    try:
        norm = schellekens.verify_modular_invariance(md, ca.partition, config)
        blob["invariance"] = {"pass": True, "commutatorNorm": norm}
        return blob, True, norm
    except InvarianceViolation as exc:
        blob["invariance"] = {"pass": False, "reason": str(exc)}
        return blob, False, None


def _cmd_invariants(md: ModularData, args, config: Config):
    from . import picard, schellekens

    pg = picard.find_simple_currents(md, config)
    algebras = schellekens.classify_algebras(md, pg, config)
    blobs = []
    all_ok = True
    worst = 0.0
    for ca in algebras:
        blob, ok, margin = _algebra_blob(md, ca, config, getattr(args, "latex", False))
        blobs.append(blob)
        all_ok = all_ok and ok
        if margin is not None:
            worst = max(worst, margin)
    payload = {"algebraCount": len(blobs), "algebras": blobs}
    checks = [_check("all-invariant", all_ok, worst)]
    return payload, checks


def _cmd_boundaries(md: ModularData, args, config: Config):
    from . import boundary, picard, schellekens

    pg = picard.find_simple_currents(md, config)
    algebras = schellekens.classify_algebras(md, pg, config)
    blobs = []
    checks = []
    for idx, ca in enumerate(algebras):
        dec = boundary.orbit_decomposition(md, ca.algebra.support)
        blob = {
            "support": [ca.algebra.picard.elements[g].object_index for g in ca.algebra.support.members],
            "orbits": [
                {
                    "representative": o.representative,
                    "members": list(o.members),
                    "stabilizerObjectIndices": [
                        pg.elements[g].object_index for g in o.stabilizer
                    ],
                }
                for o in dec.orbits
            ],
        }
        try:
            count = boundary.count_boundary_conditions(md, ca.algebra, dec=dec)
            ishibashi = int(ca.partition[range(len(md)), md.conjugation].sum())
            blob["epsilon"] = [
                {"representative": orbit.representative,
                 "values": [[format_rational(v) for v in row] for row in eps.values]}
                for orbit, eps in zip(dec.orbits, count.forms)
            ]
            blob["boundaryCount"] = count.total
            blob["perOrbit"] = [[rep, c] for rep, c in count.per_orbit]
            blob["labels"] = [
                {"orbit": lab.orbit_representative, "irrep": lab.irrep_index}
                for lab in count.labels
            ]
            checks.append(_check(
                f"completeness-algebra-{idx}", count.total == ishibashi, None))
        except PhiUnavailable as exc:
            blob["boundaryCount"] = None
            blob["note"] = f"phi unavailable: {exc}"
        blobs.append(blob)
    return {"algebras": blobs}, checks


def _cmd_bimodules(md: ModularData, args, config: Config):
    from . import bimodule, picard, schellekens

    pg = picard.find_simple_currents(md, config)
    algebras = schellekens.classify_algebras(md, pg, config)
    blobs = []
    for ca in algebras:
        blob = {
            "support": [pg.elements[g].object_index for g in ca.algebra.support.members],
        }
        try:
            ring = bimodule.build_bimodule_ring(md, ca.algebra)
            blob["pointedOnly"] = False
        except FixedPointsPresent as exc:
            ring = bimodule.build_pointed_bimodule_ring(md, ca.algebra)
            blob["pointedOnly"] = True
            blob["fixedWeights"] = [list(w) for w in exc.fixed_weights]
        blob["rank"] = len(ring)
        blob["basis"] = [
            {"objectIndex": cls.object_index,
             "character": [format_rational(x) for x in cls.character]}
            for cls in ring.basis
        ]
        blob["structure"] = sparse_entries(ring.structure)
        bp = bimodule.bimodule_picard(ring)
        blob["picard"] = {
            "order": len(bp),
            "isoClass": bp.iso_class_name,
            "invariantFactors": list(bp.invariant_factors),
        }
        kw = bimodule.kramers_wannier_candidates(ring)
        blob["kramersWannier"] = [
            {"objectIndex": cls.object_index,
             "character": [format_rational(x) for x in cls.character]}
            for cls in kw
        ]
        blobs.append(blob)
    return {"algebras": blobs}, []


def _cmd_twining(md: ModularData, args, config: Config):
    from . import picard, twining

    pg = picard.find_simple_currents(md, config)
    everything = range(len(pg))
    blobs = []
    checks = []
    for a in everything:
        fixed = twining.fixed_points(md, pg, a)
        blob = {
            "element": a,
            "objectIndex": pg.elements[a].object_index,
            "weight": list(md.weights[pg.elements[a].object_index]),
            "fixedPoints": list(fixed),
        }
        blobs.append(blob)
        if not fixed:
            continue
        try:
            row = twining.phi_row(md, pg, a, everything, config)
        except WzwError as exc:
            blob["note"] = f"{type(exc).__name__}: {exc}"
            continue
        tsm = row.tsm
        fold = tsm.fold
        blob["folded"] = {"series": fold.folded_series, "rank": fold.folded_rank,
                          "level": fold.folded_level}
        blob["sOmega"] = np.stack((tsm.matrix.real, tsm.matrix.imag), -1)
        phi = {}
        findings = []
        for h, vals in row.phi.items():
            if isinstance(vals, WzwError):
                findings.append({"h": h, "violation": f"{type(vals).__name__}: {vals}"})
                continue
            for u, r in sorted(vals.by_weight.items()):
                phi[f"{u},{a},{h}"] = format_rational(r)
        blob["phi"] = phi
        if findings:
            blob["findings"] = findings
        uni = tsm.unitarity_residual
        checks.append(_check(f"s-omega-unitary-g{a}", uni < config.tolerance, uni))
        checks.append(_check(f"phi-ratio-g{a}", not findings, None))
    return {"elements": blobs}, checks


def _cmd_verify_conjecture(md: ModularData, args, config: Config):
    from . import picard, schellekens, twining

    pg = picard.find_simple_currents(md, config)
    algebras = schellekens.classify_algebras(md, pg, config)
    blobs = []
    checks = []
    for idx, ca in enumerate(algebras):
        support = [pg.elements[g].object_index for g in ca.algebra.support.members]
        tag = str(idx)
        try:
            rep = twining.verify_conjecture(md, ca.algebra, config)
        except WzwError as exc:
            blobs.append({
                "support": support,
                "skipped": f"{type(exc).__name__}: {exc}",
            })
            continue
        blobs.append({
            "support": support,
            "passed": rep.passed,
            "counts": {"total": len(rep.checks), "failed": len(rep.findings)},
            "findings": [
                {"name": c.name, "g": c.g, "h": c.h, "detail": c.detail}
                for c in rep.findings
            ],
        })
        worst = max((c.margin for c in rep.checks if c.margin is not None), default=0.0)
        checks.append(_check(f"conjecture-algebra-{tag}", rep.passed, worst))
    return {"algebras": blobs}, checks


def _cmd_selftest(args, config: Config):
    from .acceptance import run_acceptance

    results = run_acceptance(config)
    payload = {
        "results": [
            {"criterion": r.criterion, "pass": r.passed, "margin": r.margin, "detail": r.detail}
            for r in results
        ]
    }
    checks = [_check(r.criterion, r.passed, r.margin) for r in results]
    return payload, checks


# --- rendering -----------------------------------------------------------------


def _algebras(*parts):
    """Renderer of one line per algebra blob, joining what each part makes of it."""
    return lambda payload: [
        ", ".join([f"  algebra {idx}", *(text for part in parts for text in part(a))])
        for idx, a in enumerate(payload["algebras"])
    ]


def _field(key: str, form: str):
    """Part of an algebra line: the blob's `key` put into `form`, nothing if absent or null."""
    return lambda a: [] if a.get(key) is None else [form.format(a[key])]


_SUPPORT = _field("support", "support objects {}")


def _pretty_twining(payload: dict) -> list[str]:
    lines = []
    for e in payload["elements"]:
        line = f"  element {e['element']}: weight {e['weight']}, fixed points {e['fixedPoints']}"
        if "folded" in e:
            line += ", folds to {series}{rank} level {level}".format(**e["folded"])
        lines.append(line + (f" ({e['note']})" if "note" in e else ""))
    return lines


# the text after the header and the checks, keyed by command
_PRETTY = {
    "modular-data": lambda p: [f"  {len(p['weights'])} weights, c = {p['centralCharge']}"],
    "picard": lambda p: [f"  order {p['order']}, invariant factors {p['invariantFactors']}"] + [
        f"  element {e['index']}: weight {e['weight']}, order {e['order']}, twist {e['twist']}"
        for e in p["elements"]
    ],
    "invariants": _algebras(_field("support", "support objects {[objectIndices]}"),
                            _field("latex", "Z = {}")),
    "boundaries": _algebras(_SUPPORT, _field("boundaryCount", "{} boundary conditions"),
                            _field("note", "{}")),
    "bimodules": _algebras(_SUPPORT, _field("picard", "Pic = {[isoClass]}"),
                           lambda a: [f"{len(a['kramersWannier'])} duality candidate(s)"]),
    "twining": _pretty_twining,
    "verify-conjecture": _algebras(_SUPPORT, _field("skipped", "skipped: {}")),
    "selftest": lambda p: [_status_line(r, f"{r['criterion']}: {r['detail']}")
                           for r in p["results"]],
}


def _status_line(check: dict, text: str) -> str:
    margin = "" if check["margin"] is None else f"  margin={check['margin']:.3e}"
    return f"  [{'pass' if check['pass'] else 'FAIL'}] {text}{margin}"


def _print_pretty(report: dict) -> None:
    lines = [f"wzwkit {report['command']}"]
    if report["input"]:
        i = report["input"]
        lines[0] += f"  {i['series']}{i['rank']} level {i['level']}"
    if report["command"] != "selftest":  # selftest's results are its checks, with their details
        lines += [_status_line(c, c["name"]) for c in report["checks"]]
    print("\n".join(lines + _PRETTY[report["command"]](report["payload"])))


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        config = _config(args)
    except ValueError as exc:
        print(f"wzwkit: {exc}", file=sys.stderr)
        return 2

    handlers = {
        "modular-data": _cmd_modular_data,
        "picard": _cmd_picard,
        "invariants": _cmd_invariants,
        "boundaries": _cmd_boundaries,
        "bimodules": _cmd_bimodules,
        "twining": _cmd_twining,
        "verify-conjecture": _cmd_verify_conjecture,
    }

    input_blob = None
    try:
        if args.command == "selftest":
            payload, checks = _cmd_selftest(args, config)
        else:
            md = _get_modular_data(args, config)
            t = md.level_data.lie_type
            input_blob = {"series": t.series, "rank": t.rank, "level": md.level_data.level}
            payload, checks = handlers[args.command](md, args, config)
    except WzwError as exc:
        print(f"wzwkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"wzwkit: {exc}", file=sys.stderr)
        return 2

    report = {
        "schemaVersion": 1,
        "command": args.command,
        "input": input_blob,
        "payload": payload,
        "checks": checks,
        "timingSeconds": round(time.monotonic() - started, 6) if args.timing else None,
    }
    try:
        if args.pretty:
            _print_pretty(report)
        else:
            jsonout.write(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: stop quietly, leaving the
        # interpreter's final flush of standard output nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    failed = any(not c["pass"] for c in checks)
    if failed and (args.strict or args.command == "selftest"):
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
