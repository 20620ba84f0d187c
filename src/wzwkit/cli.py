"""Command-line front end.

One JSON report per invocation on standard output, byte-identical to
``json.dumps(report, indent=2)`` and streamed by ``jsonout``; human-readable
tables only behind --pretty.  A modular-data cache miss builds the document
once and writes the same one to the cache and to the report; a hit reports
the document the cache lookup rebuilt to check the file.  Exit codes:
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

import numpy as np

from . import bimodule, boundary, jsonout, picard, schellekens, twining
from .affine import ModularData, modular_data, modular_data_to_doc, parse_lie_type, t_matrix
from .cache import cache_lookup, cache_store, default_cache_dir
from .config import Config
from .errors import (
    FixedPointsPresent,
    InvarianceViolation,
    LambdaDependence,
    PhiUnavailable,
    QuadraticFormViolation,
    SnapFailure,
    WzwError,
)
from .residues import format_rational


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


def _get_modular_data(args: argparse.Namespace, config: Config) -> tuple[ModularData, dict | None]:
    """The modular data and its document, each built once: on a cache hit the
    document the lookup rebuilt to check the file, on a miss the one written
    to the cache, and None under --no-cache."""
    t = parse_lie_type(args.algebra, config)
    if args.level < 1:
        raise ValueError("level must be a positive integer")
    if args.no_cache:
        return modular_data(t, args.level, config), None
    cache_dir = Path(args.cache_dir).expanduser() if args.cache_dir else default_cache_dir()
    hit = cache_lookup(cache_dir, t.series, t.rank, args.level, config)
    if hit is not None:
        return hit
    md = modular_data(t, args.level, config)
    doc = modular_data_to_doc(md)
    try:
        cache_store(cache_dir, doc)
    except OSError as exc:
        print(f"wzwkit: cannot write cache ({exc})", file=sys.stderr)
    return md, doc


def _check(name: str, passed: bool, margin: float | None) -> dict:
    return {"name": name, "pass": bool(passed), "margin": margin}


def _sparse_int_matrix(entries) -> list[list[int]]:
    out = []
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if v:
                out.append([i, j, int(v)])
    return out


def _latex_partition(md: ModularData, z: schellekens.PartitionMatrix) -> str:
    """Write Z as a sum of c|sum chi|^2 blocks where possible, cross terms otherwise."""
    n = len(md)
    arr = z.as_array()
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


def _cmd_modular_data(md: ModularData, doc: dict | None, config: Config):
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
    return (modular_data_to_doc(md) if doc is None else doc), checks


def _cmd_picard(md: ModularData, args, config: Config):
    pg = picard.find_simple_currents(md, config)
    charges = picard.charge_table(md, pg)
    checks = []
    try:
        picard.verify_quadratic(md, pg)
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
            [format_rational(charges(i, a)) for a in range(len(pg))]
            for i in range(len(md))
        ],
    }
    return payload, checks


def _algebra_blob(md: ModularData, ca: schellekens.ClassifiedAlgebra, config: Config,
                  latex: bool) -> tuple[dict, bool, float | None]:
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
        "Z": _sparse_int_matrix(ca.partition.entries),
    }
    if latex:
        blob["latex"] = _latex_partition(md, ca.partition)
    try:
        rep = schellekens.verify_modular_invariance(md, ca.partition, config)
        blob["invariance"] = {"pass": True, "commutatorNorm": rep.commutator_norm}
        return blob, True, rep.commutator_norm
    except InvarianceViolation as exc:
        blob["invariance"] = {"pass": False, "reason": str(exc)}
        return blob, False, None


def _cmd_invariants(md: ModularData, args, config: Config):
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
            count = boundary.count_boundary_conditions(md, ca.algebra)
            eps_data = []
            for orbit in dec.orbits:
                eps = boundary.epsilon_form(md, orbit, ca.algebra.ksb)
                eps_data.append({
                    "representative": orbit.representative,
                    "values": [[format_rational(v) for v in row] for row in eps.values],
                })
            ishibashi = sum(ca.partition.entries[i][md.conjugation[i]] for i in range(len(md)))
            blob["epsilon"] = eps_data
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
        idx = np.argwhere(ring.structure)  # C order, so the quadruples come out sorted
        blob["structure"] = np.column_stack((idx, ring.structure[tuple(idx.T)])).tolist()
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
    pg = picard.find_simple_currents(md, config)
    blobs = []
    checks = []
    for a in range(len(pg)):
        fixed = twining.fixed_points(md, pg, a)
        blob = {
            "element": a,
            "objectIndex": pg.elements[a].object_index,
            "weight": list(md.weights[pg.elements[a].object_index]),
            "fixedPoints": list(fixed),
        }
        if fixed:
            try:
                tsm = twining.twining_S(md, pg, a, config)
            except WzwError as exc:
                blob["note"] = f"{type(exc).__name__}: {exc}"
                blobs.append(blob)
                continue
            blob["folded"] = {
                "series": tsm.fold.folded_series,
                "rank": tsm.fold.folded_rank,
                "level": tsm.fold.folded_level,
            }
            blob["sOmega"] = [
                [[float(z.real), float(z.imag)] for z in row] for row in tsm.matrix
            ]
            phi = {}
            findings = []
            for h in range(len(pg)):
                try:
                    vals = twining.extract_phi(md, pg, tsm, a, h, config)
                except (LambdaDependence, SnapFailure) as exc:
                    findings.append({"h": h, "violation": f"{type(exc).__name__}: {exc}"})
                    continue
                for u, r in sorted(vals.by_weight.items()):
                    phi[f"{u},{a},{h}"] = format_rational(r)
            blob["phi"] = phi
            if findings:
                blob["findings"] = findings
            m = tsm.matrix
            uni = float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))
            checks.append(_check(f"s-omega-unitary-g{a}", uni < config.tolerance, uni))
            checks.append(_check(f"phi-ratio-g{a}", not findings, None))
        blobs.append(blob)
    return {"elements": blobs}, checks


def _cmd_verify_conjecture(md: ModularData, args, config: Config):
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


def _print_pretty(report: dict) -> None:
    print(f"wzwkit {report['command']}", end="")
    if report.get("input"):
        i = report["input"]
        print(f"  {i['series']}{i['rank']} level {i['level']}", end="")
    print()
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        margin = "" if check["margin"] is None else f"  margin={check['margin']:.3e}"
        print(f"  [{status}] {check['name']}{margin}")
    payload = report["payload"]
    if "results" in payload:
        for r in payload["results"]:
            status = "pass" if r["pass"] else "FAIL"
            print(f"  [{status}] {r['criterion']}: {r['detail']}")
    elif "order" in payload:
        print(f"  order {payload['order']}, invariant factors {payload['invariantFactors']}")
        for e in payload["elements"]:
            print(f"  element {e['index']}: weight {e['weight']}, order {e['order']}, "
                  f"twist {e['twist']}")
    elif "elements" in payload:
        for e in payload["elements"]:
            line = f"  element {e['element']}: weight {e['weight']}, fixed points {e['fixedPoints']}"
            if "folded" in e:
                f = e["folded"]
                line += f", folds to {f['series']}{f['rank']} level {f['level']}"
            if "note" in e:
                line += f" ({e['note']})"
            print(line)
    elif "algebras" in payload:
        for idx, a in enumerate(payload["algebras"]):
            parts = [f"  algebra {idx}"]
            support = a.get("support")
            if isinstance(support, dict):
                parts.append(f"support objects {support['objectIndices']}")
            elif support is not None:
                parts.append(f"support objects {support}")
            if "latex" in a:
                parts.append(f"Z = {a['latex']}")
            if a.get("boundaryCount") is not None:
                parts.append(f"{a['boundaryCount']} boundary conditions")
            if "picard" in a:
                parts.append(f"Pic = {a['picard']['isoClass']}")
            if "kramersWannier" in a:
                parts.append(f"{len(a['kramersWannier'])} duality candidate(s)")
            if "note" in a:
                parts.append(a["note"])
            if "skipped" in a:
                parts.append(f"skipped: {a['skipped']}")
            print(", ".join(parts))
    elif "weights" in payload:
        print(f"  {len(payload['weights'])} weights, c = {payload['centralCharge']}")


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
            md, doc = _get_modular_data(args, config)
            t = md.level_data.lie_type
            input_blob = {"series": t.series, "rank": t.rank, "level": md.level_data.level}
            if args.command == "modular-data":
                payload, checks = _cmd_modular_data(md, doc, config)
            else:
                del doc  # only modular-data reports the document
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
