"""The reports of admitted requests: the payload builders and the --pretty
renderers of the CLI.

``cli`` imports this module only once ``cli._validate`` has admitted the
request, so --help, a usage error or a refused input never compiles it.
``run_query`` reads or computes the modular data and builds the report's
input, payload and checks; ``print_pretty`` renders a finished report.
"""

from __future__ import annotations

import sys
from math import isqrt
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    FixedPointsPresent,
    InvarianceViolation,
    PhiUnavailable,
    QuadraticFormViolation,
    WzwError,
)

if TYPE_CHECKING:
    import argparse

    import numpy as np

    from .affine import ModularData
    from .config import Config
    from .lietype import SimpleLieType
    from .schellekens import SchellekensAlgebra


def _get_modular_data(args: argparse.Namespace, config: Config, t: SimpleLieType) -> ModularData:
    from .affine import modular_data
    from .cache import cache_lookup, cache_store, default_cache_dir

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


def _latex_partition(arr: np.ndarray) -> str:
    """Write Z as a sum of c|sum chi|^2 blocks where possible, cross terms otherwise."""
    import numpy as np

    n = len(arr)
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


def _cmd_modular_data(md: ModularData, args):
    from .affine import modular_data_to_doc

    checks = [_check(name, r < md.config.tolerance, r) for name, r in md.residuals]
    return modular_data_to_doc(md), checks


def _cmd_picard(md: ModularData, args):
    from . import picard
    from .residues import format_residue

    pg = md.picard
    den = pg.charge_den
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
                "objectIndex": obj,
                "weight": list(md.weights[obj]),
                "order": order,
                "twist": format_residue(pg.twists[a], den),
            }
            for a, (obj, order) in enumerate(zip(pg.objects, pg.orders))
        ],
        "chargeTable": [[format_residue(q, den) for q in row]
                        for row in pg.charges.tolist()],
    }
    return payload, checks


def _algebra_blob(algebra: SchellekensAlgebra, latex: bool) -> tuple[dict, bool, float | None]:
    import numpy as np

    from . import schellekens
    from .residues import format_residue

    sub = algebra.support
    pg = sub.picard
    z = algebra.partition
    ij = np.argwhere(z)
    blob = {
        "support": {
            "order": len(sub),
            "objectIndices": [pg.objects[g] for g in sub.members],
            "generators": [
                {"objectIndex": pg.objects[sub.members[g]], "order": o}
                for g, o in sub.decomposition
            ],
        },
        "ksb": [
            [a, b, format_residue(v, pg.charge_den)]
            for a, row in enumerate(algebra.xi)
            for b, v in enumerate(row)
        ],
        "Z": np.column_stack((ij, z[tuple(ij.T)])),  # its nonzero (i, j, Z_ij), sorted
    }
    if latex:
        blob["latex"] = _latex_partition(algebra.partition)
    try:
        norm = schellekens.verify_modular_invariance(pg.md, algebra.partition)
        blob["invariance"] = {"pass": True, "commutatorNorm": norm}
        return blob, True, norm
    except InvarianceViolation as exc:
        blob["invariance"] = {"pass": False, "reason": str(exc)}
        return blob, False, None


def _cmd_invariants(md: ModularData, args):
    blobs = []
    all_ok = True
    worst = 0.0
    for algebra in md.picard.algebras:
        blob, ok, margin = _algebra_blob(algebra, getattr(args, "latex", False))
        blobs.append(blob)
        all_ok = all_ok and ok
        if margin is not None:
            worst = max(worst, margin)
    payload = {"algebraCount": len(blobs), "algebras": blobs}
    checks = [_check("all-invariant", all_ok, worst)]
    return payload, checks


def _cmd_boundaries(md: ModularData, args):
    from . import boundary
    from .residues import format_residue

    pg = md.picard
    blobs = []
    checks = []
    for idx, algebra in enumerate(pg.algebras):
        orbits = algebra.support.orbits
        blob = {
            "support": [pg.objects[g] for g in algebra.support.members],
            "orbits": [
                {
                    "representative": o.members[0],
                    "members": list(o.members),
                    "stabilizerObjectIndices": [pg.objects[g] for g in o.stabilizer],
                }
                for o in orbits
            ],
        }
        try:
            count = boundary.count_boundary_conditions(algebra)
            ishibashi = int(algebra.partition[range(len(md)), md.conjugation].sum())
            blob["epsilon"] = [
                {"representative": o.members[0],
                 "values": [[format_residue(v, pg.charge_den) for v in row] for row in eps]}
                for o, eps in zip(orbits, count.forms)
            ]
            blob["boundaryCount"] = count.total
            blob["perOrbit"] = [[o.members[0], c] for o, c in zip(orbits, count.per_orbit)]
            blob["labels"] = [
                {"orbit": o.members[0], "irrep": r} for o, c in zip(orbits, count.per_orbit)
                for r in range(c)
            ]
            checks.append(_check(
                f"completeness-algebra-{idx}", count.total == ishibashi, None))
        except PhiUnavailable as exc:
            blob["boundaryCount"] = None
            blob["note"] = f"phi unavailable: {exc}"
        blobs.append(blob)
    return {"algebras": blobs}, checks


def _cmd_bimodules(md: ModularData, args):
    from . import bimodule
    from .residues import format_residue

    pg = md.picard

    def classes(ring_classes) -> list[dict]:
        return [{"objectIndex": cls.object_index,
                 "character": [format_residue(x, pg.charge_den) for x in cls.character]}
                for cls in ring_classes]

    blobs = []
    for algebra in pg.algebras:
        blob = {
            "support": [pg.objects[g] for g in algebra.support.members],
        }
        try:
            ring = bimodule.build_bimodule_ring(algebra)
            blob["pointedOnly"] = False
        except FixedPointsPresent as exc:
            ring = bimodule.build_pointed_bimodule_ring(algebra)
            blob["pointedOnly"] = True
            blob["fixedWeights"] = [list(w) for w in exc.fixed_weights]
        blob["rank"] = len(ring)
        blob["basis"] = classes(ring.basis)
        blob["structure"] = ring.structure
        bp = bimodule.bimodule_picard(ring)
        blob["picard"] = {
            "order": len(bp),
            "isoClass": bp.iso_class_name,
            "invariantFactors": list(bp.invariant_factors),
        }
        blob["kramersWannier"] = classes(bimodule.kramers_wannier_candidates(ring))
        blobs.append(blob)
    return {"algebras": blobs}, []


def _cmd_twining(md: ModularData, args):
    import numpy as np

    from .residues import format_residue

    pg = md.picard
    everything = range(len(pg))
    blobs = []
    checks = []
    for a in everything:
        fixed = pg.fixed_points[a]
        blob = {
            "element": a,
            "objectIndex": pg.objects[a],
            "weight": list(md.weights[pg.objects[a]]),
            "fixedPoints": list(fixed),
        }
        blobs.append(blob)
        if not fixed:
            continue
        try:
            row = pg.phi_rows.row(a, everything)
        except WzwError as exc:
            blob["note"] = f"{type(exc).__name__}: {exc}"
            continue
        tsm = row.tsm
        fold = tsm.fold
        ld = fold.folded_level_data
        series, rank = ("A", 0) if ld is None else (ld.lie_type.series, ld.lie_type.rank)
        blob["folded"] = {"series": series, "rank": rank, "level": fold.folded_level}
        blob["sOmega"] = np.stack((tsm.matrix.real, tsm.matrix.imag), -1)
        phi = {}
        findings = []
        for h, vals in row.phi:
            if isinstance(vals, WzwError):
                findings.append({"h": h, "violation": f"{type(vals).__name__}: {vals}"})
                continue
            for u, r in zip(fold.fixed_points, vals.residues):
                phi[f"{u},{a},{h}"] = format_residue(r, pg.charge_den)
        blob["phi"] = phi
        if findings:
            blob["findings"] = findings
        _, uni = tsm.residuals
        checks.append(_check(f"s-omega-unitary-g{a}", uni < md.config.tolerance, uni))
        checks.append(_check(f"phi-ratio-g{a}", not findings, None))
    return {"elements": blobs}, checks


def _cmd_verify_conjecture(md: ModularData, args):
    from . import twining

    pg = md.picard
    blobs = []
    checks = []
    for idx, algebra in enumerate(pg.algebras):
        support = [pg.objects[g] for g in algebra.support.members]
        tag = str(idx)
        try:
            rep = twining.verify_conjecture(algebra)
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


def print_pretty(report: dict) -> None:
    lines = [f"wzwkit {report['command']}"]
    if report["input"]:
        i = report["input"]
        lines[0] += f"  {i['series']}{i['rank']} level {i['level']}"
    if report["command"] != "selftest":  # selftest's results are its checks, with their details
        lines += [_status_line(c, c["name"]) for c in report["checks"]]
    lines += _PRETTY[report["command"]](report["payload"])
    if report["timingSeconds"] is not None:
        lines.append(f"  time {report['timingSeconds']} s")
    print("\n".join(lines))


# the payload builder of each command but selftest
_COMMANDS = {
    "modular-data": _cmd_modular_data,
    "picard": _cmd_picard,
    "invariants": _cmd_invariants,
    "boundaries": _cmd_boundaries,
    "bimodules": _cmd_bimodules,
    "twining": _cmd_twining,
    "verify-conjecture": _cmd_verify_conjecture,
}


def run_query(args: argparse.Namespace, config: Config,
              t: SimpleLieType | None) -> tuple[dict | None, dict, list[dict]]:
    """The report's input, payload and checks of an admitted request: the
    acceptance battery when t is None (selftest), else the command's payload
    built on the modular data of t at args.level."""
    if t is None:
        return (None, *_cmd_selftest(args, config))
    md = _get_modular_data(args, config, t)
    input_blob = {"series": t.series, "rank": t.rank, "level": args.level}
    return (input_blob, *_COMMANDS[args.command](md, args))
