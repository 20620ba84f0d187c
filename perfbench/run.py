"""The wzwkit benchmark: the CLI driven one query at a time, every report checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the checkout's
``src/wzwkit`` and writes only under ``perfbench/.work``, which it removes.

The load is a closed loop with one client: each query is a fresh
``python -m wzwkit.cli ...`` process with its own ``--cache-dir``, started when
the previous one has ended.  A pass is one run through the workload's queries
in an order shuffled by the seed; the seed changes nothing else.  Passes repeat
while another one fits in ``--seconds`` (at least two are made).  The timings
are medians over passes taken query by query, then summed (``wall_s``,
``cpu_s``) or averaged geometrically (``query_geomean_s``); the other
end-to-end metrics are medians over passes.  Every query's exit code and
report are checked against ``reference.json.gz`` (see checker.py).  The child
environment is the user's, plus PYTHONPATH pointing at the checkout and TMPDIR
inside the work directory (the selftest writes a temporary cache); BLAS threads
are not pinned.

With ``--trace 1`` the run makes one untraced and one traced pass, the latter
through trace_launch.py, and prints the per-layer metrics of the traced pass.

Standard output ends with two JSON lines: the run's context (machine, versions,
seed, per-pass numbers, failures) and then the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import trace_launch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI = (sys.executable, "-m", "wzwkit.cli")

QUERY_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # no query starts later, so a run ends within 180 s
MIN_PASSES = 2  # one pass alone can be far off; a median needs more
SETUP_REPEATS = 3  # set-up samples per run; setup_s is their median


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    exit: int = 0

    @property
    def id(self) -> str:
        return " ".join(self.argv)

    @property
    def algebra(self) -> tuple[str, ...] | None:
        """(algebra, level) whose modular data the query reads, if it succeeds."""
        if self.argv[0] == "selftest" or self.exit != 0:
            return None
        return self.argv[1:3]


def _queries(*lines: str) -> tuple[Query, ...]:
    return tuple(Query(tuple(line.split())) for line in lines)


# A1/A2/C3 spend their time in the Verlinde einsum and indent-2 JSON, E6/D6/A6
# in the Weyl-sum S; E7 2 exceeds the default Weyl cap and must be refused.
MODULAR = _queries("modular-data A1 80", "modular-data A2 12", "modular-data C3 6",
                   "modular-data E6 3", "modular-data D6 2", "modular-data A6 3") + (
    Query(("modular-data", "E7", "2"), exit=2),)

# Every downstream layer, on algebras whose modular data is cheap.  A7 3 and
# A2 16 are left out: one query each would take a pass past a minute.
INVARIANTS = _queries("picard A5 3", "invariants D4 4", "boundaries D4 4", "bimodules A3 6",
                      "bimodules D4 4", "twining D6 2", "twining A5 3",
                      "verify-conjecture A5 3", "verify-conjecture D4 4", "selftest")


@dataclass(frozen=True)
class Workload:
    queries: tuple[Query, ...]
    warm: bool  # set-up fills each query's cache with its algebra's modular data


# A modular-hit workload (MODULAR on filled caches) is left out: on a 2-vCPU
# box whose speed drifts by up to 2x over minutes, three workloads leave each
# run too little time to be steady.  The cache read path is still measured on
# invariants, whose queries all hit.
WORKLOADS = {
    "modular-miss": Workload(MODULAR, warm=False),
    "invariants": Workload(INVARIANTS, warm=True),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_geomean_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MB",
    "success_frac": "ratio",
}

# Which numeric-health metric a check margin feeds: keyed by CLI command, and
# for the selftest's own checks by criterion name.
HEALTH = {
    "modular-data": "health.modular_max",
    "invariants": "health.invariance_max",
    "twining": "health.twining_max",
    "verify-conjecture": "health.twining_max",
    "01-s-matrix-oracle": "health.modular_max",
    "02-modular-relations": "health.modular_max",
    "06-partition-functions": "health.invariance_max",
    "10-twining-conjecture": "health.twining_max",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in trace_launch.TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.total_s"] = "s"
            units[f"{module}.{name}.self_s"] = "s"
    units["cli.startup_s"] = "s"
    for name in trace_launch.CACHE_COUNTS + trace_launch.SIZE_COUNTS:
        units[name] = "B" if name.startswith("cache.bytes") else "count"
    for name in dict.fromkeys(HEALTH.values()):
        units[name] = "1"
    units["trace.overhead_frac"] = "ratio"
    return units


# --- running one query -----------------------------------------------------------


@dataclass
class Outcome:
    query: Query
    exit: int | None  # None when the query timed out
    wall: float
    cpu: float
    rss_kib: int
    stdout: Path
    spans: Path | None = None
    failure: str | None = None
    output_bytes: int = 0


def launch(cmd: list[str], env: dict, stdout: Path, timeout: float) -> tuple[int | None, float, float, int]:
    """Run cmd to completion; return (exit code or None on timeout, wall, cpu, peak RSS KiB)."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
    lock = threading.Lock()
    state = {"ended": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["ended"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused before the timer is off.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - started
        with lock:
            state["ended"] = True
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if state["killed"] else proc.returncode
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class Runner:
    """Launches queries with the run's environment, scratch space and deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        tmp = work / "tmp"
        tmp.mkdir()
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src,
                    "TMPDIR": str(tmp)}
        self._serial = 0

    def _scratch(self) -> Path:
        self._serial += 1
        return self.work / f"q{self._serial}"

    def run(self, query: Query, cache_dir: Path, traced: bool = False) -> Outcome:
        base = self._scratch()
        argv = list(query.argv) + ["--cache-dir", str(cache_dir)]
        spans = base.with_suffix(".spans") if traced else None
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "trace_launch.py"), str(spans), query.id, *argv]
        else:
            cmd = [*CLI, *argv]
        timeout = min(QUERY_TIMEOUT_S, self.deadline - time.monotonic())
        code, wall, cpu, rss = launch(cmd, self.env, base.with_suffix(".out"), timeout)
        return Outcome(query, code, wall, cpu, rss, base.with_suffix(".out"), spans)

    def probe(self, cmd: list[str], what: str) -> bytes:
        """Run a helper process that must succeed; return its standard output."""
        out = self._scratch().with_suffix(".out")
        code, *_ = launch(cmd, self.env, out, QUERY_TIMEOUT_S)
        if code != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip()
            raise SystemExit(f"perfbench: {what} failed (exit {code}): {err[-500:]}")
        return out.read_bytes()


# --- set-up and passes -------------------------------------------------------------


def set_up(runner: Runner, workload: Workload, base: Path) -> list[Path]:
    """Prepare one cache directory per query; return them in query order."""
    base.mkdir()
    runner.probe([*CLI, "--help"], "starting the wzwkit CLI")
    filled: dict[tuple[str, ...], Path] = {}
    if workload.warm:
        for query in workload.queries:
            if query.algebra is not None and query.algebra not in filled:
                seed_dir = base / "fill" / "-".join(query.algebra)
                runner.probe([*CLI, "modular-data", *query.algebra, "--cache-dir", str(seed_dir)],
                             f"filling the cache for {' '.join(query.algebra)}")
                filled[query.algebra] = seed_dir
    dirs = []
    for i, query in enumerate(workload.queries):
        target = base / f"cache{i}"
        if query.algebra in filled:
            shutil.copytree(filled[query.algebra], target)
        else:
            target.mkdir()
        dirs.append(target)
    return dirs


def fresh_dirs(base: Path, count: int) -> list[Path]:
    base.mkdir()
    dirs = [base / f"cache{i}" for i in range(count)]
    for d in dirs:
        d.mkdir()
    return dirs


@dataclass
class Pass:
    outcomes: list[Outcome]
    wall: float
    traced: bool = False
    reports: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(o.failure is not None for o in self.outcomes)


def run_pass(runner: Runner, workload: Workload, order: list[int], dirs: list[Path],
             refs: dict, traced: bool = False) -> Pass:
    started = time.perf_counter()
    outcomes = [runner.run(workload.queries[i], dirs[i], traced) for i in order]
    wall = time.perf_counter() - started
    result = Pass(outcomes, wall, traced)
    for o in outcomes:  # checked after the clock stops: the client's work, not the program's
        stdout = o.stdout.read_bytes()
        o.output_bytes = len(stdout)
        o.failure = checker.check_report(refs[o.query.id], o.exit, stdout)
        if traced and o.exit == 0:
            result.reports.append(json.loads(stdout))
        o.stdout.unlink()
    return result


# --- metrics -----------------------------------------------------------------------


def end_to_end_metrics(setups: list[float], passes: list[Pass]) -> dict[str, float]:
    """Medians of the run.  Times are taken per query, as the median over passes
    of that query's samples, and then summed or averaged: a slow spell of the
    machine that hits different queries in different passes drops out."""
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)

    def med(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    def per_query(fn) -> list[float]:
        samples: dict[str, list[float]] = {}
        for p in passes:
            for o in p.outcomes:
                samples.setdefault(o.query.id, []).append(fn(o))
        return [statistics.median(s) for s in samples.values()]

    walls = per_query(lambda o: o.wall)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(walls),
        "query_geomean_s": math.exp(statistics.fmean(math.log(w) for w in walls)),
        "cpu_s": sum(per_query(lambda o: o.cpu)),
        "peak_rss_mb": med(lambda p: max(o.rss_kib for o in p.outcomes) / 1024),
        "output_mb": med(lambda p: sum(o.output_bytes for o in p.outcomes) / 1e6),
        "success_frac": 1.0 - failed / attempted,
    }


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-function calls, total and self time, plus counts, from one pass's spans.

    A span is [id, parent id, query id, name, start, end], ids unique per query.
    Total time counts only spans with no ancestor of the same name, so a
    re-entered function (cli.run inside the selftest) is not counted twice.
    """
    by_key = {(s[2], s[0]): s for s in spans}
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s[1] is not None:
            key = (s[2], s[1])
            child_time[key] = child_time.get(key, 0.0) + s[5] - s[4]

    def reentered(s) -> bool:
        parent = s[1]
        while parent is not None:
            p = by_key[(s[2], parent)]
            if p[3] == s[3]:
                return True
            parent = p[1]
        return False

    out: dict[str, float] = {}
    for module, names in trace_launch.TRACED.items():
        for name in names:
            full = f"{module}.{name}"
            mine = [s for s in spans if s[3] == full]
            out[f"{full}.calls"] = len(mine)
            out[f"{full}.total_s"] = sum(s[5] - s[4] for s in mine if not reentered(s))
            out[f"{full}.self_s"] = sum(s[5] - s[4] - child_time.get((s[2], s[0]), 0.0)
                                        for s in mine)
    for name in trace_launch.CACHE_COUNTS + trace_launch.SIZE_COUNTS:
        out[name] = counts.get(name, 0)
    return out


def health_metrics(reports: list[dict]) -> dict[str, float]:
    out = dict.fromkeys(dict.fromkeys(HEALTH.values()), 0.0)
    for report in reports:
        for check in report["checks"]:
            metric = HEALTH.get(report["command"]) or HEALTH.get(check["name"])
            if metric and check["margin"] is not None:
                out[metric] = max(out[metric], check["margin"])
    return out


def per_layer(untraced: Pass, traced: Pass) -> dict[str, float]:
    """Per-layer metrics of the traced pass; cli.startup_s sums, over its queries,
    the process wall time outside the outermost cli.run span."""
    spans, counts, startup = [], {}, 0.0
    for o in traced.outcomes:
        doc = json.loads(o.spans.read_text()) if o.spans and o.spans.is_file() else None
        run_time = 0.0
        if doc is not None:
            spans += doc["spans"]
            for name, n in doc["counts"].items():
                counts[name] = counts.get(name, 0) + n
            run_time = sum(s[5] - s[4] for s in doc["spans"]
                           if s[1] is None and s[3] == "cli.run")
        startup += o.wall - run_time
    out = layer_metrics(spans, counts)
    out["cli.startup_s"] = startup
    out.update(health_metrics(traced.reports))
    out["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    return out


# --- the run -----------------------------------------------------------------------


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def bench(args: argparse.Namespace, runner: Runner) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    refs = checker.load_reference()
    missing = [q.id for q in workload.queries if q.id not in refs]
    if missing:
        raise SystemExit(f"perfbench: no reference for {missing}")
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(),
        **json.loads(runner.probe([sys.executable, str(BENCH_DIR / "envinfo.py")],
                                  "reading the environment")),
    }
    rng = random.Random(args.seed)
    n = len(workload.queries)

    setups: list[float] = []
    dirs: list[Path] = []
    while len(setups) < SETUP_REPEATS:
        if dirs:
            shutil.rmtree(dirs[0].parent)
        started = time.perf_counter()
        dirs = set_up(runner, workload, runner.work / f"setup{len(setups)}")
        setups.append(time.perf_counter() - started)

    def one_pass(traced: bool = False) -> Pass:
        order = list(range(n))
        rng.shuffle(order)
        if workload.warm:
            return run_pass(runner, workload, order, dirs, refs, traced)
        base = runner.work / f"pass{len(passes)}"
        done = run_pass(runner, workload, order, fresh_dirs(base, n), refs, traced)
        shutil.rmtree(base)
        return done

    passes: list[Pass] = []
    measured = time.perf_counter()
    if args.trace:
        first_traced = args.seed % 2 == 1  # alternate which pass runs first
        passes.append(one_pass(first_traced))
        passes.append(one_pass(not first_traced))
    else:
        # Start a pass only if a pass as long as the last one still ends in time.
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - measured + passes[-1].wall <= args.seconds
                and time.monotonic() + passes[-1].wall < runner.deadline):
            passes.append(one_pass())

    failures = [f"{o.query.id}: {o.failure}" for p in passes for o in p.outcomes if o.failure]
    context.update({
        "setup_samples_s": setups,
        "passes": [{"traced": p.traced, "wall_s": p.wall,
                    "query_wall_s": {o.query.id: o.wall for o in p.outcomes},
                    "query_cpu_s": {o.query.id: o.cpu for o in p.outcomes}}
                   for p in passes],
        "failures": failures,
    })
    if args.trace:
        untraced, traced = sorted(passes, key=lambda p: p.traced)
        metrics, units = per_layer(untraced, traced), per_layer_units()
    else:
        metrics, units = end_to_end_metrics(setups, passes), END_TO_END
    attempted = sum(len(p.outcomes) for p in passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "wzwkit" / "cli.py").is_file():
        print(f"perfbench: no wzwkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / ".work"))
    try:
        context, result = bench(args, Runner(work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH_DIR / ".work").rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
