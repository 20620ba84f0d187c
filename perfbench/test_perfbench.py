"""Tests of the benchmark itself: report checker, traced launcher, metric names.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import trace_launch

ENV = {**os.environ, "PYTHONPATH": str(run.ROOT / "src")}


def cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([*run.CLI, *argv], capture_output=True, env=ENV, cwd=run.ROOT)


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> bytes:
    done = cli("modular-data", "A2", "2", "--cache-dir", str(tmp_path_factory.mktemp("c")))
    assert done.returncode == 0
    return done.stdout


def edited(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc["payload"])
    return json.dumps(doc, indent=2).encode()


def test_checker_accepts_the_recorded_report(report):
    assert checker.check_report(checker.reference_entry(0, report), 0, report) is None


def test_checker_rejects_one_changed_fusion_quadruple(report):
    def edit(p):
        p["fusion"][3][3] += 1
    assert checker.check_report(checker.reference_entry(0, report), 0, edited(report, edit))


def test_checker_rejects_an_s_entry_moved_by_1e_6(report):
    def edit(p):
        p["sMatrix"][1][2][1] += 1e-6
    assert checker.check_report(checker.reference_entry(0, report), 0, edited(report, edit))


def test_checker_accepts_an_s_entry_moved_by_1e_12(report):
    def edit(p):
        p["sMatrix"][1][2][1] += 1e-12
    assert checker.check_report(checker.reference_entry(0, report), 0, edited(report, edit)) is None


def test_checker_rejects_wrong_exit_codes(report):
    ref = checker.reference_entry(0, report)
    assert checker.check_report(ref, 3, report) == "exit code 3, expected 0"
    assert checker.check_report(ref, None, report) == "timed out"
    refused = checker.reference_entry(2, b"")
    assert checker.check_report(refused, 2, b"") is None
    assert checker.check_report(refused, 0, report)
    assert checker.check_report(refused, 2, b"{}")


def test_checker_treats_scientific_numbers_in_strings_as_floats():
    ref = checker.reference_entry(0, json.dumps({"d": "A1 -> Z2, max err 1.47e-15"}).encode())
    assert checker.check_report(ref, 0, json.dumps({"d": "A1 -> Z2, max err 3.10e-15"}).encode()) is None
    assert checker.check_report(ref, 0, json.dumps({"d": "A1 -> Z3, max err 1.47e-15"}).encode())
    assert checker.check_report(ref, 0, json.dumps({"d": "A1 -> Z2, max err 1.47e-07"}).encode())


def test_saved_reference_still_accepts_the_report(report, tmp_path):
    path = tmp_path / "ref.json.gz"
    checker.save_reference({"q": checker.reference_entry(0, report)}, path)
    assert checker.check_report(checker.load_reference(path)["q"], 0, report) is None


def test_reference_covers_every_query():
    refs = checker.load_reference()
    for workload in run.WORKLOADS.values():
        for query in workload.queries:
            assert refs[query.id]["exit"] == query.exit


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*run.END_TO_END, *run.per_layer_units()]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def fake_pass(workload: run.Workload, traced: bool, spans_dir: Path | None = None) -> run.Pass:
    outcomes = []
    for i, q in enumerate(workload.queries):
        spans = None
        if spans_dir is not None:
            spans = spans_dir / f"{i}.spans"
            spans.write_text(json.dumps({"query": q.id, "counts": {"cache.hits": 1},
                                         "spans": [[0, None, q.id, "cli.run", 1.0, 1.5]]}))
        outcomes.append(run.Outcome(q, q.exit, 2.0, 2.5, 1024, Path("-"), spans, None, 10))
    reports = [{"command": "modular-data", "checks": [{"name": "x", "pass": True, "margin": 1e-15}]}]
    return run.Pass(outcomes, 3.0, traced, reports)


def test_metric_builders_emit_every_declared_name(tmp_path):
    w = run.WORKLOADS["invariants"]
    e2e = run.end_to_end_metrics([1.0], [fake_pass(w, False)])
    assert list(e2e) == list(run.END_TO_END)
    assert e2e["success_frac"] == 1.0 and e2e["query_geomean_s"] == pytest.approx(2.0)
    layers = run.per_layer(fake_pass(w, False), fake_pass(w, True, tmp_path))
    assert set(layers) == set(run.per_layer_units())
    assert layers["cli.startup_s"] == pytest.approx(1.5 * len(w.queries))
    assert layers["cache.hits"] == len(w.queries)
    assert layers["health.modular_max"] == 1e-15


def test_end_to_end_times_drop_a_slow_query_that_moves_between_passes():
    w = run.WORKLOADS["modular-miss"]
    passes = [fake_pass(w, False) for _ in range(3)]
    for i, p in enumerate(passes):
        p.outcomes[i].wall = p.outcomes[i].cpu = 20.0
    e2e = run.end_to_end_metrics([1.0], passes)
    assert e2e["wall_s"] == pytest.approx(2.0 * len(w.queries))
    assert e2e["cpu_s"] == pytest.approx(2.5 * len(w.queries))
    assert e2e["query_geomean_s"] == pytest.approx(2.0)


def test_layer_metrics_self_time_and_reentry():
    spans = [
        [0, None, "q", "cli.run", 0.0, 10.0],
        [1, 0, "q", "acceptance.run_acceptance", 1.0, 9.0],
        [2, 1, "q", "cli.run", 2.0, 4.0],
        [3, 2, "q", "affine.modular_data", 2.5, 3.5],
    ]
    m = run.layer_metrics(spans, {})
    assert m["cli.run.calls"] == 2
    assert m["cli.run.total_s"] == 10.0  # the nested run is inside the outer one
    assert m["cli.run.self_s"] == pytest.approx(2.0 + 1.0)
    assert m["acceptance.run_acceptance.self_s"] == pytest.approx(6.0)


def traced(tmp_path: Path, *argv: str) -> dict:
    out = tmp_path / "q.spans"
    done = subprocess.run([sys.executable, str(run.BENCH_DIR / "trace_launch.py"), str(out), "q7",
                           *argv], capture_output=True, env=ENV, cwd=run.ROOT)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == argv[0]
    return json.loads(out.read_text())


def test_launcher_traces_aliases_and_counts_cache_events(tmp_path):
    cache = tmp_path / "cache"
    miss = traced(tmp_path, "twining", "A3", "2", "--cache-dir", str(cache))
    names = {s[0]: s[3] for s in miss["spans"]}
    assert all(s[2] == "q7" for s in miss["spans"])
    # kac_peterson_S through the twining module's own binding
    assert any(s[3] == "affine.kac_peterson_S" and names[s[1]] == "twining.twining_S"
               for s in miss["spans"])
    # modular_data through the cli module's binding
    assert any(s[3] == "affine.modular_data" and names[s[1]] == "cli.run" for s in miss["spans"])
    assert miss["counts"]["cache.misses"] == 1
    stored = sum(f.stat().st_size for f in cache.iterdir())
    assert miss["counts"]["cache.bytes_written"] == stored

    hit = traced(tmp_path, "twining", "A3", "2", "--cache-dir", str(cache))
    assert hit["counts"]["cache.hits"] == 1 and hit["counts"]["cache.bytes_read"] == stored
    assert any(s[3] == "affine.modular_data_from_doc" for s in hit["spans"])

    for f in cache.iterdir():
        f.write_text("{")
    corrupt = traced(tmp_path, "twining", "A3", "2", "--cache-dir", str(cache))
    assert corrupt["counts"]["cache.corrupt"] == 1


def test_install_leaves_no_binding_of_an_original(tmp_path):
    tracer = trace_launch.Tracer("q")
    trace_launch.install(tracer)
    modules = [m for n, m in sys.modules.items() if n == "wzwkit" or n.startswith("wzwkit.")]
    for module_name, names in trace_launch.TRACED.items():
        for name in names:
            wrapper = getattr(sys.modules[f"wzwkit.{module_name}"], name)
            original = wrapper.__wrapped__
            for module in modules:
                assert all(v is not original for v in vars(module).values())


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "invariants",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, cwd=tmp_path, timeout=180)
    assert done.returncode != 0 and done.stdout == b""
