import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wzwkit import cache, cli
from wzwkit.affine import modular_data, modular_data_to_doc
from wzwkit.cache import cache_key, canonical_json
from wzwkit.cli import run
from wzwkit.residues import format_rational

from conftest import CATALOG

# The modular-data queries of the benchmark's cache-miss workload.
BENCHMARK_MISSES = [("A1", 80), ("A2", 12), ("C3", 6), ("E6", 3), ("D6", 2), ("A6", 3)]


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_modular_data_report(capsys, tmp_path):
    code, out = _run(capsys, ["modular-data", "A1", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["schemaVersion"] == 1
    assert rep["command"] == "modular-data"
    assert rep["input"] == {"series": "A", "rank": 1, "level": 2}
    assert len(rep["payload"]["weights"]) == 3
    assert rep["payload"]["centralCharge"] == "3/2"
    assert all(c["pass"] for c in rep["checks"])
    assert rep["timingSeconds"] is None


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    """A reader that stops after 10 bytes, as `| head -c 10` does, leaves the
    run exiting 0 with nothing on stderr.  The 141 kB report overflows the
    pipe buffer, so the write really meets the closed pipe."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wzwkit.cli", "modular-data", "A1", "20",
         "--cache-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head == b'{\n  "schem'
    assert err == b""


def test_picard_report(capsys, tmp_path):
    code, out = _run(capsys, ["picard", "A1", "4", "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["order"] == 2
    assert rep["payload"]["invariantFactors"] == [2]
    assert rep["payload"]["elements"][1]["twist"] == "0/1"  # h_J = k/4 = 1


def test_invariants_a1_6(capsys, tmp_path):
    code, out = _run(capsys, ["invariants", "A1", "6", "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["algebraCount"] == 2  # Cardy and D-odd


def test_round_trip_payload(capsys, tmp_path):
    code, out = _run(capsys, ["modular-data", "A2", "1", "--cache-dir", str(tmp_path)])
    rep = json.loads(out)
    assert json.loads(json.dumps(rep["payload"])) == rep["payload"]


def test_byte_identical_invocations(capsys, tmp_path):
    argv = ["invariants", "A1", "4", "--cache-dir", str(tmp_path)]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2


def test_cache_hit_and_corruption(capsys, tmp_path):
    argv = ["modular-data", "A1", "3", "--cache-dir", str(tmp_path)]
    code, out1 = _run(capsys, argv)
    assert code == 0
    path = tmp_path / cache_key("A", 1, 3)
    assert path.is_file()
    blob = path.read_bytes()
    code, out2 = _run(capsys, argv)  # hit
    assert code == 0 and out2 == out1
    assert path.read_bytes() == blob
    path.write_text("{not json")
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["payload"]["centralCharge"] == "9/5"
    assert "corrupted" in captured.err
    assert path.read_bytes() == blob  # rewritten cleanly


def _edited(**fields):
    return lambda text: canonical_json({**json.loads(text), **fields})


def _edited_conformal_weight(text):
    doc = json.loads(text)
    doc["conformalWeights"][1] = "1/7"
    return canonical_json(doc)


@pytest.mark.parametrize("tamper", [
    pytest.param(_edited_conformal_weight, id="conformal-weight"),
    pytest.param(lambda text: canonical_json(modular_data_to_doc(modular_data("A1", 3))),
                 id="another-level"),
    pytest.param(_edited(rank=True), id="rank-true"),
    pytest.param(_edited(vacuumIndex=0.0), id="vacuum-index-float"),
    pytest.param(lambda text: json.dumps(json.loads(text)), id="whitespace"),
])
def test_tampered_cache_is_recomputed(capsys, tmp_path, tamper):
    """A cache file that parses but is not the document of its own key,
    byte for byte, is reported as corrupted and rebuilt."""
    argv = ["modular-data", "A1", "2", "--cache-dir", str(tmp_path)]
    _, out = _run(capsys, argv)
    payload = json.loads(out)["payload"]
    path = tmp_path / cache_key("A", 1, 2)
    path.write_text(tamper(path.read_text()))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "corrupted" in captured.err
    assert json.loads(captured.out)["payload"] == payload
    assert path.read_text() == canonical_json(payload)


def test_no_cache_flag(capsys, tmp_path):
    argv = ["modular-data", "A1", "3", "--cache-dir", str(tmp_path), "--no-cache"]
    code, _ = _run(capsys, argv)
    assert code == 0
    assert not (tmp_path / cache_key("A", 1, 3)).exists()


def test_user_error_exit_codes(capsys, tmp_path):
    assert run(["modular-data", "Q1", "2", "--cache-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run(["modular-data", "A1", "0", "--cache-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    assert run(["modular-data", "E8", "1", "--weyl-cap", "10",
                "--cache-dir", str(tmp_path)]) == 2  # GroupTooLarge surfaced cleanly
    err = capsys.readouterr().err
    assert "GroupTooLarge" in err


def test_unknown_subcommand_is_usage_error(capsys, tmp_path):
    assert run(["frobnicate", "A1", "2"]) == 2
    capsys.readouterr()


def test_verify_conjecture_strict(capsys, tmp_path):
    code, out = _run(capsys, ["verify-conjecture", "A1", "4", "--strict",
                              "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert all(a["passed"] for a in rep["payload"]["algebras"])


def test_twining_payload(capsys, tmp_path):
    code, out = _run(capsys, ["twining", "A3", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    with_fixed = [e for e in rep["payload"]["elements"] if e["fixedPoints"]]
    assert any(e.get("folded") == {"series": "A", "rank": 1, "level": 1} for e in with_fixed)


def test_boundaries_payload_marks_unavailable_phi(capsys, tmp_path):
    code, out = _run(capsys, ["boundaries", "D4", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    notes = [a for a in rep["payload"]["algebras"] if a.get("boundaryCount") is None]
    counted = [a for a in rep["payload"]["algebras"] if a.get("boundaryCount") is not None]
    assert notes and counted  # full support needs phi; smaller supports are counted


def test_latex_emission(capsys, tmp_path):
    code, out = _run(capsys, ["invariants", "A1", "4", "--latex", "--cache-dir", str(tmp_path)])
    rep = json.loads(out)
    latexes = [a["latex"] for a in rep["payload"]["algebras"]]
    assert any(s == "|\\chi_{0} + \\chi_{4}|^2 + 2|\\chi_{2}|^2" for s in latexes)


def test_pretty_output_is_text(capsys, tmp_path):
    code, out = _run(capsys, ["picard", "A1", "4", "--pretty", "--cache-dir", str(tmp_path)])
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_timing_flag(capsys, tmp_path):
    _, out = _run(capsys, ["picard", "A1", "2", "--timing", "--cache-dir", str(tmp_path)])
    assert json.loads(out)["timingSeconds"] >= 0


def test_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WZWKIT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _ = _run(capsys, ["modular-data", "A1", "2"])
    assert code == 0
    assert (tmp_path / "envcache" / cache_key("A", 1, 2)).is_file()


def test_untagged_cache_file_is_ignored(capsys, tmp_path):
    """A file named without the S-algorithm tag, as written by older
    versions, is neither read nor reported as corrupted."""
    argv = ["modular-data", "A1", "3", "--cache-dir", str(tmp_path)]
    (tmp_path / "A-1-3.json").write_text("{not json")
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "corrupted" not in captured.err
    assert json.loads(captured.out)["payload"]["centralCharge"] == "9/5"
    assert (tmp_path / cache_key("A", 1, 3)).is_file()
    assert (tmp_path / "A-1-3.json").read_text() == "{not json"


@pytest.mark.parametrize("argv", [
    ["modular-data", "A2", "2"],
    ["modular-data", "A1", "3", "--timing"],
    ["picard", "A2", "3"],
    ["invariants", "A1", "4"],
    ["invariants", "A1", "4", "--latex"],
    ["boundaries", "A1", "4"],
    ["bimodules", "A2", "3"],
    ["twining", "A3", "2"],
    ["verify-conjecture", "A1", "4"],
    ["selftest"],
])
def test_report_bytes_are_json_dumps_indent_2(capsys, tmp_path, argv):
    """Every report, on a cache miss and on a hit, is exactly what
    print(json.dumps(report, indent=2)) would write."""
    for _ in range(2):
        code, out = _run(capsys, argv + ["--cache-dir", str(tmp_path)])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_miss_builds_one_document(capsys, tmp_path, monkeypatch):
    """A modular-data miss serializes once, and the cache file holds the
    payload it reports."""
    calls = []

    def counted(md):
        calls.append(md)
        return modular_data_to_doc(md)

    monkeypatch.setattr(cli, "modular_data_to_doc", counted)
    monkeypatch.setattr(cache, "modular_data_to_doc", counted)
    code, out = _run(capsys, ["modular-data", "A2", "3", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)["payload"]
    assert (tmp_path / cache_key("A", 2, 3)).read_text() == canonical_json(payload)


def test_hit_builds_one_document(capsys, tmp_path, monkeypatch):
    """A modular-data hit builds its document once and serializes it once,
    to compare with the file, and reports what the miss reported."""
    argv = ["modular-data", "A2", "3", "--cache-dir", str(tmp_path)]
    _, miss = _run(capsys, argv)
    docs, dumps = [], []

    def counted_doc(md):
        docs.append(md)
        return modular_data_to_doc(md)

    def counted_json(doc):
        dumps.append(doc)
        return canonical_json(doc)

    monkeypatch.setattr(cli, "modular_data_to_doc", counted_doc)
    monkeypatch.setattr(cache, "modular_data_to_doc", counted_doc)
    monkeypatch.setattr(cache, "canonical_json", counted_json)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""  # a hit, not a recompute
    assert len(docs) == 1
    assert len(dumps) <= 1
    assert captured.out == miss


def per_element_doc(md):
    """The document built one element at a time, as the reference for the
    vectorised modular_data_to_doc."""
    quads = [
        [int(i), int(j), int(k), int(md.fusion[i, j, k])]
        for i, j, k in sorted(zip(*np.nonzero(md.fusion)))
    ]
    return {
        "schemaVersion": 1,
        "series": md.level_data.lie_type.series,
        "rank": md.level_data.lie_type.rank,
        "level": md.level_data.level,
        "weights": [list(w) for w in md.weights],
        "vacuumIndex": md.vacuum,
        "dualCoxeter": md.level_data.root_system.dual_coxeter,
        "centralCharge": format_rational(md.central_charge),
        "conformalWeights": [format_rational(h) for h in md.conformal_weights],
        "tExponents": [format_rational(x) for x in md.t_exponents],
        "quantumDims": [float(x) for x in md.quantum_dims],
        "conjugation": [int(x) for x in md.conjugation],
        "sMatrix": [[[float(z.real), float(z.imag)] for z in row] for row in md.s_matrix],
        "fusion": quads,
    }


@pytest.mark.parametrize("name,k", sorted(set(CATALOG) | set(BENCHMARK_MISSES)))
def test_doc_matches_per_element_oracle(md_of, name, k):
    md = md_of(name, k)
    doc, want = modular_data_to_doc(md), per_element_doc(md)
    assert doc == want
    assert canonical_json(doc) == canonical_json(want)  # also tells -0.0 from 0.0
