import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wzwkit import cache, classify_algebras, cli, jsonout
from wzwkit.affine import modular_data, modular_data_to_doc, sparse_entries
from wzwkit.cache import cache_key, canonical_json
from wzwkit.cli import run
from wzwkit.config import DEFAULT_CONFIG
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


def _projection(payload):
    """The cached fields of a modular-data payload, in file order."""
    return {field: payload[field] for field in ("series", "rank", "level", "sMatrix")}


def _edited(**fields):
    return lambda text: canonical_json({**json.loads(text), **fields})


def _edited_s(i, j, part, edit):
    def tamper(text):
        doc = json.loads(text)
        doc["sMatrix"][i][j][part] = edit(doc["sMatrix"][i][j][part])
        return canonical_json(doc)
    return tamper


@pytest.mark.parametrize("tamper,reason", [
    pytest.param(_edited(conformalWeights=["0/1", "3/16", "1/2"]), "", id="conformal-weight"),
    pytest.param(lambda text: canonical_json(modular_data_to_doc(modular_data("A1", 2))), "",
                 id="full-document"),
    pytest.param(
        lambda text: canonical_json(_projection(modular_data_to_doc(modular_data("A1", 3)))), "",
        id="another-level"),
    pytest.param(_edited(rank=True), "", id="rank-true"),
    pytest.param(_edited(vacuumIndex=0.0), "", id="vacuum-index-float"),
    pytest.param(_edited_s(0, 0, 1, int), "", id="s-entry-int"),
    pytest.param(_edited_s(0, 1, 0, lambda x: x + 1e-6), "", id="s-asymmetric"),
    pytest.param(lambda text: json.dumps(json.loads(text)), "", id="whitespace"),
    pytest.param(_edited_s(1, 1, 0, lambda x: float("nan")), "not finite", id="s-nan"),
    pytest.param(
        lambda text: _edited_s(1, 2, 1, lambda x: float("inf"))(
            _edited_s(2, 1, 1, lambda x: float("inf"))(text)),
        "not finite", id="s-inf-pair"),
])
def test_tampered_cache_is_recomputed(capsys, tmp_path, tamper, reason):
    """A cache file that parses but is not the S-only document of its own
    key, byte for byte, is reported as corrupted and rebuilt: an edited,
    extra or retyped key, the full document of older versions, an S that is
    not symmetric or not finite, or other whitespace.  A non-finite S is
    refused by name, before any arithmetic on it could warn."""
    argv = ["modular-data", "A1", "2", "--cache-dir", str(tmp_path)]
    _, out = _run(capsys, argv)
    payload = json.loads(out)["payload"]
    path = tmp_path / cache_key("A", 1, 2)
    path.write_text(tamper(path.read_text()))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "corrupted" in captured.err and reason in captured.err
    assert json.loads(captured.out)["payload"] == payload
    assert path.read_text() == canonical_json(_projection(payload))


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


@pytest.mark.parametrize("option", ["--tolerance", "--integrality-tolerance"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_a_user_error(capsys, tmp_path, option, value):
    """Refused up front, not later as a spurious failure of the algebra."""
    assert run(["modular-data", "A1", "4", option, value, "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wzwkit: tolerances must be positive and finite\n"


@pytest.mark.parametrize("algebra", ["A²", "A١"])
def test_non_ascii_rank_is_a_user_error(capsys, tmp_path, algebra):
    assert run(["picard", algebra, "2", "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wzwkit: UnsupportedRank: cannot parse Lie type {algebra!r}\n"
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("argv,header,line", [
    (["modular-data", "A1", "4"], "wzwkit modular-data  A1 level 4", "  5 weights, c = 2/1"),
    (["picard", "A1", "4"], "wzwkit picard  A1 level 4",
     "  element 1: weight [4], order 2, twist 0/1"),
    (["invariants", "A1", "4", "--latex"], "wzwkit invariants  A1 level 4",
     r"  algebra 1, support objects [0, 4], Z = |\chi_{0} + \chi_{4}|^2 + 2|\chi_{2}|^2"),
    (["boundaries", "D4", "2"], "wzwkit boundaries  D4 level 2",
     "  algebra 1, support objects [0, 2], 10 boundary conditions"),
    (["boundaries", "D4", "2"], "wzwkit boundaries  D4 level 2",
     "  algebra 4, support objects [0, 2, 5, 10], phi unavailable: stabilizer of orbit at "
     "weight 6 is non-cyclic; a phi table from the twining module is required"),
    (["bimodules", "A1", "4"], "wzwkit bimodules  A1 level 4",
     "  algebra 1, support objects [0, 4], Pic = Z2, 0 duality candidate(s)"),
    (["twining", "A3", "2"], "wzwkit twining  A3 level 2",
     "  element 2: weight [0, 2, 0], fixed points [3, 7], folds to A1 level 1"),
    (["verify-conjecture", "D4", "2"], "wzwkit verify-conjecture  D4 level 2",
     "  algebra 3, support objects [0, 10], skipped: UnsupportedFolding: folding supports "
     "only A-series cycle rotations, got (1, 0, 2, 4, 3) on D4"),
    (["selftest"], "wzwkit selftest",
     "  [pass] 11-determinism: CLI output byte-identical across runs; cache round-trips exactly"),
])
def test_pretty_renders_each_command(capsys, tmp_path, argv, header, line):
    code, out = _run(capsys, argv + ["--pretty", "--cache-dir", str(tmp_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header
    assert line in lines
    if argv == ["selftest"]:  # each criterion once, its detail and margin on one line
        assert len(lines) == 1 + 11


def test_twining_unsupported_folding_notes(capsys, tmp_path):
    code, out = _run(capsys, ["twining", "D4", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    elements = json.loads(out)["payload"]["elements"]
    notes = [e["note"] for e in elements if "note" in e]
    assert len(notes) == 3
    assert all(n.startswith("UnsupportedFolding: ") for n in notes)
    assert all("phi" not in e for e in elements if "note" in e)


def test_verify_conjecture_skips_unsupported_folding(capsys, tmp_path):
    code, out = _run(capsys, ["verify-conjecture", "D4", "2", "--strict",
                              "--cache-dir", str(tmp_path)])
    assert code == 0
    algebras = json.loads(out)["payload"]["algebras"]
    skipped = [a for a in algebras if "skipped" in a]
    assert len(skipped) == 5
    assert all(a["skipped"].startswith("UnsupportedFolding: ") for a in skipped)
    assert [a["passed"] for a in algebras if "skipped" not in a] == [True]


@pytest.fixture
def broken_ratio(monkeypatch):
    """Make the phi engine meet a LambdaDependence for (g, h) = (2, 1) of
    (A3,2): the order-2 current against an order-4 one."""
    from wzwkit import twining
    from wzwkit.errors import LambdaDependence

    extract = twining.extract_phi

    def failing(pg, tsm, g, h, config):
        if (g, h) == (2, 1):
            raise LambdaDependence("injected reference dependence")
        return extract(pg, tsm, g, h, config)

    monkeypatch.setattr(twining, "extract_phi", failing)


@pytest.mark.parametrize("strict", [False, True])
def test_twining_reports_an_engine_violation(capsys, tmp_path, broken_ratio, strict):
    argv = ["twining", "A3", "2", "--cache-dir", str(tmp_path)] + ["--strict"] * strict
    code, out = _run(capsys, argv)
    assert code == (3 if strict else 0)
    rep = json.loads(out)
    element = rep["payload"]["elements"][2]
    assert element["findings"] == [
        {"h": 1, "violation": "LambdaDependence: injected reference dependence"}]
    assert not any(key.endswith(",2,1") for key in element["phi"])
    assert any(key.endswith(",2,3") for key in element["phi"])
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failed == ["phi-ratio-g2"]


@pytest.mark.parametrize("strict", [False, True])
def test_verify_conjecture_reports_an_engine_violation(capsys, tmp_path, broken_ratio, strict):
    argv = ["verify-conjecture", "A3", "2", "--cache-dir", str(tmp_path)] + ["--strict"] * strict
    code, out = _run(capsys, argv)
    assert code == (3 if strict else 0)
    rep = json.loads(out)
    full = rep["payload"]["algebras"][2]
    assert full["support"] == [0, 2, 5, 9]
    assert full["passed"] is False
    assert {"name": "phi-ratio-reference-independent", "g": 2, "h": 1,
            "detail": "injected reference dependence"} in full["findings"]
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failed == ["conjecture-algebra-2"]


def test_timing_flag(capsys, tmp_path):
    _, out = _run(capsys, ["picard", "A1", "2", "--timing", "--cache-dir", str(tmp_path)])
    assert json.loads(out)["timingSeconds"] >= 0


def test_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WZWKIT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _ = _run(capsys, ["modular-data", "A1", "2"])
    assert code == 0
    assert (tmp_path / "envcache" / cache_key("A", 1, 2)).is_file()


def test_untagged_cache_file_is_ignored(capsys, tmp_path):
    """Files named as older versions wrote them, without the S-algorithm tag
    or as a full document under the algorithm tag alone, are neither read
    nor reported as corrupted."""
    argv = ["modular-data", "A1", "3", "--cache-dir", str(tmp_path)]
    old = {
        "A-1-3.json": "{not json",
        "A-1-3.kpdet.json": canonical_json(modular_data_to_doc(modular_data("A1", 3))),
    }
    for name, text in old.items():
        (tmp_path / name).write_text(text)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "corrupted" not in captured.err
    assert json.loads(captured.out)["payload"]["centralCharge"] == "9/5"
    assert (tmp_path / cache_key("A", 1, 3)).is_file()
    for name, text in old.items():
        assert (tmp_path / name).read_text() == text


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
    ["modular-data", "A2", "3"],
    ["modular-data", "C3", "3"],
    ["bimodules", "A3", "4"],
])
def test_report_bytes_are_json_dumps_indent_2(capsys, tmp_path, argv):
    """Every report, on a cache miss and on a hit, is exactly what
    print(json.dumps(report, indent=2)) would write.  S of A2:3 and C3:3
    holds -0.0, which the array writer must spell as json does."""
    for _ in range(2):
        code, out = _run(capsys, argv + ["--cache-dir", str(tmp_path)])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        if argv in (["modular-data", "A2", "3"], ["modular-data", "C3", "3"]):
            assert "-0.0" in out


def test_miss_builds_one_document(capsys, tmp_path, monkeypatch):
    """A modular-data miss serializes once, and the cache file holds the
    cached fields of the payload it reports."""
    calls = []

    def counted(md):
        calls.append(md)
        return modular_data_to_doc(md)

    monkeypatch.setattr(cli, "modular_data_to_doc", counted)
    code, out = _run(capsys, ["modular-data", "A2", "3", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)["payload"]
    assert (tmp_path / cache_key("A", 2, 3)).read_text() == canonical_json(_projection(payload))


def test_hit_builds_one_document(capsys, tmp_path, monkeypatch):
    """A modular-data hit builds its document once, for the report, and
    writes the cache text once, to compare with the file; it reports what
    the miss reported."""
    argv = ["modular-data", "A2", "3", "--cache-dir", str(tmp_path)]
    _, miss = _run(capsys, argv)
    docs, texts = [], []

    def counted_doc(md):
        docs.append(md)
        return modular_data_to_doc(md)

    def counted_text(md):
        texts.append(md)
        return cache_text(md)

    cache_text = cache._cache_text
    monkeypatch.setattr(cli, "modular_data_to_doc", counted_doc)
    monkeypatch.setattr(cache, "_cache_text", counted_text)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""  # a hit, not a recompute
    assert len(docs) == 1
    assert len(texts) == 1
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
    n, m = len(md), len(want["fusion"])
    assert doc["sMatrix"].dtype == np.float64 and doc["sMatrix"].shape == (n, n, 2)
    assert doc["fusion"].dtype == np.int64 and doc["fusion"].shape == (m, 4)
    # bytes, not ==: also tells -0.0 from 0.0 and 1 from 1.0
    assert canonical_json(doc) == canonical_json(want)


@pytest.mark.parametrize("name,k", [("A1", 6), ("A3", 4), ("D4", 4)])
def test_z_is_the_sparse_entries_array(md_of, pic_of, name, k):
    """Z reaches the writer as the (m, 3) int64 array of its nonzero
    (i, j, Z_ij), in the order of a scan over the rows."""
    md = md_of(name, k)
    for ca in classify_algebras(md, pic_of(name, k)):
        z = cli._algebra_blob(md, ca, DEFAULT_CONFIG, False)[0]["Z"]
        want = [[i, j, v] for i, row in enumerate(ca.partition.tolist())
                for j, v in enumerate(row) if v]
        assert z.dtype == np.int64 and z.shape == (len(want), 3)
        assert z.tolist() == want


def test_sparse_entries_of_a_zero_table():
    entries = sparse_entries(np.zeros((3, 3), dtype=np.int64))
    assert entries.shape == (0, 3)
    assert "".join(jsonout.iterencode(entries)) == "[]"


@pytest.mark.parametrize("name,k", sorted(set(CATALOG) | set(BENCHMARK_MISSES)))
def test_cache_file_is_canonical_projection(md_of, tmp_path, name, k):
    """The cache writer, which formats each distinct double once, writes
    exactly canonical_json of the cached fields (C3:6 and G2 carry -0.0,
    and many entries need an exponent)."""
    md = md_of(name, k)
    doc = modular_data_to_doc(md)
    assert cache.cache_store(tmp_path, md).read_text() == canonical_json(_projection(doc))
