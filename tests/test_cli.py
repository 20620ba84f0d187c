import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from wzwkit import affine, cache, classify_algebras, cli, jsonout, reports
from wzwkit.affine import modular_data, modular_data_to_doc
from wzwkit.cache import cache_key
from wzwkit.cli import run
from wzwkit.config import DEFAULT_CONFIG, Config
from wzwkit.errors import GroupTooLarge, TooManyObjects
from wzwkit.residues import format_rational

from conftest import CATALOG, canonical_json, dense

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


def _launch(tmp_path, argv):
    """The entry point in a fresh process, standard output going to a regular
    file and block-buffered, as by default: (exit code, stdout bytes, stderr
    bytes)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "stdout"
    with open(out, "wb") as fp:
        proc = subprocess.run([sys.executable, "-m", "wzwkit.cli", *argv], stdout=fp,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    return proc.returncode, out.read_bytes(), proc.stderr


@pytest.mark.parametrize("argv, code, err", [
    (["modular-data", "A1", "20", "--no-cache"], 0, b""),
    (["modular-data", "E7", "2", "--no-cache"], 2,
     b"wzwkit: GroupTooLarge: |W(E7)| = 2903040 exceeds cap 1000000\n"),
    (["--help"], 0, b""),
])
def test_entry_point_exit_path(capsys, monkeypatch, tmp_path, argv, code, err):
    """main() flushes and ends the process without teardown: the exit code,
    stdout and stderr are those of an in-process run() of the same query."""
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    assert run(argv) == code
    expected = capsys.readouterr()
    assert expected.err.encode() == err
    got = _launch(tmp_path, argv)
    assert got == (code, expected.out.encode(), err)
    assert (got[1] == b"") == (code == 2)
    if argv == ["--help"]:
        assert got[1].startswith(b"usage: wzwkit") and b"verify-conjecture" in got[1]


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
    """The fields the S-only JSON cache files of older versions held, in file order."""
    return {field: payload[field] for field in ("series", "rank", "level", "sMatrix")}


def _npy(*arrays, **kwargs) -> bytes:
    """The arrays saved by np.save one after the other, as a cache file holds them."""
    buf = io.BytesIO()
    for a in arrays:
        np.save(buf, a, **kwargs)
    return buf.getvalue()


def _load_cache(path):
    """The key and S of a cache file, and whatever bytes follow them."""
    fh = io.BytesIO(path.read_bytes())
    key, s = np.load(fh), np.load(fh)
    return key, s, fh.read()


def _s_with(*entries):
    """Tamper: S with each entry (i, j, z) set to z."""
    def tamper(key, s, blob):
        s = s.copy()
        for i, j, z in entries:
            s[i, j] = z
        return _npy(key, s)
    return tamper


def _flip(offset):
    """Tamper: the lowest bit of the stored S's byte at offset flipped (0:
    S[0, 0]'s real part, 8: its zero imaginary part), which leaves S
    symmetric and unitary within tolerance."""
    def tamper(key, s, blob):
        flipped = bytearray(blob)
        flipped[len(blob) - s.nbytes + offset] ^= 1  # S's entries end the file
        return bytes(flipped)
    return tamper


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class _Unpickles:
    """An object whose unpickling is recorded."""

    def __reduce__(self):
        return _record_unpickling, ()


@pytest.mark.parametrize("tamper,reason", [
    pytest.param(lambda key, s, blob: canonical_json(modular_data_to_doc(modular_data("A3", 1)))
                 .encode(), "not a .npy array", id="full-document"),
    pytest.param(lambda key, s, blob: blob + _npy(np.array(modular_data("A3", 1).conformal_weights,
                                                            dtype=float)),
                 "byte for byte", id="conformal-weight"),
    pytest.param(lambda key, s, blob: cache._cache_bytes(modular_data("A3", 2)),
                 "file name", id="another-level"),
    pytest.param(lambda key, s, blob: cache._cache_bytes(modular_data("A1", 3)),
                 "file name", id="another-algebra"),
    pytest.param(lambda key, s, blob: _npy(key.astype(np.float64), s), "file name", id="key-float"),
    pytest.param(lambda key, s, blob: _npy(key.astype(np.int32), s), "file name", id="key-int32"),
    pytest.param(lambda key, s, blob: _npy(key, s.astype(np.complex64)), "complex128",
                 id="s-complex64"),
    pytest.param(lambda key, s, blob: _npy(key, s.astype(">c16")), "complex128", id="s-big-endian"),
    pytest.param(lambda key, s, blob: _npy(key, s.real), "complex128", id="s-float64"),
    pytest.param(lambda key, s, blob: _npy(key, np.asfortranarray(s)), "C order", id="s-fortran-order"),
    pytest.param(lambda key, s, blob: _npy(key, np.array([_Unpickles()]), allow_pickle=True),
                 "allow_pickle", id="s-object"),
    pytest.param(_s_with((0, 1, 1e-6)), "not symmetric", id="s-asymmetric"),
    pytest.param(_s_with((1, 1, complex("nan"))), "not finite", id="s-nan"),
    pytest.param(_s_with((1, 2, complex(np.inf, -np.inf)), (2, 1, complex(np.inf, -np.inf))),
                 "not finite", id="s-inf-pair"),
    pytest.param(_flip(0), "does not match its checksum", id="s-low-bit"),
    pytest.param(_flip(8), "does not match its checksum", id="s-zero-imaginary-bit"),
    pytest.param(lambda key, s, blob: blob + b"\0", "byte for byte", id="trailing-bytes"),
    pytest.param(lambda key, s, blob: blob[:-8], "EOF", id="truncated"),
])
def test_tampered_cache_is_recomputed(capsys, tmp_path, tamper, reason):
    """A cache file that is not the saved key and S of its own key, byte for
    byte, is reported as corrupted and rebuilt: a JSON document, an extra
    array or trailing bytes, another level's or another algebra's file (A1:3
    and A3:1 both have four weights and a unitary, symmetric S, so only the
    stored key tells them apart), a key or S of another dtype or layout, an
    object array (refused without unpickling it), an S that is not symmetric
    or not finite, an S with one flipped bit that passes every other check
    and only its checksum refuses, or a truncated file.  A non-finite S is refused by name,
    before any arithmetic on it could warn."""
    argv = ["modular-data", "A3", "1", "--cache-dir", str(tmp_path)]
    _, out = _run(capsys, argv)
    path = tmp_path / cache_key("A", 3, 1)
    blob = path.read_bytes()
    key, s, _ = _load_cache(path)
    path.write_bytes(tamper(key, s, blob))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "corrupted" in captured.err and reason in captured.err
    assert not UNPICKLED
    assert captured.out == out
    assert path.read_bytes() == blob


def test_a_tighter_tolerance_refuses_alike_on_a_warm_and_a_cold_cache(capsys, tmp_path):
    """A stored S that matches its checksum is the S a cold run computes, so
    when a tighter --tolerance refuses it, a warm cache refuses as a cold one
    does: the same exit code, standard output and standard error, with no
    report of corruption, and the cache file is left as it was."""
    query = ["modular-data", "A2", "3", "--tolerance", "1e-17", "--cache-dir"]
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    assert _run(capsys, ["modular-data", "A2", "3", "--cache-dir", str(warm)])[0] == 0
    path = warm / cache_key("A", 2, 3)
    blob = path.read_bytes()
    outcomes = []
    for cache_dir in (warm, cold):
        code = run([*query, str(cache_dir)])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert (code, out) == (2, "") and err.startswith("wzwkit: NormalizationFailure: ")
    assert path.read_bytes() == blob
    assert not cold.exists()


LADDER_ALGEBRAS = [("A1", 3), ("A1", 4), ("G2", 2), ("G2", 4), ("A2", 3), ("B2", 2), ("D4", 2)]
LADDER_TOLERANCES = ["0.5", "1e-3", "1e-8", "1e-15", "3e-16", "1e-17"]


@pytest.fixture(scope="module")
def warm_ladder_cache(tmp_path_factory):
    """A cache directory holding the S of every ladder algebra, stored by a
    run under the default options."""
    cache_dir = tmp_path_factory.mktemp("ladder")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, k in LADDER_ALGEBRAS:
            assert run(["modular-data", name, str(k), "--cache-dir", str(cache_dir)]) == 0
    return cache_dir


@pytest.mark.parametrize("tolerance", LADDER_TOLERANCES)
@pytest.mark.parametrize("name,k", LADDER_ALGEBRAS, ids=[f"{n}-{k}" for n, k in LADDER_ALGEBRAS])
def test_a_warm_cache_answers_as_no_cache_does(capsys, warm_ladder_cache, name, k, tolerance):
    """Under any --tolerance, from one that admits S_00 = 0.37 to one below
    S's rounding error, a run on a warm cache gives the exit code, standard
    output and standard error of a --no-cache run, and leaves the file as it
    was: S is computed without reading the tolerance and accepted only where
    the computed and the loaded S both pass."""
    path = warm_ladder_cache / cache_key(name[0], int(name[1:]), k)
    blob = path.read_bytes()
    query = ["modular-data", name, str(k), "--tolerance", tolerance]
    outcomes = []
    for where in (["--no-cache"], ["--cache-dir", str(warm_ladder_cache)]):
        code = run([*query, *where])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    assert path.read_bytes() == blob


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


# (the exception, the reason on stderr): numpy's refusal names what it could not
# allocate; Python's own allocator raises a bare MemoryError, named by a fixed reason
REFUSALS = [(MemoryError("Unable to allocate 25.2 GiB"), "Unable to allocate 25.2 GiB"),
            (MemoryError(), "out of memory")]


@pytest.mark.parametrize("command", ["modular-data", "picard"])
def test_refused_allocation_exits_2(capsys, monkeypatch, command):
    """An allocation the machine refuses (as numpy's for the n^3 Verlinde
    tensor of A1 1500) is a refusal of the input: exit 2, one line naming the
    public MemoryError and a reason on stderr, nothing on stdout."""
    for exc, reason in REFUSALS:
        def refuse(s, config=DEFAULT_CONFIG):
            raise exc

        monkeypatch.setattr(affine, "verlinde_fusion", refuse)
        assert run([command, "A1", "3", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wzwkit: MemoryError: {reason}\n"


@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
def test_refused_allocation_while_writing_exits_2(capsys, monkeypatch, pretty):
    """An allocation refused while the report is written (as numpy's for a
    big table's literals) ends the run as one refused before it: exit 2 and
    one line naming the public MemoryError and a reason on stderr, no
    traceback."""
    for exc, reason in REFUSALS:
        def refuse(a):
            raise exc

        monkeypatch.setattr(jsonout, "literal_table", refuse)
        monkeypatch.setattr(reports, "print_pretty", lambda report: refuse(None))
        assert run(["modular-data", "A1", "3", "--no-cache", *pretty]) == 2
        assert capsys.readouterr().err == f"wzwkit: MemoryError: {reason}\n"


@pytest.mark.parametrize("argv,message", [
    pytest.param(["modular-data", "A1", "1500"],
                 "A1 at level 1500 has more than 400 integrable weights", id="A1-1500"),
    pytest.param(["bimodules", "A2", "30"],  # 496 weights
                 "A2 at level 30 has more than 400 integrable weights", id="A2-30"),
    pytest.param(["picard", "E6", "1000000000000"],  # refused without counting
                 "E6 at level 1000000000000 has more than 400 integrable weights", id="E6-huge"),
    pytest.param(["modular-data", "A2", "24", "--object-cap", "324"],  # 325 weights
                 "A2 at level 24 has more than 324 integrable weights", id="A2-24-lowered"),
])
def test_object_cap_refuses_up_front(capsys, tmp_path, argv, message):
    """A level with more integrable weights than the object cap is refused
    before any cache read or computation: exit 2, one line on stderr, nothing
    on stdout, and in well under a second even at an absurd level."""
    started = time.monotonic()
    assert run([*argv, "--cache-dir", str(tmp_path)]) == 2
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wzwkit: TooManyObjects: {message}\n"
    assert not any(tmp_path.iterdir())


def test_weyl_cap_refuses_on_a_warm_cache(capsys, tmp_path):
    """The Weyl cap is checked before the cache is read, and again where the
    stored S is rebuilt: a file stored under a raised cap lets neither a
    query nor a library lookup at the default cap through."""
    fill = ["modular-data", "E7", "2", "--weyl-cap", "3000000", "--cache-dir", str(tmp_path)]
    assert _run(capsys, fill)[0] == 0
    assert (tmp_path / cache_key("E", 7, 2)).is_file()
    for command in ("modular-data", "picard"):
        assert run([command, "E7", "2", "--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "GroupTooLarge" in captured.err
    # the library's lookup refuses the stored S as modular_data refuses a miss
    with pytest.raises(GroupTooLarge) as miss:
        modular_data("E7", 2)
    with pytest.raises(GroupTooLarge, match=f"^{re.escape(str(miss.value))}$"):
        cache.cache_lookup(tmp_path, "E", 7, 2)


def test_object_cap_refuses_in_the_library_as_in_the_cli(capsys, monkeypatch):
    """lietype.admit applies the object cap, so modular_data refuses what the
    CLI refuses, with the CLI's message, before S is computed."""
    assert run(["modular-data", "A1", "1500", "--no-cache"]) == 2
    captured = capsys.readouterr()

    def admitted(ld):  # fail fast, instead of building a 1501-weight S and its fusion
        raise AssertionError(f"{len(ld)} weights admitted")

    monkeypatch.setattr(affine, "kac_peterson_S", admitted)
    with pytest.raises(TooManyObjects) as refused:
        modular_data("A1", 1500)
    assert captured.err == f"wzwkit: TooManyObjects: {refused.value}\n"
    assert str(refused.value) == "A1 at level 1500 has more than 400 integrable weights"


def test_object_cap_refuses_on_a_warm_cache(capsys, tmp_path):
    """A file stored under a raised object cap lets neither a query nor a
    library lookup under a lower cap through: the lookup refuses the stored
    S as modular_data refuses a miss.  (A1 10 has 11 weights, so a cap of 10
    stands in for the default 400, which only a 401-weight file could test.)"""
    fill = ["modular-data", "A1", "10", "--object-cap", "1000", "--cache-dir", str(tmp_path)]
    assert _run(capsys, fill)[0] == 0
    stored = tmp_path / cache_key("A", 1, 10)
    blob = stored.read_bytes()
    assert run(["modular-data", "A1", "10", "--object-cap", "10", "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("wzwkit: TooManyObjects: "
                            "A1 at level 10 has more than 10 integrable weights\n")
    low = Config(object_cap=10)
    with pytest.raises(TooManyObjects) as miss:
        modular_data("A1", 10, low)
    with pytest.raises(TooManyObjects, match=f"^{re.escape(str(miss.value))}$"):
        cache.cache_lookup(tmp_path, "A", 1, 10, low)
    assert stored.read_bytes() == blob  # refused, not taken for corruption and rewritten
    assert cache.cache_lookup(tmp_path, "A", 1, 10) is not None  # the default cap admits it


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


# One launch in a fresh interpreter: its exit code, standard output, standard
# error and whether it loaded numpy.
LAUNCH = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from wzwkit import cli
out, err = io.StringIO(), io.StringIO()
with redirect_stdout(out), redirect_stderr(err):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("argv,refused", [
    pytest.param(["A1", "\u0663"], "level: invalid int value: '\u0663'", id="arabic-level"),
    pytest.param(["A1", "1_0"], "level: invalid int value: '1_0'", id="underscore-level"),
    pytest.param(["A1", "3", "--tolerance", "\u0661e-8"],
                 "--tolerance: invalid float value: '\u0661e-8'", id="arabic-tolerance"),
    pytest.param(["A1", "3", "--object-cap", "\u0664\u0660\u0660"],
                 "--object-cap: invalid int value: '\u0664\u0660\u0660'", id="arabic-object-cap"),
    pytest.param(["A1", "3", "--weyl-cap", "10_000"],
                 "--weyl-cap: invalid int value: '10_000'", id="underscore-weyl-cap"),
])
def test_numbers_are_ascii_without_underscores(tmp_path, argv, refused):
    """int() and float() read "\u0663" as 3 and "1_0" as 10; the level and
    every Config option refuse both, as parse_lie_type refuses a rank "A\u0663":
    a usage error, exit 2 with nothing on stdout, and numpy never loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "WZWKIT_CACHE_DIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", LAUNCH, "modular-data", *argv],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    code, out, err, numpy = json.loads(done.stdout)
    assert (code, out, numpy) == (2, "", False)
    assert err.endswith(f"error: argument {refused}\n")
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

    def failing(tsm, h):
        if (tsm.fold.element, h) == (2, 1):
            raise LambdaDependence("injected reference dependence")
        return extract(tsm, h)

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


@pytest.mark.parametrize("name,level,unshared", [
    ("D4", "4", 11), ("D4", "2", 11), ("A5", "3", 4), ("A3", "2", 5)])
def test_verify_conjecture_builds_each_row_once(capsys, tmp_path, monkeypatch,
                                                name, level, unshared):
    """verify-conjecture computes S^w once per g and phi once per (g, h) for
    all algebras of the run, with the report of a fresh phi engine per
    algebra, whose twining_S call count is `unshared`; a twining_S error (D4)
    still skips every algebra it affects with the same text."""
    from wzwkit import twining

    argv = ["verify-conjecture", name, level, "--cache-dir", str(tmp_path)]
    tsm_calls, phi_calls = [], []
    twining_S, extract_phi = twining.twining_S, twining.extract_phi

    def counted_twining_S(pg, g):
        tsm_calls.append(g)
        return twining_S(pg, g)

    def counted_extract_phi(tsm, h):
        phi_calls.append((tsm.fold.element, h))
        return extract_phi(tsm, h)

    monkeypatch.setattr(twining, "twining_S", counted_twining_S)
    monkeypatch.setattr(twining, "extract_phi", counted_extract_phi)
    code, shared = _run(capsys, argv)
    assert code == 0
    assert len(set(tsm_calls)) == len(tsm_calls) < unshared
    assert len(set(phi_calls)) == len(phi_calls)
    skipped = [a["skipped"] for a in json.loads(shared)["payload"]["algebras"] if "skipped" in a]
    assert len(skipped) == (5 if name == "D4" else 0)
    assert all(s.startswith("UnsupportedFolding: folding supports only A-series") for s in skipped)

    verify = twining.verify_conjecture

    def with_a_fresh_engine(algebra):
        vars(algebra.picard).pop("phi_rows", None)
        return verify(algebra)

    monkeypatch.setattr(twining, "verify_conjecture", with_a_fresh_engine)
    tsm_calls.clear()
    assert _run(capsys, argv) == (0, shared)
    assert len(tsm_calls) == unshared


def test_timing_flag(capsys, tmp_path):
    _, out = _run(capsys, ["picard", "A1", "2", "--timing", "--cache-dir", str(tmp_path)])
    assert json.loads(out)["timingSeconds"] >= 0


def test_pretty_timing_prints_the_time(capsys, tmp_path):
    argv = ["picard", "A1", "2", "--pretty", "--cache-dir", str(tmp_path)]
    _, plain = _run(capsys, argv)
    code, timed = _run(capsys, argv + ["--timing"])
    assert code == 0
    *rest, last = timed.splitlines()
    assert rest == plain.splitlines()
    assert re.fullmatch(r"  time [0-9.e-]+ s", last)


def test_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WZWKIT_CACHE_DIR", str(tmp_path / "envcache"))
    code, _ = _run(capsys, ["modular-data", "A1", "2"])
    assert code == 0
    assert (tmp_path / "envcache" / cache_key("A", 1, 2)).is_file()


def test_untagged_cache_file_is_ignored(capsys, tmp_path):
    """Files named as older versions wrote them, without the S-algorithm tag,
    as a full document under the algorithm tag alone, as S-only JSON, or as
    the key and S without a checksum, are neither read nor reported as
    corrupted."""
    argv = ["modular-data", "A1", "3", "--cache-dir", str(tmp_path)]
    md = modular_data("A1", 3)
    doc = modular_data_to_doc(md)
    old = {
        "A-1-3.json": b"{not json",
        "A-1-3.kpdet.json": canonical_json(doc).encode(),
        "A-1-3.kpdet.s-only.json": canonical_json(_projection(doc)).encode(),
        "A-1-3.kpdet.s-only.npy": _npy(np.array([ord("A"), 1, 3], dtype=np.int64), md.s_matrix),
    }
    for name, blob in old.items():
        (tmp_path / name).write_bytes(blob)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "corrupted" not in captured.err
    assert json.loads(captured.out)["payload"]["centralCharge"] == "9/5"
    assert (tmp_path / cache_key("A", 1, 3)).is_file()
    for name, blob in old.items():
        assert (tmp_path / name).read_bytes() == blob


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

    monkeypatch.setattr(affine, "modular_data_to_doc", counted)
    code, out = _run(capsys, ["modular-data", "A2", "3", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)["payload"]
    key, s, rest = _load_cache(tmp_path / cache_key("A", 2, 3))
    assert key.tolist() == [ord("A"), 2, 3, zlib.crc32(s.tobytes())] and rest == b""
    assert s.view(np.float64).tobytes() == np.array(payload["sMatrix"], dtype=np.float64).tobytes()


def test_hit_builds_one_document(capsys, tmp_path, monkeypatch):
    """A modular-data hit builds its document once, for the report, and
    saves the cache bytes once, to compare with the file; it reports what
    the miss reported."""
    argv = ["modular-data", "A2", "3", "--cache-dir", str(tmp_path)]
    _, miss = _run(capsys, argv)
    docs, blobs = [], []

    def counted_doc(md):
        docs.append(md)
        return modular_data_to_doc(md)

    def counted_bytes(md):
        blobs.append(md)
        return cache_bytes(md)

    cache_bytes = cache._cache_bytes
    monkeypatch.setattr(affine, "modular_data_to_doc", counted_doc)
    monkeypatch.setattr(cache, "_cache_bytes", counted_bytes)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""  # a hit, not a recompute
    assert len(docs) == 1
    assert len(blobs) == 1
    assert captured.out == miss


def per_element_doc(md):
    """The document built one element at a time, as the reference for the
    vectorised modular_data_to_doc."""
    fusion = dense(md.fusion, len(md))
    quads = [
        [int(i), int(j), int(k), int(fusion[i, j, k])]
        for i, j, k in sorted(zip(*np.nonzero(fusion)))
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
def test_z_is_the_sparse_entries_array(pic_of, name, k):
    """Z reaches the writer as the (m, 3) int64 array of its nonzero
    (i, j, Z_ij), in the order of a scan over the rows."""
    for alg in classify_algebras(pic_of(name, k)):
        z = reports._algebra_blob(alg, False)[0]["Z"]
        want = [[i, j, v] for i, row in enumerate(alg.partition.tolist())
                for j, v in enumerate(row) if v]
        assert z.dtype == np.int64 and z.shape == (len(want), 3)
        assert z.tolist() == want


def test_an_empty_entry_table_is_an_empty_list():
    buf = io.StringIO()
    jsonout.write(np.zeros((0, 3), dtype=np.int64), buf)
    assert buf.getvalue() == "[]\n"


@pytest.mark.parametrize("name,k", sorted(set(CATALOG) | set(BENCHMARK_MISSES)))
def test_cache_file_is_canonical_projection(md_of, tmp_path, name, k):
    """The cache file holds exactly two arrays: the int64 key with the CRC-32
    of S's bytes, and S, bit for bit (C3:6 and G2 carry -0.0)."""
    md = md_of(name, k)
    t = md.level_data.lie_type
    key, s, rest = _load_cache(cache.cache_store(tmp_path, md))
    assert key.dtype == np.int64
    assert key.tolist() == [ord(t.series), t.rank, k, zlib.crc32(md.s_matrix.tobytes())]
    assert s.dtype == np.complex128 and s.shape == md.s_matrix.shape
    assert s.tobytes() == md.s_matrix.tobytes()
    assert rest == b""
