"""Each command loads only the modules it uses, a launch that only prints
help or refuses its input never loads numpy, ``dataclasses``, ``inspect``
or the report builders, every public name of the package still resolves
through its lazy re-exports, and only the CLI sets BLAS to one thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wzwkit

SRC = Path(wzwkit.__file__).resolve().parents[1]

# Runs one query twice (a cache miss, then a hit) in a fresh interpreter and
# prints the wzwkit modules it loaded; the hit must not find the file the
# miss wrote corrupted.
LOADED = """
import io, json, sys
from contextlib import redirect_stdout
from wzwkit import cli
for _ in range(2):
    with redirect_stdout(io.StringIO()):
        assert cli.run(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("wzwkit"))))
"""


def _loaded(tmp_path, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", LOADED, *argv, "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert done.stderr == ""
    return set(json.loads(done.stdout))


@pytest.mark.parametrize("argv,absent", [
    (["modular-data", "A1", "3"],
     {"picard", "schellekens", "boundary", "bimodule", "twining", "groups", "acceptance"}),
    (["picard", "A1", "3"], {"schellekens", "bimodule", "boundary", "twining"}),
    (["invariants", "A1", "4"], {"boundary", "bimodule", "twining"}),
])
def test_command_loads_only_its_modules(tmp_path, argv, absent):
    loaded = _loaded(tmp_path, *argv)
    assert "wzwkit.cli" in loaded
    assert not loaded & {f"wzwkit.{name}" for name in absent}


# Runs one launch in a fresh interpreter and prints its exit code, which of
# the watched modules it added to a bare interpreter's, and which of them a
# bare interpreter lacks.
WATCHED = """
import sys
watched = {"numpy", "dataclasses", "inspect", "wzwkit.reports"}
bare = set(sys.modules)
import io, json
from contextlib import redirect_stderr, redirect_stdout
from wzwkit import cli
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(watched & set(sys.modules) - bare), sorted(watched - bare)]))
"""


@pytest.mark.parametrize("argv,code,numpy", [
    pytest.param(["--help"], 0, False, id="help"),
    pytest.param(["modular-data", "--help"], 0, False, id="command-help"),
    pytest.param(["modular-data", "A1"], 2, False, id="usage-error"),
    pytest.param(["modular-data", "Q1", "2"], 2, False, id="unknown-series"),
    pytest.param(["modular-data", "A5", "2", "--rank-cap", "4"], 2, False, id="rank-cap"),
    pytest.param(["modular-data", "A1", "0"], 2, False, id="level-0"),
    pytest.param(["modular-data", "E7", "2"], 2, False, id="weyl-cap"),
    pytest.param(["modular-data", "A1", "1500"], 2, False, id="object-cap"),
    pytest.param(["modular-data", "A1", "3"], 0, True, id="computing"),
])
def test_only_a_computing_launch_loads_numpy(tmp_path, argv, code, numpy):
    """A launch that ends before numpy loads only the front door: numpy,
    dataclasses, inspect and the report builders are all first imported by
    a computing launch."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "WZWKIT_CACHE_DIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", WATCHED, *argv],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    got, added, missing = json.loads(done.stdout)
    assert got == code
    assert "numpy" in missing and "wzwkit.reports" in missing
    assert added == (missing if numpy else [])


def test_every_public_name_resolves():
    for name in wzwkit.__all__:
        assert getattr(wzwkit, name) is not None, name
    assert set(wzwkit.__all__) <= set(dir(wzwkit))
    assert wzwkit.modular_data is wzwkit.affine.modular_data
    with pytest.raises(AttributeError):
        wzwkit.no_such_name


def test_star_import_binds_all():
    namespace = {}
    exec("from wzwkit import *", namespace)
    assert set(wzwkit.__all__) <= set(namespace)


# Imports one module in a fresh interpreter, runs its `run` on the further
# arguments if any are given, and prints the BLAS thread setting it leaves
# and the number of threads the process then runs.
BLAS = """
import importlib, io, json, os, sys
from contextlib import redirect_stdout
module = importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    with redirect_stdout(io.StringIO()):
        assert module.run(sys.argv[2:]) == 0
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


def _blas_after_import(module, *argv, preset=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", BLAS, module, *argv],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(done.stdout)


def test_cli_runs_blas_on_one_thread():
    # a computing command, so that numpy and OpenBLAS are loaded
    setting, tasks = _blas_after_import("wzwkit.cli", "modular-data", "A1", "3", "--no-cache")
    assert setting == "1"
    if sys.platform.startswith("linux"):
        assert tasks == 1


def test_cli_keeps_the_users_blas_threads():
    assert _blas_after_import("wzwkit.cli", preset="2")[0] == "2"


def test_library_leaves_blas_threads_alone():
    assert _blas_after_import("wzwkit.affine")[0] is None
