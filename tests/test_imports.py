"""Each command loads only the modules it uses, every public name of the
package still resolves through its lazy re-exports, and only the CLI sets
BLAS to one thread."""

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
    (["picard", "A1", "3"], {"bimodule", "boundary", "twining"}),
])
def test_command_loads_only_its_modules(tmp_path, argv, absent):
    loaded = _loaded(tmp_path, *argv)
    assert "wzwkit.cli" in loaded
    assert not loaded & {f"wzwkit.{name}" for name in absent}


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


# Imports one module in a fresh interpreter and prints the BLAS thread
# setting it leaves and the number of threads the process then runs.
BLAS = """
import importlib, json, os, sys
importlib.import_module(sys.argv[1])
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


def _blas_after_import(module, preset=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", BLAS, module],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(done.stdout)


def test_cli_runs_blas_on_one_thread():
    setting, tasks = _blas_after_import("wzwkit.cli")
    assert setting == "1"
    if sys.platform.startswith("linux"):
        assert tasks == 1


def test_cli_keeps_the_users_blas_threads():
    assert _blas_after_import("wzwkit.cli", preset="2")[0] == "2"


def test_library_leaves_blas_threads_alone():
    assert _blas_after_import("wzwkit.affine")[0] is None
