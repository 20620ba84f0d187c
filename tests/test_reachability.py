"""Every function of the library serves a CLI report.

One fresh interpreter records every Python function called, from before
``import wzwkit.cli`` on (so the calls made while the modules load count),
through every algebra command in JSON and ``--pretty``, on a cold and then a
warm cache, ``invariants --latex``, ``selftest``, input refusals and one
launch that finds its cache directory through ``WZWKIT_CACHE_DIR``.  A
``def`` in ``src/wzwkit`` that none of them calls is either deleted, moved
into the tests as an oracle, or named in the allowlist below with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import wzwkit

PACKAGE = Path(wzwkit.__file__).resolve().parent

# Unreached on purpose, as (module, qualified name).
ALLOWED = {
    # the console entry point: it ends the process, so the scan calls run()
    ("cli", "main"),
    # part of the module protocol (dir(wzwkit)), not of any report
    ("__init__", "__dir__"),
    # no report enumerates W, but the benchmark's tracer binds both by name
    ("affine", "weyl_group"),
    ("affine", "WeylGroup.__len__"),
}

COMMANDS = ("modular-data", "picard", "invariants", "boundaries", "bimodules", "twining",
            "verify-conjecture")
ALGEBRAS = (("A1", "4"), ("A3", "2"), ("D4", "2"))

# Prints the exit code of each launch and the (file, first line) of every
# code object called, from the import of the CLI on.
SCAN = """
import io, json, sys
seen = set()
def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(profile)
from contextlib import redirect_stderr, redirect_stdout
from wzwkit import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.run(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted({(c.co_filename, c.co_firstlineno) for c in seen})]))
"""


def _launches(cache_dir: str) -> tuple[list[list[str]], list[int]]:
    """The scanned launches and the exit code each must give."""
    launches = [["modular-data", "A1", "3"]]  # no cache flag: WZWKIT_CACHE_DIR
    for alg in ALGEBRAS:
        for flags in ([], ["--pretty"]):  # the first launch on an algebra misses, the rest hit
            launches += [[cmd, *alg, "--cache-dir", cache_dir, *flags] for cmd in COMMANDS]
    launches += [
        ["invariants", "A1", "4", "--latex", "--pretty", "--no-cache"],
        ["selftest"],
        ["selftest", "--pretty"],
        ["modular-data", "E7", "2"],  # refused before any cache read
        ["modular-data", "A1"],  # usage error
    ]
    return launches, [0] * (len(launches) - 2) + [2, 2]


def _defs() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line of its code object) -> (module, qualified name) of
    every def in the package; a decorated def's code starts at its first
    decorator."""
    out = {}

    def walk(node, prefix, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(str(path), line)] = (module, prefix + child.name)
                walk(child, f"{prefix}{child.name}.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path, module)
            else:
                walk(child, prefix, path, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path, path.stem)
    return out


def test_every_function_is_reached_by_a_report(tmp_path):
    launches, codes = _launches(str(tmp_path / "cache"))
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent),
           "WZWKIT_CACHE_DIR": str(tmp_path / "env-cache")}
    done = subprocess.run([sys.executable, "-c", SCAN, json.dumps(launches)],
                          capture_output=True, text=True, env=env, check=True, timeout=300)
    got_codes, called = json.loads(done.stdout)
    assert got_codes == codes
    assert (tmp_path / "env-cache").is_dir()
    defs = _defs()
    reached = {defs[(file, line)] for file, line in called if (file, line) in defs}
    assert set(defs.values()) - reached == ALLOWED
