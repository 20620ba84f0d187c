"""Print, as one JSON line, the Python, numpy and BLAS that wzwkit queries use.

The BLAS thread count is the library's own default under the caller's
environment; nothing here sets it.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

import numpy as np

# Symbol names under which OpenBLAS builds export their thread-count getter.
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in _GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def main() -> None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main()
