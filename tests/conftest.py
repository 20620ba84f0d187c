import json
import warnings

import numpy as np
import pytest
from hypothesis import settings

from wzwkit.acceptance import CATALOG, md  # noqa: F401 (test modules import CATALOG from here)
from wzwkit.config import DEFAULT_CONFIG

# Property tests draw the same examples on every run and never time out, so
# the suite stays deterministic.
settings.register_profile("wzwkit", derandomize=True, deadline=None, database=None)
settings.load_profile("wzwkit")

# On a failing example Hypothesis imports this module, which imports libcst,
# whose import warns (DeprecationWarning from mypy_extensions).  Under the
# suite's filterwarnings = error that warning would end the whole session in
# INTERNALERROR, so the module is imported once here with it ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst or no such module: nothing to preload
        pass

def t_matrix(md):
    """Diagonal T = exp(2 pi i (h - c/24)) as a dense matrix."""
    phases = np.exp(2j * np.pi * np.array([float(x) for x in md.t_exponents]))
    return np.diag(phases)


def dense(table, n):
    """The (n, n, n) int64 array of a rank-n ring held as its (m, 4) table of
    nonzero (i, j, k, N_ij^k)."""
    out = np.zeros((n, n, n), dtype=np.int64)
    i, j, k, v = table.T
    out[i, j, k] = v
    return out


def quadruples(a):
    """The nonzero entries of an int64 array as the int64 rows (index..., value),
    in C order, so sorted by index: the inverse of ``dense``."""
    idx = np.argwhere(a)
    return np.column_stack((idx, a[tuple(idx.T)]))


def assert_sorted_symmetric_table(table, n):
    """A rank-n ring's table has int64 rows (i, j, k, N) with nonzero N, its
    keys (i, j, k) strictly increasing (sorted, no key twice), and holds
    (j, i, k, N) whenever it holds (i, j, k, N)."""
    assert table.dtype == np.int64 and table.ndim == 2 and table.shape[1] == 4
    assert ((table[:, :3] >= 0) & (table[:, :3] < n)).all() and (table[:, 3] != 0).all()
    key = (table[:, 0] * n + table[:, 1]) * n + table[:, 2]
    assert (np.diff(key) > 0).all()
    mirrored = table[:, [1, 0, 2, 3]]
    assert np.array_equal(mirrored[np.lexsort(mirrored[:, 2::-1].T)], table)


def canonical_json(doc) -> str:
    """Compact, ASCII-only JSON of doc with each ndarray as its ``tolist()``:
    the byte oracle of the modular-data document tests."""
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True, default=np.ndarray.tolist)


@pytest.fixture(scope="session")
def md_of():
    """Modular data on selftest's memo: md_of('A1', 4)."""
    return lambda name, level: md(name, level, DEFAULT_CONFIG)


@pytest.fixture(scope="session")
def pic_of():
    """The Picard group each datum of selftest's memo holds: pic_of('A1', 4)."""
    return lambda name, level: md(name, level, DEFAULT_CONFIG).picard

