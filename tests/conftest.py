import json
import warnings

import numpy as np
import pytest
from hypothesis import settings

from wzwkit.acceptance import CATALOG, Battery  # noqa: F401 (test modules import CATALOG from here)

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


def canonical_json(doc) -> str:
    """Compact, ASCII-only JSON of doc with each ndarray as its ``tolist()``:
    the byte oracle of the modular-data document tests."""
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True, default=np.ndarray.tolist)


@pytest.fixture(scope="session")
def md_of():
    """Modular data builder on selftest's memo: md_of('A1', 4)."""
    return Battery().md


@pytest.fixture(scope="session")
def pic_of():
    """Picard group builder on selftest's memo: pic_of('A1', 4)."""
    return Battery().pic

