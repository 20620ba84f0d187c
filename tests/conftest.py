import json

import numpy as np
import pytest
from hypothesis import settings

from wzwkit import find_simple_currents
from wzwkit.acceptance import CATALOG, Battery  # noqa: F401 (test modules import CATALOG from here)

# Property tests draw the same examples on every run and never time out, so
# the suite stays deterministic.
settings.register_profile("wzwkit", derandomize=True, deadline=None, database=None)
settings.load_profile("wzwkit")

_pic_cache = {}


def canonical_json(doc) -> str:
    """Compact, ASCII-only JSON of doc with each ndarray as its ``tolist()``:
    the byte oracle of the modular-data document tests."""
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True, default=np.ndarray.tolist)


@pytest.fixture(scope="session")
def md_of():
    """Modular data builder on selftest's memo: md_of('A1', 4)."""
    return Battery().md


@pytest.fixture(scope="session")
def pic_of(md_of):
    """Session-cached Picard group builder: pic_of('A1', 4)."""

    def build(name, level):
        key = (name, level)
        if key not in _pic_cache:
            _pic_cache[key] = find_simple_currents(md_of(name, level))
        return _pic_cache[key]

    return build

