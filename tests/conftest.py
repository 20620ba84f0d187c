import pytest
from hypothesis import settings

from wzwkit import find_simple_currents, modular_data

# Property tests draw the same examples on every run and never time out, so
# the suite stays deterministic.
settings.register_profile("wzwkit", derandomize=True, deadline=None, database=None)
settings.load_profile("wzwkit")

_md_cache = {}
_pic_cache = {}


@pytest.fixture(scope="session")
def md_of():
    """Session-cached modular data builder: md_of('A1', 4)."""

    def build(name, level):
        key = (name, level)
        if key not in _md_cache:
            _md_cache[key] = modular_data(name, level)
        return _md_cache[key]

    return build


@pytest.fixture(scope="session")
def pic_of(md_of):
    """Session-cached Picard group builder: pic_of('A1', 4)."""

    def build(name, level):
        key = (name, level)
        if key not in _pic_cache:
            _pic_cache[key] = find_simple_currents(md_of(name, level))
        return _pic_cache[key]

    return build


CATALOG = (
    [("A1", k) for k in range(1, 9)]
    + [("A2", k) for k in range(1, 6)]
    + [("A3", k) for k in range(1, 4)]
    + [("B2", k) for k in range(1, 5)]
    + [("G2", k) for k in range(1, 5)]
    + [("D4", k) for k in range(1, 3)]
)
