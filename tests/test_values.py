"""Config and SimpleLieType, the two values a numpy-free CLI launch builds,
are immutable named tuples: equal and hash-equal by value, with the repr,
str and refusal messages they had as frozen dataclasses, refused alike when
made by ``_replace``, and a Config round-trips through the CLI's options."""

import copy
import math
import pickle

import pytest

from wzwkit import cli
from wzwkit.config import DEFAULT_CONFIG, Config
from wzwkit.errors import UnsupportedRank
from wzwkit.lietype import SimpleLieType, parse_lie_type

VALUES = [pytest.param(DEFAULT_CONFIG, id="config"), pytest.param(SimpleLieType("D", 4), id="lie-type")]


def test_repr_and_str_are_unchanged():
    assert repr(DEFAULT_CONFIG) == ("Config(tolerance=1e-08, integrality_tolerance=1e-06, "
                                    "weyl_cap=1000000, rank_cap=8, object_cap=400)")
    assert repr(SimpleLieType("D", 4)) == "SimpleLieType(series='D', rank=4)"
    assert str(SimpleLieType("D", 4)) == "D4"
    assert str(parse_lie_type(" e6 ")) == "E6"


@pytest.mark.parametrize("value", VALUES)
def test_values_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.other = 1  # no instance dict
    with pytest.raises(AttributeError):
        delattr(value, value._fields[-1])
    assert value == tuple(value)  # unchanged, and equal to the plain tuple of its fields


def test_values_compare_and_hash_by_value():
    same = Config(tolerance=1e-8, object_cap=400)
    assert same == DEFAULT_CONFIG and hash(same) == hash(DEFAULT_CONFIG)
    assert Config(tolerance=1e-9) != DEFAULT_CONFIG
    assert Config(rank_cap=7) != DEFAULT_CONFIG
    t = SimpleLieType("A", 3)
    assert parse_lie_type("a3") == t and hash(parse_lie_type("a3")) == hash(t)
    assert SimpleLieType("A", 2) != t and SimpleLieType("D", 3) != t
    assert len({t, parse_lie_type("A3"), SimpleLieType(series="A", rank=3)}) == 1
    assert len({DEFAULT_CONFIG, Config(), Config(1e-8, 1e-6, 10**6, 8, 400)}) == 1


@pytest.mark.parametrize("value", VALUES)
def test_values_survive_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)


@pytest.mark.parametrize("kwargs,message", [
    ({"tolerance": 0.0}, "tolerances must be positive and finite"),
    ({"tolerance": math.nan}, "tolerances must be positive and finite"),
    ({"integrality_tolerance": math.inf}, "tolerances must be positive and finite"),
    ({"integrality_tolerance": -1e-6}, "tolerances must be positive and finite"),
    ({"weyl_cap": 0}, "caps must be positive"),
    ({"rank_cap": -1}, "caps must be positive"),
    ({"object_cap": 0}, "caps must be positive"),
])
def test_config_refusals(kwargs, message):
    for make in (lambda: Config(**kwargs), lambda: DEFAULT_CONFIG._replace(**kwargs)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


@pytest.mark.parametrize("series,rank,message", [
    ("Q", 1, "unknown series 'Q'"),
    ("A", 0, "rank 0 invalid for series A"),
    ("D", 2, "rank 2 invalid for series D"),
    ("E", 9, "rank 9 invalid for series E"),
    ("G", 3, "rank 3 invalid for series G"),
])
def test_lie_type_refusals(series, rank, message):
    for make in (lambda: SimpleLieType(series, rank),
                 lambda: SimpleLieType("A", 1)._replace(series=series, rank=rank)):
        with pytest.raises(UnsupportedRank, match=f"^{message}$"):
            make()


def test_replace_makes_a_checked_value():
    tight = DEFAULT_CONFIG._replace(tolerance=1e-12)
    assert type(tight) is Config and tight == Config(tolerance=1e-12)
    e7 = SimpleLieType("E", 6)._replace(rank=7)
    assert type(e7) is SimpleLieType and str(e7) == "E7"


@pytest.mark.parametrize("options,want", [
    ([], DEFAULT_CONFIG),
    (["--tolerance", "1e-9", "--integrality-tolerance", "2e-5", "--weyl-cap", "50",
      "--rank-cap", "3", "--object-cap", "7"], Config(1e-9, 2e-5, 50, 3, 7)),
])
def test_config_round_trips_through_the_options(options, want):
    """Each field is one option, named after it, whose default is the field's."""
    parser = cli._build_parser()
    for command in (["modular-data", "A1", "3"], ["selftest"]):
        args = parser.parse_args([*command, *options])
        config, _ = cli._validate(args)
        assert type(config) is Config and config == want
        assert [getattr(args, name) for name in Config._fields] == list(want)
    assert dict(zip(Config._fields, Config())) == Config._field_defaults
