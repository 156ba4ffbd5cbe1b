"""Exact rational text, the common-denominator integer form and the one
exact-vector type with its subclasses."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from wregret import Lottery, Measure, SubProbabilityVector, UtilitySpec
from wregret.rational import (
    IntVector, as_integers, exact, format_decimal, format_map, over_common, parse_rational,
)

F = Fraction


def test_as_integers_mixes_ints_and_fractions():
    assert as_integers([[1, F(1, 2)], [F(-2, 3), 0]]) == (6, [(6, 3), (-4, 0)])


def test_as_integers_takes_rows_of_unequal_length():
    assert as_integers([[F(1, 4)], [], [2, F(5, 6), 1]]) == (12, [(3,), (), (24, 10, 12)])


def test_as_integers_of_no_rows_is_one_over_one():
    assert as_integers([]) == (1, [])


def test_format_map_keeps_order_and_lowest_terms():
    assert format_map([("b", F(2, 4)), ("a", 3)]) == "{ b: 1/2, a: 3/1 }"
    assert format_map([]) == "{  }"


@pytest.mark.parametrize("value, text", [
    (F(2, 3), "0.666667"),
    (F(-2, 3), "-0.666667"),
    (F(1, 2000000), "0.000001"),  # a tie rounds away from zero
    (F(-1, 2000000), "-0.000001"),
    (F(-1, 3000000), "0.000000"),  # rounds to zero, so no sign
])
def test_format_decimal_rounds_to_nearest_ties_away_from_zero(value, text):
    assert format_decimal(value) == text


def test_exact_takes_ints_fractions_and_strings_only():
    assert [exact(v, "value") for v in (3, F(1, 2), "0.25", "-2/4")] == [3, F(1, 2), F(1, 4), F(-1, 2)]
    half = F(1, 2)
    assert exact(half, "value") is half
    with pytest.raises(TypeError, match="^weight 0.5 is not an int, a Fraction or a string$"):
        exact(0.5, "weight")
    with pytest.raises(TypeError, match="^utility None for prize 'z' is not"):
        exact(None, "utility", "z", "prize")
    with pytest.raises(TypeError, match="^mass 0.1 for state 's' is not"):
        exact(0.1, "mass", "s")


# strings with one reading, and strings that are not rational literals
LITERALS = {
    "1/2": F(1, 2), "-2/4": F(-1, 2), "+3": F(3), " 1 / 2 ": F(1, 2), "1\t/\t2": F(1, 2),
    "0.25": F(1, 4), "12.": F(12), ".5": F(1, 2), "-.5": F(-1, 2), "007": F(7), "\u0663/\u0664": F(3, 4),
    "1/0": None, "0/0": None, "1e3": None, "1_000": None, "1.5/2": None, "1/\n2": None, "": None,
    "- 1": None, "1/-2": None, "inf": None, "nan": None, ".": None, "1//2": None,
}


@pytest.mark.parametrize("text", LITERALS)
def test_exact_reads_a_string_as_parse_rational_does(text):
    expected = LITERALS[text]
    if expected is None:
        with pytest.raises(ValueError):
            parse_rational(text)
        with pytest.raises(ValueError):
            exact(text, "value")
    else:
        assert parse_rational(text) == exact(text, "value") == expected


def test_a_zero_denominator_is_a_value_error_everywhere():
    with pytest.raises(ValueError, match="^zero denominator: '1 / 0'$"):
        parse_rational(" 1 / 0")
    with pytest.raises(ValueError, match="^zero denominator: '1/0'$"):
        Measure({"a": "1/0", "b": 1})


def test_over_common_scales_to_the_lcm_and_keeps_rows_already_over_it():
    half, thirds = IntVector({"a": F(1, 2), "b": 0}), IntVector({"a": F(-2, 3), "b": F(1, 3)})
    assert over_common([half, thirds]) == (6, [(3, 0), (-4, 2)])
    assert over_common([thirds])[1][0] is thirds.numerators
    assert over_common([]) == (1, [])


# -- the IntVector contract, for the base class and every subclass -------------

KEYS = ("a", "b", "c", "d")


def _values(rng: random.Random, signed: bool) -> list[Fraction]:
    """Rationals over mixed denominators, with zeros (and negatives if signed)."""
    low = -6 if signed else 0
    return [F(rng.choice([0, rng.randint(low, 6)]), rng.choice([1, 2, 3, 4, 6, 10])) for _ in KEYS]


def _probabilities(rng: random.Random) -> list[Fraction]:
    values = _values(rng, signed=False)
    while not any(values):
        values = _values(rng, signed=False)
    return [v / sum(values) for v in values]


MAKERS = {
    IntVector: lambda rng: _values(rng, signed=True),
    UtilitySpec: lambda rng: _values(rng, signed=True),
    Measure: _probabilities,
    Lottery: _probabilities,
    SubProbabilityVector: lambda rng: [p * F(rng.randint(0, 4), 4) for p in _probabilities(rng)],
}


def _seeded(cls, seed: int) -> dict:
    rng = random.Random(seed)
    values = MAKERS[cls](rng)
    while cls is UtilitySpec and len(set(values)) < 2:
        values = MAKERS[cls](rng)
    return dict(zip(KEYS, values))


def _spelled_otherwise(values: dict) -> dict:
    """The same values, keys in reverse order, as unreduced strings."""
    return {k: f"{2 * v.numerator}/{2 * v.denominator}" for k, v in reversed(values.items())}


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda cls: cls.__name__)
class TestIntVectorContract:
    def test_equality_and_hash_follow_the_fraction_items(self, cls):
        vectors = [cls(_seeded(cls, seed)) for seed in range(40)]
        for seed, x in enumerate(vectors):
            twin = cls(_spelled_otherwise(_seeded(cls, seed)))
            assert twin == x and hash(twin) == hash(x) and twin.items() == x.items()
            assert all(type(v) is Fraction for _, v in x.items())
            assert x.denominator > 0 and all(type(n) is int for n in x.numerators)
            for y in vectors:
                assert (x == y) == (x.items() == y.items())
                assert x != y or hash(x) == hash(y)
                assert y == cls.from_ints(y.keys, [3 * n for n in y.numerators], 3 * y.denominator)

    def test_reads_build_the_exact_values(self, cls):
        for seed in range(20):
            values = _seeded(cls, seed)
            x = cls(values)
            kept = {k: v for k, v in values.items() if v or cls is not Lottery}
            assert x.items() == tuple(sorted(kept.items())) and x.keys == tuple(sorted(kept))
            assert x.total() == sum(kept.values())
            assert repr(x) == f"{cls.__name__}({{{', '.join(f'{k}: {v.numerator}/{v.denominator}' for k, v in sorted(kept.items()))}}})"
            if cls is not UtilitySpec:  # a table's [prize] is the utility of the sure lottery
                assert all(x[k] == v for k, v in kept.items())

    def test_pickle_copy_and_deepcopy_round_trip(self, cls):
        for seed in range(10):
            x = cls(_seeded(cls, seed))
            x.items()  # the Fractions built on read are rebuilt, not carried
            for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(twin) is cls and twin == x and hash(twin) == hash(x)
                assert twin.items() == x.items()

    def test_no_attribute_can_be_set_or_deleted(self, cls):
        x = cls(_seeded(cls, 0))
        for name in ("keys", "numerators", "denominator", "_items", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == cls(_seeded(cls, 0))


def test_a_vector_equals_only_its_own_type():
    values = {"a": F(1, 3), "b": F(2, 3)}
    vectors = [cls(values) for cls in MAKERS]
    assert len(set(vectors)) == len(vectors)
    assert all(x != y for i, x in enumerate(vectors) for y in vectors[i + 1:])


@pytest.mark.parametrize("vector", [
    Measure({"a": F(1, 2), "x": F(1, 2)}),
    Lottery({"a": F(1, 2), "x": F(1, 2)}),
    UtilitySpec({"a": 1, "x": 0}),
    SubProbabilityVector({"a": F(1, 2), "x": 0}),
], ids=lambda vector: type(vector).__name__)
def test_iteration_and_membership_raise_type_error(vector):
    # `[key]` takes labels, so neither may fall back to indexing by 0, 1, ...
    # (which raised KeyError, or UnknownPrize, a domain error, for a utility table)
    for use in (lambda: iter(vector), lambda: list(vector), lambda: "a" in vector, lambda: 0 in vector):
        with pytest.raises(TypeError, match="not iterable"):
            use()


def test_a_zero_probability_prize_is_not_part_of_a_lottery():
    assert Lottery({"a": 1, "b": 0}) == Lottery({"a": 1})
    assert Lottery({"a": 1, "b": 0}).keys == ("a",)
    assert Lottery.from_ints(("a", "b"), (2, 0), 2) == Lottery({"a": 1})


def test_from_ints_reduces_and_checks_like_the_constructor():
    assert Measure.from_ints(("a", "b"), (2, 2), 4).numerators == (1, 1)
    with pytest.raises(ValueError, match="sum to 2/1"):
        Measure.from_ints(("a", "b"), (1, 1), 1)
    with pytest.raises(ValueError, match="sorted"):
        Measure.from_ints(("b", "a"), (1, 1), 2)
    with pytest.raises(TypeError):
        IntVector.from_ints(("a",), (0.5,), 1)
    with pytest.raises(ValueError, match="denominator > 0"):
        IntVector.from_ints(("a",), (1,), 0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Measure({"a": 0.5, "b": 0.5}), TypeError,
     "probability 0.5 for state 'a' is not an int, a Fraction or a string"),
    (lambda: Lottery({"a": 0.5, "b": 0.5}), TypeError,
     "probability 0.5 for prize 'a' is not an int, a Fraction or a string"),
    (lambda: UtilitySpec({"a": 0.1, "b": 1}), TypeError,
     "utility 0.1 for prize 'a' is not an int, a Fraction or a string"),
    (lambda: SubProbabilityVector({"a": 0.1}), TypeError,
     "mass 0.1 for state 'a' is not an int, a Fraction or a string"),
    (lambda: Measure({"a": F(3, 2), "b": F(-1, 2)}), ValueError, "negative probability -1/2 for state 'b'"),
    (lambda: Lottery({"a": F(3, 2), "b": F(-1, 2)}), ValueError, "negative probability -1/2 for prize 'b'"),
    (lambda: SubProbabilityVector({"a": F(-1, 2)}), ValueError, "negative mass -1/2 for state 'a'"),
    (lambda: Measure({"a": F(1, 2), "b": F(1, 3)}), ValueError, "probabilities sum to 5/6, expected 1/1"),
    (lambda: Lottery({"a": F(1, 2), "b": F(1, 3)}), ValueError, "lottery probabilities sum to 5/6, expected 1/1"),
    (lambda: Lottery({}), ValueError, "lottery probabilities sum to 0/1, expected 1/1"),
    (lambda: SubProbabilityVector({"a": F(2, 3), "b": F(1, 2)}), ValueError, "sub-probability mass exceeds 1"),
    (lambda: UtilitySpec({"y": 1, "z": "1/1"}), ValueError, "a utility table needs two prizes with distinct utilities"),
])
def test_error_types_and_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
