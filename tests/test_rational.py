"""Exact rational text and the common-denominator integer form."""

from fractions import Fraction

import pytest

from wregret.rational import as_integers, exact, format_map

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
