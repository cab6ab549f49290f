"""Decimal strings of integers and rationals of any size, and long literals."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from gaussmap.errors import InvalidIndex
from gaussmap.rationals import (
    int_to_string,
    random_branch_points,
    random_direction,
    rat_from_string,
    rat_to_string,
)

LIMIT = 10**4300
HUGE = (
    LIMIT - 1,
    -(LIMIT - 1),
    LIMIT,
    -LIMIT,
    2**20000,
    -(2**20000) + 1,
    987654321 * (10**9000 - 1) // (10**9 - 1),  # "987654321" 1,000 times
    10**640,
    2**2000,
    2**2001 - 1,
    10**9001 + 10**4500,
)


def reference(n):
    """Digits by `decimal.Decimal`, which has no digit limit on integers."""
    return str(Decimal(n))


def bits(n):
    return f"{'-' if n < 0 else ''}{n.bit_length()}bits"


@pytest.mark.parametrize("n", HUGE + (0, 1, -1, 10**18, -(2**1999)), ids=bits)
def test_int_to_string_is_str_without_the_digit_limit(n):
    assert int_to_string(n) == reference(n)
    if getattr(sys, "get_int_max_str_digits", int)() and len(reference(abs(n))) > 4300:
        with pytest.raises(ValueError):
            str(n)


@pytest.mark.parametrize("num", HUGE[:7], ids=bits)
@pytest.mark.parametrize("den", (1, 3, 2**20000, LIMIT + 1, 10**9000 - 1), ids=bits)
def test_rat_to_string_of_huge_fractions(num, den):
    value = Fraction(num, den)
    expected = reference(value.numerator)
    if value.denominator != 1:
        expected += "/" + reference(value.denominator)
    assert rat_to_string(value) == expected


def test_rat_to_string_keeps_small_values():
    assert rat_to_string(Fraction(-3, 4)) == "-3/4"
    assert rat_to_string(Fraction(10)) == "10" and rat_to_string(0) == "0"


def test_an_over_long_literal_is_refused_by_its_digit_count():
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    text = "7" * (limit + 700) + "/3"
    with pytest.raises(InvalidIndex) as info:
        rat_from_string(text)
    message = str(info.value)
    assert f"has {limit + 700} digits, over the limit of {limit}" in message
    assert len(message) < 120
    with pytest.raises(InvalidIndex, match="not a rational literal: '1/x'"):
        rat_from_string("1/x")
    assert rat_from_string(" 12/8 ") == Fraction(3, 2)


def randint_direction(rng, length, redraws):
    """The draw with `randint`, as documented: numerators on [-20, 20],
    denominators on [1, 10], an all-zero vector drawn again."""
    while True:
        vec = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(length))
        if any(vec):
            return vec
        redraws.append(length)


def test_random_direction_draws_the_randint_stream():
    redraws = []
    for seed in range(5):
        for length in range(1, 7):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(40):
                assert random_direction(ours, length) == randint_direction(theirs, length, redraws)
            assert ours.getstate() == theirs.getstate()
    assert 1 in redraws  # a length-1 draw was all zero and drawn again


@pytest.mark.parametrize(
    ("seed", "genus", "drawn"),
    [
        (55, 3, "0 -3 -31/48 -2 15/4 -5/47 34/31 19/25"),  # -12/6 = -2 redrawn
        (96, 3, "0 -1/7 18/13 -24/7 -1 -48/11 1/21 -5/3"),  # -7/49 = -1/7 redrawn
        (1, 4, "0 -33/37 47/5 -9/4 13/49 7/31 33/25 25/7 -19/16 -47/25"),
        (2, 5, "0 -43/6 -5/3 -29/48 7/4 -6/13 -23/39 -23/19 37/11 5/41 5/8 19/29"),
    ],
)
def test_seeded_branch_points_are_pinned(seed, genus, drawn):
    points = random_branch_points(random.Random(seed), genus)
    assert all(type(t) is Fraction for t in points)
    assert " ".join(map(rat_to_string, points)) == drawn
