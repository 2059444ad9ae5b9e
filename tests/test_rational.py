import random
from fractions import Fraction
from math import prod

import pytest

from powerdex.rational import (format_rational, loss_constant,
                               nondecreasing_along, ordering_weight,
                               parse_rational)


def test_parse_and_format_round_trip():
    for text in ["9/16", "-1/3", "0", "1", "7/12"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_decimal_strings():
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational(3) == 3


def test_arithmetic_is_exact_against_cross_multiplication():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = rng.randrange(-500, 500), rng.randrange(1, 500)
        c, d = rng.randrange(-500, 500), rng.randrange(1, 500)
        total = Fraction(a, b) + Fraction(c, d)
        assert total.numerator * (b * d) == (a * d + c * b) * total.denominator


def test_fractions_stay_in_lowest_terms():
    x = Fraction(2, 4) + Fraction(4, 8)
    assert (x.numerator, x.denominator) == (1, 1)
    assert Fraction(-3, -6) == Fraction(1, 2)


def test_ordering_weights():
    assert ordering_weight(1, 3) == Fraction(1, 3)
    assert ordering_weight(2, 3) == Fraction(1, 6)
    assert ordering_weight(3, 3) == Fraction(1, 3)
    # the weights sum to 1 over head sets with a fixed last member
    for n in range(1, 8):
        total = sum(ordering_weight(s, n) * _choose(n - 1, s - 1)
                    for s in range(1, n + 1))
        assert total == 1


def _choose(n, k):
    from math import comb
    return comb(n, k)


def test_gain_loss_constants_balance():
    # s members gain what n-s outsiders lose
    for n in range(2, 9):
        for s in range(1, n):
            assert s * ordering_weight(s, n) == (n - s) * loss_constant(s, n)


def test_constant_domain_errors():
    with pytest.raises(ValueError):
        ordering_weight(0, 3)
    with pytest.raises(ValueError):
        loss_constant(3, 3)


@pytest.mark.parametrize("value", [True, 0.5, 1e-7, None])
def test_parse_rational_refuses_what_is_not_a_string_or_integer(value):
    # a float used to be read through str(): 0.5 as 1/2, 1e-07 refused
    with pytest.raises(TypeError, match="is not a rational"):
        parse_rational(value)


@pytest.mark.parametrize("shape", [(1,), (4,), (2, 3), (3, 1, 2), (2, 2, 2, 2),
                                   (5, 4), (1, 6, 1)])
def test_nondecreasing_along_matches_pairwise_oracle(shape):
    # a row-major table, last axis fastest: sorted, then one entry moved,
    # so both verdicts occur
    rng = random.Random(sum(shape))
    size = prod(shape)
    for _ in range(200):
        nums = sorted(rng.randrange(4) for _ in range(size))
        if rng.random() < 0.7:
            nums[rng.randrange(size)] += rng.choice((-1, 1))
        for axis, m in enumerate(shape):
            stride = prod(shape[axis + 1:])
            expected = all(nums[k] <= nums[k + stride] for k in range(size)
                           if k // stride % m < m - 1)
            assert nondecreasing_along(nums, stride, m) == expected
