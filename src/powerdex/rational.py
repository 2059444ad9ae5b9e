"""Exact rational arithmetic helpers and row-major table addressing.

Grid coordinates, step-game values and exact index shares in this package
are `fractions.Fraction` values, which are always stored in lowest terms with
a positive denominator and never round.  Tables over 2^N (coalition tables,
C-tables on their way to the combine kernel) and the share shifts of box
increments are integer numerators over one common denominator instead, with
a ``Fraction`` built only where a value is read or written out.  Floating
point appears only in the Monte-Carlo estimator.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial, lcm
from operator import add, le, mul
from typing import Iterable, Sequence

MAX_PLAYERS = 20

_RATIONAL = re.compile(r"[+-]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


def check_players(n: int) -> None:
    """Reject a player count outside 1..MAX_PLAYERS, before any table over
    2^N or any grid is allocated."""
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}")


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a rational from a "p/q" (or plain integer / decimal) string.

    No other form is read: ``Fraction`` would also take exponent notation,
    and "1e999999999" makes it compute a billion-digit power of ten.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise TypeError(f"{text!r} is not a rational: write a p/q, integer "
                        "or plain decimal string, or an integer")
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational: write p/q, an integer "
                         "or a plain decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def format_rational(value: Fraction) -> str:
    """Serialize to the canonical "p/q" form ("3/4", "-1/3", "1", "0")."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def on_one_denominator(xs: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The numerators of ``xs``, ints or ``Fraction``s, over their least
    common denominator, and that denominator."""
    if set(map(type, xs)) <= {int}:
        return list(xs), 1
    den = lcm(*{x.denominator for x in xs})
    return [x.numerator * (den // x.denominator) for x in xs], den


def strides(size: int, n: int) -> list[int]:
    """The strides of a (size,)^n table stored row-major, first coordinate
    slowest: the entry with digits d sits at ``index_of(d, strides)``, and
    ``digits_of`` reads the digits of a position back."""
    return [size ** (n - 1 - i) for i in range(n)]


def index_of(digits: Iterable[int], strides: Sequence[int]) -> int:
    return sum(map(mul, digits, strides))


def digits_of(k: int, size: int, strides: Sequence[int]) -> list[int]:
    return [k // s % size for s in strides]


def positions(axes: Iterable[Sequence[int]], strides: Sequence[int]) -> list[int]:
    """``index_of`` of every digit tuple of ``itertools.product(*axes)``:
    from the last axis on, each repeats the table shifted once per digit."""
    at = [0]
    for axis, s in reversed([*zip(axes, strides)]):
        at = [*itertools.chain.from_iterable(
            map(add, at, itertools.repeat(d * s)) for d in axis)]
    return at


def nondecreasing_along(nums: Sequence[int], stride: int, size: int,
                        op=le) -> bool:
    """Whether a row-major integer table never falls along one axis, or
    with ``op=eq`` never changes along it.

    The axis has ``size`` entries, ``stride`` apart: op(nums[k], nums[k +
    stride]) for every k whose coordinate (k // stride) % size on it is
    below size - 1.  Compared in slices, either one per block of
    size * stride entries or one per offset into such a block, whichever
    takes fewer.
    """
    block = stride * size
    lows = stride * (size - 1)
    if lows <= len(nums) // block:
        pairs = ((nums[k::block], nums[k + stride::block]) for k in range(lows))
    else:
        pairs = ((nums[lo:lo + lows], nums[lo + stride:lo + block])
                 for lo in range(0, len(nums), block))
    return all(all(map(op, a, b)) for a, b in pairs)


def ordering_weight(s: int, n: int) -> Fraction:
    """(s-1)!(n-s)!/n!, the share of orderings placing a fixed coalition of
    size s as the head set with a fixed last member."""
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return Fraction(factorial(s - 1) * factorial(n - s), factorial(n))


def loss_constant(s: int, n: int) -> Fraction:
    """s!(n-s-1)!/n!: per-outsider loss rate against a coalition of size s."""
    if not 0 <= s <= n - 1:
        raise ValueError(f"need 0 <= s <= n-1, got s={s}, n={n}")
    return Fraction(factorial(s) * factorial(n - s - 1), factorial(n))
