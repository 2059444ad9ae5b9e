"""Exact rational arithmetic helpers.

All grid coordinates, game values and exact index shares in this package are
`fractions.Fraction` values, which are always stored in lowest terms with a
positive denominator and never round.  Floating point appears only in the
Monte-Carlo estimator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

MAX_PLAYERS = 20

_FACTORIALS = [factorial(k) for k in range(MAX_PLAYERS + 1)]
_RATIONAL = re.compile(r"[+-]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a rational from a "p/q" (or plain integer / decimal) string.

    No other form is read: ``Fraction`` would also take exponent notation,
    and "1e999999999" makes it compute a billion-digit power of ten.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    text = str(text).strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational: write p/q, an integer "
                         "or a plain decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def format_rational(value: Fraction) -> str:
    """Serialize to the canonical "p/q" form ("3/4", "-1/3", "1", "0")."""
    return str(Fraction(value))


def ordering_weight(s: int, n: int) -> Fraction:
    """(s-1)!(n-s)!/n!, the share of orderings placing a fixed coalition of
    size s as the head set with a fixed last member."""
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return Fraction(_FACTORIALS[s - 1] * _FACTORIALS[n - s], _FACTORIALS[n])


def loss_constant(s: int, n: int) -> Fraction:
    """s!(n-s-1)!/n!: per-outsider loss rate against a coalition of size s."""
    if not 0 <= s <= n - 1:
        raise ValueError(f"need 0 <= s <= n-1, got s={s}, n={n}")
    return Fraction(_FACTORIALS[s] * _FACTORIALS[n - s - 1], _FACTORIALS[n])
