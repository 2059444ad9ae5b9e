"""Finite committee games: coalition functions, simple games and (j,k) games.

Players are numbered 1..n in the public API.  Internally a coalition is an
integer bitmask with bit i-1 set for player i; a table over 2^N is a list of
integer numerators indexed by mask, over one common denominator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from operator import le
from typing import Iterable, Iterator, Sequence

from .budget import check_work
from .rational import (check_players, digits_of, index_of,
                       nondecreasing_along, on_one_denominator, positions,
                       strides)

Level = tuple[int, ...]

# the eight table entries that one byte of a bit-per-coalition integer holds
_BYTE_BITS = [[b >> k & 1 for k in range(8)] for b in range(256)]


def mask_of(players: Iterable[int], n: int) -> int:
    """Bitmask of a set of players; each must lie in 1..n and appear once."""
    mask = 0
    for i in players:
        if not 1 <= i <= n:
            raise ValueError(f"player {i} outside 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"player {i} listed twice")
        mask |= bit
    return mask


def players_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(n) if mask >> i & 1)


def _without(i: int, n: int) -> int:
    """The 2^n-bit integer whose bit m is set when coalition m lacks player
    i: runs of 2^i set bits and 2^i clear bits, doubled up to length 2^n."""
    pattern, length = (1 << (1 << i)) - 1, 2 << i
    while length < 1 << n:
        pattern |= pattern << length
        length <<= 1
    return pattern


class CoalitionFunction:
    """A total map 2^N -> Q, stored as the integer numerators ``nums`` over
    their least common denominator ``den``.  Not required to be monotone or
    0/1-valued.  With ``den``, ``values`` are already those numerators."""

    def __init__(self, n: int, values: Sequence[Fraction | int],
                 den: int | None = None):
        check_players(n)
        if len(values) != 1 << n:
            raise ValueError(f"need a total table with {1 << n} entries")
        self.n = n
        self.nums, self.den = (on_one_denominator(values) if den is None
                               else (values, den))

    @cached_property
    def values(self) -> list[Fraction]:
        """The table as ``Fraction``s, one object per distinct value."""
        memo = {x: Fraction(x, self.den) for x in set(self.nums)}
        return list(map(memo.__getitem__, self.nums))

    @classmethod
    def from_winning(cls, n: int, winning: Iterable[Iterable[int]],
                     closure: bool = True) -> "CoalitionFunction":
        """0/1 table from a list of winning coalitions.

        With ``closure`` the list is treated as generators and closed upward;
        without it the list is exhaustive, which permits non-monotone games.
        """
        check_players(n)
        full = 1 << n
        masks = [mask_of(c, n) for c in winning]
        if not closure:
            table = [0] * full
            for w in masks:
                table[w] = 1
            return cls(n, table)
        # bit m of ``won`` says whether coalition m wins; adding player i to
        # every winning coalition without i shifts those bits up by 2^i
        won = 0
        for w in masks:
            won |= 1 << w
        for i in range(n):
            won |= (won & _without(i, n)) << (1 << i)
        table = list(itertools.chain.from_iterable(map(
            _BYTE_BITS.__getitem__, won.to_bytes(-(-full // 8), "little"))))
        del table[full:]
        return cls(n, table)

    def value(self, coalition: Iterable[int] | int) -> Fraction:
        mask = coalition if isinstance(coalition, int) else mask_of(coalition, self.n)
        return Fraction(self.nums[mask], self.den)

    def winning_masks(self) -> list[int]:
        return [m for m, x in enumerate(self.nums) if x == self.den]

    def is_monotone(self) -> bool:
        """v(S) <= v(S + i) for every coalition S and player i outside it.

        Compared on integer numerators: the table is row-major over one
        two-entry axis per player, player i's with stride 2^i.
        """
        return all(nondecreasing_along(self.nums, 1 << i, 2)
                   for i in range(self.n))

    def __eq__(self, other: object) -> bool:
        # an lcm of reduced denominators is in lowest terms: equal tables
        # store equal numerators over equal denominators
        return (isinstance(other, CoalitionFunction) and
                (self.n, self.den, self.nums) == (other.n, other.den, other.nums))


class SimpleGame:
    """Monotone 0/1 coalition function with v(empty)=0 and v(N)=1."""

    def __init__(self, inner: CoalitionFunction):
        n, nums = inner.n, inner.nums
        if inner.den != 1 or not set(nums) <= {0, 1}:
            raise ValueError("simple game values must be 0 or 1")
        if nums[0] != 0:
            raise ValueError("v(empty) must be 0")
        if nums[-1] != 1:
            raise ValueError("v(N) must be 1")
        if not inner.is_monotone():
            raise ValueError("simple game must be monotone")
        self.inner = inner
        self.n = n

    @classmethod
    def from_winning(cls, n: int, winning: Iterable[Iterable[int]]) -> "SimpleGame":
        return cls(CoalitionFunction.from_winning(n, winning, closure=True))

    @classmethod
    def weighted(cls, quota, weights: Sequence) -> "SimpleGame":
        """[q; w_1, ..., w_n]: S wins iff sum of its weights reaches the quota."""
        n = len(weights)
        check_players(n)
        # the quota and weights as numerators over one common denominator
        (q, *w), _ = on_one_denominator(
            [Fraction(x) for x in (quota, *weights)])
        # each coalition's total weight, its mask's bits read as digits
        wins = map(le, itertools.repeat(q), positions([(0, 1)] * n, w[::-1]))
        return cls(CoalitionFunction(n, list(map(int, wins))))

    def value(self, coalition: Iterable[int] | int) -> Fraction:
        return self.inner.value(coalition)

    def minimal_winning(self) -> list[tuple[int, ...]]:
        out, nums = [], self.inner.nums
        for m in self.inner.winning_masks():
            if all(not m >> i & 1 or nums[m ^ (1 << i)] == 0
                   for i in range(self.n)):
                out.append(players_of(m, self.n))
        return out

    def maximal_losing_masks(self) -> list[int]:
        """Losing coalitions all of whose proper supersets win."""
        out, nums = [], self.inner.nums
        for m in range(1 << self.n):
            if nums[m] == 0 and all(m >> i & 1 or nums[m | 1 << i] == 1
                                    for i in range(self.n)):
                out.append(m)
        return out

    def add_winning(self, mask: int) -> "SimpleGame":
        """Turn one losing coalition winning; it must be maximal losing."""
        if self.inner.nums[mask] != 0:
            raise ValueError("coalition already winning")
        table = list(self.inner.nums)
        table[mask] = 1
        return SimpleGame(CoalitionFunction(self.n, table))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleGame) and self.inner == other.inner


class JKGame:
    """Monotone map J^n -> K with J={0..j-1}, K={0..k-1}, fixed extremes,
    stored as ``levels``: the level of every profile in row-major order,
    first voter slowest, ``strides`` apart.  A list shorter than j^n misses
    the profile after its last entry."""

    def __init__(self, n: int, j: int, k: int, levels: list[int]):
        check_players(n)
        if j < 2 or k < 2:
            raise ValueError("need j, k >= 2")
        self.n, self.j, self.k, self.levels = n, j, k, levels
        self.strides = strides(j, n)
        if levels and not (0 <= min(levels) and max(levels) <= k - 1):
            r = next(r for r, x in enumerate(levels) if not 0 <= x <= k - 1)
            raise ValueError(f"value at {self._profile(r)} outside 0..{k - 1}")
        if len(levels) != j ** n:
            raise ValueError(f"need {j ** n} levels, one per profile"
                             if len(levels) > j ** n else
                             f"missing value at {self._profile(len(levels))}")
        if levels[0] != 0 or levels[-1] != k - 1:
            raise ValueError("extreme profiles must map to 0 and k-1")
        if not all(nondecreasing_along(levels, s, j) for s in self.strides):
            # the first falling cover, in profile order
            for r, x in enumerate(levels):
                for d, s in zip(digits_of(r, j, self.strides), self.strides):
                    if d + 1 < j and x > levels[r + s]:
                        raise ValueError(
                            f"not monotone between {self._profile(r)} and "
                            f"{self._profile(r + s)}")

    def _profile(self, r: int) -> Level:
        """The profile in row-major position r."""
        return tuple(digits_of(r, self.j, self.strides))

    def value(self, x: Sequence[int]) -> int:
        """The level at profile x, which must lie in J^n."""
        if len(x) == self.n and all(0 <= xi < self.j for xi in x):
            return self.levels[index_of(x, self.strides)]
        raise ValueError(f"profile {tuple(x)} outside "
                         f"{{0..{self.j - 1}}}^{self.n}")

    @classmethod
    def from_simple(cls, v: SimpleGame) -> "JKGame":
        """A simple game as the isomorphic (2,2) game."""
        return cls(v.n, 2, 2, list(map(v.inner.nums.__getitem__,
                                       _rows_of_masks(v.n))))

    def to_simple(self) -> SimpleGame:
        if (self.j, self.k) != (2, 2):
            raise ValueError("only (2,2) games are simple games")
        return SimpleGame(CoalitionFunction(self.n, list(map(
            self.levels.__getitem__, _rows_of_masks(self.n)))))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, JKGame) and
                (self.n, self.j, self.k, self.levels) ==
                (other.n, other.j, other.k, other.levels))


def _rows_of_masks(n: int) -> list[int]:
    """The row-major position of each coalition's (2,2) profile, indexed by
    mask: player i's bit moves to place n - 1 - i, so the list is its own
    inverse."""
    return positions([(0, 1)] * n, strides(2, n)[::-1])


def all_simple_games(n: int) -> Iterator[SimpleGame]:
    """Every monotone simple game on n players (feasible for n <= 4)."""
    check_players(n)
    size = 1 << n
    # 2^(2^n) candidate tables over 2^n coalitions each
    check_work(size << size, "simple game enumeration")
    for bits in range(1 << size):
        if bits & 1 or not bits >> (size - 1) & 1:
            continue
        table = [(bits >> m) & 1 for m in range(size)]
        if all(nondecreasing_along(table, 1 << i, 2) for i in range(n)):
            yield SimpleGame(CoalitionFunction(n, table))


def random_monotone_jk(rng, n: int, j: int, k: int) -> JKGame:
    """Random monotone (j,k) game: a random table closed upward by maxima."""
    levels = [rng.randrange(k) for _ in range(j ** n)]
    levels[0], levels[-1] = 0, k - 1
    for s in strides(j, n):
        # a running max along each voter's axis, in each block of j rows
        for lo in range(0, len(levels), s * j):
            for r in range(lo + s, lo + s * j):
                levels[r] = max(levels[r], levels[r - s])
    return JKGame(n, j, k, levels)


def random_simple_game(rng, n: int) -> SimpleGame:
    """Random monotone simple game via upward closure of random generators."""
    count = rng.randrange(1, n + 2)
    gens = []
    for _ in range(count):
        size = rng.randrange(1, n + 1)
        gens.append(rng.sample(range(1, n + 1), size))
    return SimpleGame.from_winning(n, gens)
