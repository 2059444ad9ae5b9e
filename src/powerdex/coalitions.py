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
from .rational import (check_players, nondecreasing_along, on_one_denominator,
                       subset_sums)

Level = tuple[int, ...]

# the eight table entries that one byte of a bit-per-coalition integer holds
_BYTE_BITS = [[b >> k & 1 for k in range(8)] for b in range(256)]


class Coalition:
    """A subset of the players 1..n, stored as a bitmask."""

    __slots__ = ("mask", "n")

    def __init__(self, mask: int, n: int) -> None:
        check_players(n)
        if mask < 0 or mask >= (1 << n):
            raise ValueError("coalition members outside 1..n")
        self.mask, self.n = mask, n

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Coalition)
                and (self.mask, self.n) == (other.mask, other.n))

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def __repr__(self) -> str:
        return f"Coalition(mask={self.mask}, n={self.n})"

    @classmethod
    def of(cls, players: Iterable[int], n: int) -> "Coalition":
        return cls(mask_of(players, n), n)

    def players(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, player: int) -> bool:
        return 1 <= player <= self.n and bool(self.mask >> (player - 1) & 1)


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
    return Coalition(mask, n).players()


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
    0/1-valued."""

    def __init__(self, n: int, values: Sequence[Fraction | int]):
        check_players(n)
        if len(values) != 1 << n:
            raise ValueError(f"need a total table with {1 << n} entries")
        self.n = n
        self.nums, self.den = on_one_denominator(values)

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
        wins = map(le, itertools.repeat(q), subset_sums(w))
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
    """Monotone map J^n -> K with J={0..j-1}, K={0..k-1}, fixed extremes."""

    def __init__(self, n: int, j: int, k: int, values: dict[Level, int]):
        check_players(n)
        if j < 2 or k < 2:
            raise ValueError("need j, k >= 2")
        self.n, self.j, self.k = n, j, k
        self.values = dict(values)
        # the levels row-major, first voter slowest, checked as one list; a
        # table with fewer than j^n entries misses a profile, and the list
        # is not built
        levels = (list(map(self.values.get, self.profiles()))
                  if len(self.values) >= j ** n else [None])
        try:
            whole = (None not in levels
                     and 0 <= min(levels) and max(levels) <= k - 1)
        except TypeError:
            whole = False
        if not whole:
            # the first missing or out-of-range profile, in profile order
            for x in self.profiles():
                if x not in self.values:
                    raise ValueError(f"missing value at {x}")
                if not 0 <= self.values[x] <= k - 1:
                    raise ValueError(f"value at {x} outside 0..{k - 1}")
        if levels[0] != 0 or levels[-1] != k - 1:
            raise ValueError("extreme profiles must map to 0 and k-1")
        if not all(nondecreasing_along(levels, j ** (n - 1 - i), j)
                   for i in range(n)):
            # the first falling cover, in profile order
            for x in self.profiles():
                for i in range(n):
                    if x[i] + 1 < j:
                        y = x[:i] + (x[i] + 1,) + x[i + 1:]
                        if self.values[x] > self.values[y]:
                            raise ValueError(
                                f"not monotone between {x} and {y}")

    def value(self, x: Level) -> int:
        return self.values[tuple(x)]

    def profiles(self) -> Iterator[Level]:
        return itertools.product(range(self.j), repeat=self.n)

    @classmethod
    def from_simple(cls, v: SimpleGame) -> "JKGame":
        """A simple game as the isomorphic (2,2) game."""
        vals = {}
        for x in itertools.product(range(2), repeat=v.n):
            mask = sum(1 << i for i in range(v.n) if x[i])
            vals[x] = v.inner.nums[mask]
        return cls(v.n, 2, 2, vals)

    def to_simple(self) -> SimpleGame:
        if (self.j, self.k) != (2, 2):
            raise ValueError("only (2,2) games are simple games")
        table = [0] * (1 << self.n)
        for x, val in self.values.items():
            mask = sum(1 << i for i in range(self.n) if x[i])
            table[mask] = val
        return SimpleGame(CoalitionFunction(self.n, table))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, JKGame) and (self.n, self.j, self.k) ==
                (other.n, other.j, other.k) and self.values == other.values)


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
        ok = True
        for m in range(size):
            if table[m]:
                for i in range(n):
                    if not m >> i & 1 and not table[m | 1 << i]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            yield SimpleGame(CoalitionFunction(n, table))


def random_monotone_jk(rng, n: int, j: int, k: int) -> JKGame:
    """Random monotone (j,k) game: a random table closed upward by maxima."""
    raw = {}
    for x in itertools.product(range(j), repeat=n):
        raw[x] = rng.randrange(k)
    raw[(0,) * n] = 0
    raw[(j - 1,) * n] = k - 1
    vals: dict[Level, int] = {}
    for x in sorted(raw, key=sum):
        best = raw[x]
        for i in range(n):
            if x[i] > 0:
                y = x[:i] + (x[i] - 1,) + x[i + 1:]
                best = max(best, vals[y])
        vals[x] = best
    vals[(j - 1,) * n] = k - 1
    return JKGame(n, j, k, vals)


def random_simple_game(rng, n: int) -> SimpleGame:
    """Random monotone simple game via upward closure of random generators."""
    count = rng.randrange(1, n + 2)
    gens = []
    for _ in range(count):
        size = rng.randrange(1, n + 1)
        gens.append(rng.sample(range(1, n + 1), size))
    return SimpleGame.from_winning(n, gens)
