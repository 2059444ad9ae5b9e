"""Finite committee games: coalition functions, simple games and (j,k) games.

Players are numbered 1..n in the public API.  Internally a coalition is an
integer bitmask with bit i-1 set for player i; tables over 2^N are lists
indexed by mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .rational import MAX_PLAYERS

Level = tuple[int, ...]


@dataclass(frozen=True)
class Coalition:
    """A subset of the players 1..n, stored as a bitmask."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        check_players(self.n)
        if self.mask < 0 or self.mask >= (1 << self.n):
            raise ValueError("coalition members outside 1..n")

    @classmethod
    def of(cls, players: Iterable[int], n: int) -> "Coalition":
        return cls(mask_of(players, n), n)

    def players(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, player: int) -> bool:
        return 1 <= player <= self.n and bool(self.mask >> (player - 1) & 1)


def check_players(n: int) -> None:
    """Reject a player count outside 1..MAX_PLAYERS, before any table over
    2^N is allocated."""
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}")


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


class CoalitionFunction:
    """A total map 2^N -> Q.  Not required to be monotone or 0/1-valued."""

    def __init__(self, n: int, values: Sequence[Fraction | int]):
        check_players(n)
        if len(values) != 1 << n:
            raise ValueError(f"need a total table with {1 << n} entries")
        self.n = n
        self.values = [Fraction(v) for v in values]

    @classmethod
    def from_winning(cls, n: int, winning: Iterable[Iterable[int]],
                     closure: bool = True) -> "CoalitionFunction":
        """0/1 table from a list of winning coalitions.

        With ``closure`` the list is treated as generators and closed upward;
        without it the list is exhaustive, which permits non-monotone games.
        """
        check_players(n)
        table = [Fraction(0)] * (1 << n)
        masks = [mask_of(c, n) for c in winning]
        if closure:
            for m in range(1 << n):
                if any(m & w == w for w in masks):
                    table[m] = Fraction(1)
        else:
            for w in masks:
                table[w] = Fraction(1)
        return cls(n, table)

    def value(self, coalition: Iterable[int] | int) -> Fraction:
        mask = coalition if isinstance(coalition, int) else mask_of(coalition, self.n)
        return self.values[mask]

    def winning_masks(self) -> list[int]:
        return [m for m, v in enumerate(self.values) if v == 1]

    def is_monotone(self) -> bool:
        for m in range(1 << self.n):
            for i in range(self.n):
                if not m >> i & 1 and self.values[m] > self.values[m | 1 << i]:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CoalitionFunction)
                and self.n == other.n and self.values == other.values)


class SimpleGame:
    """Monotone 0/1 coalition function with v(empty)=0 and v(N)=1."""

    def __init__(self, inner: CoalitionFunction):
        n = inner.n
        if any(v not in (0, 1) for v in inner.values):
            raise ValueError("simple game values must be 0 or 1")
        if inner.values[0] != 0:
            raise ValueError("v(empty) must be 0")
        if inner.values[(1 << n) - 1] != 1:
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
        q = Fraction(quota)
        w = [Fraction(x) for x in weights]
        table = [Fraction(1) if sum(w[i] for i in range(n) if m >> i & 1) >= q
                 else Fraction(0) for m in range(1 << n)]
        return cls(CoalitionFunction(n, table))

    def value(self, coalition: Iterable[int] | int) -> Fraction:
        return self.inner.value(coalition)

    def minimal_winning(self) -> list[tuple[int, ...]]:
        out = []
        for m in self.inner.winning_masks():
            if all(not m >> i & 1 or self.inner.values[m ^ (1 << i)] == 0
                   for i in range(self.n)):
                out.append(players_of(m, self.n))
        return out

    def maximal_losing_masks(self) -> list[int]:
        """Losing coalitions all of whose proper supersets win."""
        out = []
        for m in range(1 << self.n):
            if self.inner.values[m] == 0 and all(
                    m >> i & 1 or self.inner.values[m | 1 << i] == 1
                    for i in range(self.n)):
                out.append(m)
        return out

    def add_winning(self, mask: int) -> "SimpleGame":
        """Turn one losing coalition winning; it must be maximal losing."""
        if self.inner.values[mask] != 0:
            raise ValueError("coalition already winning")
        table = list(self.inner.values)
        table[mask] = Fraction(1)
        return SimpleGame(CoalitionFunction(self.n, table))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleGame) and self.inner == other.inner


class JKGame:
    """Monotone map J^n -> K with J={0..j-1}, K={0..k-1}, fixed extremes."""

    def __init__(self, n: int, j: int, k: int, values: dict[Level, int]):
        if n < 1 or j < 2 or k < 2:
            raise ValueError("need n >= 1 and j, k >= 2")
        self.n, self.j, self.k = n, j, k
        self.values = dict(values)
        bottom = (0,) * n
        top = (j - 1,) * n
        for x in itertools.product(range(j), repeat=n):
            if x not in self.values:
                raise ValueError(f"missing value at {x}")
            if not 0 <= self.values[x] <= k - 1:
                raise ValueError(f"value at {x} outside 0..{k - 1}")
        if self.values[bottom] != 0 or self.values[top] != k - 1:
            raise ValueError("extreme profiles must map to 0 and k-1")
        for x in itertools.product(range(j), repeat=n):
            for i in range(n):
                if x[i] + 1 < j:
                    y = x[:i] + (x[i] + 1,) + x[i + 1:]
                    if self.values[x] > self.values[y]:
                        raise ValueError(f"not monotone between {x} and {y}")

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
            vals[x] = int(v.inner.values[mask])
        return cls(v.n, 2, 2, vals)

    def to_simple(self) -> SimpleGame:
        if (self.j, self.k) != (2, 2):
            raise ValueError("only (2,2) games are simple games")
        table = [Fraction(0)] * (1 << self.n)
        for x, val in self.values.items():
            mask = sum(1 << i for i in range(self.n) if x[i])
            table[mask] = Fraction(val)
        return SimpleGame(CoalitionFunction(self.n, table))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, JKGame) and (self.n, self.j, self.k) ==
                (other.n, other.j, other.k) and self.values == other.values)


def all_simple_games(n: int) -> Iterator[SimpleGame]:
    """Every monotone simple game on n players (feasible for n <= 4)."""
    if n > 4:
        raise ValueError("exhaustive enumeration supported for n <= 4 only")
    size = 1 << n
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
            yield SimpleGame(CoalitionFunction(n, [Fraction(v) for v in table]))


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
