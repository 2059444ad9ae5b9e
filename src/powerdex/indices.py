"""Power indices: the classical ordering-based index for coalition games,
its (j,k)-level generalizations, and the boundary-average index for games on
the unit cube (exact on step games, Monte-Carlo for black boxes).

Everything except the Monte-Carlo estimator is exact rational arithmetic,
and only that estimator imports numpy.  The enumerating oracles and closed
forms that the tests check these kernels against are in ``oracles``.  The
step-game modules are imported by the functions that run them, so the
coalition and (j,k) kernels compile neither ``stepfun`` nor ``evaluables``.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import factorial, prod
from operator import add, mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .budget import check_work
from .rational import on_one_denominator

if TYPE_CHECKING:
    from .coalitions import CoalitionFunction, JKGame, SimpleGame
    from .evaluables import EvaluableGame
    from .stepfun import StepGame

# psi_mc evaluates the game at 2^(n+1) pinned copies of every sample point,
# so this cap on samples * 2^n bounds its run time; montecarlo's chunks
# bound its memory
MAX_MC_CELLS = 1 << 27

_NEXT_SIZE = bytes(range(1, 256)) + b"\0"  # b -> b + 1


class PowerVector:
    """Per-player shares, exact rationals or MC estimates with errors.

    ``c_table``, the C-table the shares came from, may be set afterwards,
    or given as a function that computes it on first read.
    """

    def __init__(self, shares: tuple, mode: str = "exact",
                 stderr: tuple | None = None, samples: int | None = None,
                 seed: int | None = None,
                 c_table: dict | Callable[[], dict] | None = None):
        self.shares, self.mode, self.stderr = shares, mode, stderr
        self.samples, self.seed, self.c_table = samples, seed, c_table

    @property
    def c_table(self) -> dict | None:
        if callable(self._c_table):
            self._c_table = self._c_table()
        return self._c_table

    @c_table.setter
    def c_table(self, table: dict | Callable[[], dict] | None) -> None:
        self._c_table = table

    def __repr__(self) -> str:
        return (f"PowerVector(shares={self.shares!r}, mode={self.mode!r}, "
                f"stderr={self.stderr!r}, samples={self.samples!r}, "
                f"seed={self.seed!r})")

    @property
    def n(self) -> int:
        return len(self.shares)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PowerVector):
            return self.mode == other.mode and self.shares == other.shares
        if isinstance(other, (tuple, list)):
            return tuple(self.shares) == tuple(other)
        return NotImplemented


class BoundaryAverages(NamedTuple):
    """The table T -> C(v, T): average outcome gap between coalition T at
    full support and at no support, keyed by coalition bitmask."""

    n: int
    table: dict[int, Fraction]

    def get(self, players) -> Fraction:
        from .coalitions import mask_of

        return self.table[mask_of(players, self.n)]


def _exact(shares) -> PowerVector:
    return PowerVector(tuple(Fraction(s) for s in shares), "exact")


def psi_from_c(nums: Sequence[int], den: int, n: int) -> PowerVector:
    """Combine a C-table with the ordering weights (s-1)!(n-s)!/n!.

    The table is given as integer numerators num[S] = c[S] * den, one for
    every coalition bitmask S in 0..2^n-1, so the sum runs in integers.
    With w(s) = (s-1)!(n-s)! and w(0) = w(n+1) = 0, player i's share
    times n! * den is base plus with_i, the sum over S containing i of
    num[S] (w(|S|) + w(|S|+1)), where base = -sum over S of num[S] w(|S|+1)
    (Mann & Shapley's grouping of the terms by coalition size); with_i
    comes from halving the table once per player.  As s w(s) = (n-s) w(s+1)
    for 0 < s < n, the shares of any table sum to (num[N] - num[0]) / den
    (efficiency), so n * base = n! (num[N] - num[0]) - sum of with_i.
    """
    w = [0] + [factorial(s - 1) * factorial(n - s) for s in range(1, n + 1)] + [0]
    both = list(map(add, w, w[1:]))
    sizes = bytearray(1)  # |S| for every mask S: each player doubles it
    for _ in range(n):
        sizes += sizes.translate(_NEXT_SIZE)
    y = list(map(mul, nums, map(both.__getitem__, sizes)))
    with_i = [0] * n
    for i in reversed(range(n)):
        # the top half of y holds the coalitions containing player i;
        # folding it onto the bottom half drops player i from every mask
        top = y[1 << i:]
        del y[1 << i:]
        with_i[i] = sum(top)
        y = list(map(add, y, top))
    base = (factorial(n) * (nums[-1] - nums[0]) - sum(with_i)) // n
    scale = factorial(n) * den
    return _exact(Fraction(base + t, scale) for t in with_i)


def _ends_table(flat: list[int], m: int, weights: Sequence[int], n: int,
                den: int) -> tuple[list[int], int]:
    """The C-table of an integer table on the grid (m,)^n, stored row-major
    (first coordinate slowest) over the denominator ``den``, as numerators
    in coalition order over one denominator, ``den * sum(weights) ** n``.

    C(T) is the table with T's axes at their last entry and every free axis
    summed with ``weights``, minus the same with T's axes at their first
    entry, over ``den * sum(weights) ** free``.  Each of the two is one
    contraction that reduces every axis to two entries, [weighted sum,
    end], so each axis pass shrinks the table by m/2 and ends at 2^n
    entries (three entries per axis would end at 3^n, more than m^n for
    m = 2).
    """
    def contract(end: int) -> list[int]:
        f = flat
        for _ in range(n):
            # reduce the last axis, whose level h is the slice f[h::m], and
            # put its two entries in front: after n passes the axes are back
            # in their order
            total = [0] * (len(f) // m)
            for h, w in enumerate(weights):
                col = f[h::m]
                if w != 1:
                    col = map(mul, col, itertools.repeat(w))
                total = list(map(add, total, col))
            f = total + f[end::m]
        return f

    last, first = contract(m - 1), contract(0)
    # T's entry has the end digit 1 on T's axes, axis i at place 2^(n-1-i)
    spots = [0]
    for i in range(n):
        spots += [s + (1 << (n - 1 - i)) for s in spots]
    # over den * W^n, with W = sum(weights), C(T)'s gap gains W^|T|
    w_sum = sum(weights)
    powers = [w_sum ** size for size in range(n + 1)]
    return ([(last[s] - first[s]) * powers[t.bit_count()]
             for t, s in enumerate(spots)], den * powers[n])


# ---------------------------------------------------------------------------
# finite games

def ssi_coalition(v: CoalitionFunction | SimpleGame) -> PowerVector:
    """Ordering-based index from the coalition table; monotonicity is not
    required, so negative shares are possible for non-monotone inputs."""
    from .coalitions import SimpleGame

    cf = v.inner if isinstance(v, SimpleGame) else v
    return psi_from_c(cf.nums, cf.den, cf.n)


def _jk_ends(v: JKGame) -> tuple[list[int], int]:
    return _ends_table(v.levels, v.j, [1] * v.j, v.n, v.k - 1)


def jk_boundary_averages(v: JKGame) -> dict[int, Fraction]:
    """Discrete C(v,T): mean gap between full and zero approval of T, each
    free voter's level uniform on 0..j-1."""
    nums, den = _jk_ends(v)
    return {t: Fraction(x, den) for t, x in enumerate(nums)}


def jk_ssi_marginal(v: JKGame) -> PowerVector:
    """Same index through the discrete C-table instead of pivot counting."""
    return psi_from_c(*_jk_ends(v), v.n)


# ---------------------------------------------------------------------------
# step games

def boundary_averages(g: StepGame) -> BoundaryAverages:
    """Exact C(v,T) for a step game: for each box of the grid restricted to
    the free coordinates, its volume times the gap between the face with T
    pinned to 1 and the face with T pinned to 0.

    Such a face has one adjacent box, whose value the regular completion
    gives it, so the boxes alone make the table.  The two cube corners and
    the overrides on faces C reads differ from their box by a known gap,
    added afterwards.
    """
    from .stepfun import box_index

    n, p, top = g.n, g.p, 2 * g.p
    widths = [b - a for a, b in zip(g.disc.alpha, g.disc.alpha[1:])]
    nums, den = g.nums, g.den
    gaps, scale = _ends_table(nums, p, on_one_denominator(widths)[0], n, den)
    table = {t: Fraction(x, scale) for t, x in enumerate(gaps)}
    pinned = {(0,) * n: 0, (top,) * n: den, **g.overrides}
    for d, val in pinned.items():
        side = {di for di in d if di % 2 == 0}
        if side == {0} or side == {top}:
            box = tuple(min(max(di, 1), top - 1) for di in d)
            vol = prod((widths[di // 2] for di in d if di % 2), start=Fraction(1))
            t = sum(1 << i for i, di in enumerate(d) if di % 2 == 0)
            gap = vol * Fraction(val - nums[box_index(box, p)], den)
            table[t] += gap if top in side else -gap
    return BoundaryAverages(n, table)


def psi_exact(g: StepGame) -> PowerVector:
    """Exact index of a step game via its boundary averages.  Only values on
    faces touching the cube boundary enter, so raw and semi-regular tables
    are accepted as-is."""
    c = boundary_averages(g).table
    out = psi_from_c(*on_one_denominator([c[m] for m in range(1 << g.n)]), g.n)
    out.c_table = c
    return out


# ---------------------------------------------------------------------------
# black-box games

def __getattr__(name: str):
    """``step_game_evaluable``, imported with ``evaluables`` on first use
    (PEP 562)."""
    if name != "step_game_evaluable":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .evaluables import step_game_evaluable

    globals()[name] = step_game_evaluable
    return step_game_evaluable


def _as_evaluable(v: EvaluableGame | StepGame) -> EvaluableGame:
    from .stepfun import StepGame

    # through the module attribute, so that a rebinding of it takes effect
    return (sys.modules[__name__].step_game_evaluable(v)
            if isinstance(v, StepGame) else v)


def psi_point(v: EvaluableGame | StepGame, alpha) -> PowerVector:
    """The single-profile variant: the ordering-weight sum over the pinned
    table c(T) = v(1_T, a) - v(0_T, a) at the constant profile a = alpha,
    instead of integrating over profiles.  On a step game alpha's face
    coordinate is found once, and the pinned faces are read in integers."""
    n = v.n
    # two evaluations of an n-coordinate profile per coalition
    check_work(n << (n + 1), "point variant")
    a = Fraction(alpha)
    if a < 0 or a > 1:
        raise ValueError("alpha must lie in [0, 1]")
    from .stepfun import StepGame, face_numerator, locate_face

    if isinstance(v, StepGame):
        (at,) = locate_face(v.disc, (a,))
        top = 2 * v.p

        def face(t: int, side: int) -> tuple[int, ...]:
            return tuple(side if t >> i & 1 else at for i in range(n))
        c = [0] + [face_numerator(v, face(t, top)) - face_numerator(v, face(t, 0))
                   for t in range(1, 1 << n)]
        return psi_from_c(c, v.den << n, n)
    game = _as_evaluable(v)

    def pinned(t: int, side: int) -> Fraction:
        return game.eval_exact([side if t >> i & 1 else a for i in range(n)])

    c = [Fraction(0)] + [pinned(t, 1) - pinned(t, 0) for t in range(1, 1 << n)]
    return psi_from_c(*on_one_denominator(c), n)


def psi_mc(v: EvaluableGame | StepGame, samples: int, seed: int,
           sampler=None) -> PowerVector:
    """Monte-Carlo estimate of the boundary-average index.

    One common batch of sample points serves every coalition T, which keeps
    the C-differences strongly correlated and the estimator variance low.
    ``sampler(rng, m, n)`` may supply points from an exchangeable density
    instead of the uniform default.  Deterministic for a given seed.
    ``montecarlo.estimate`` does the sampling and evaluation; the C-table
    means are computed when ``c_table`` is first read.
    """
    game = _as_evaluable(v)
    n = game.n
    if samples < 1:
        raise ValueError("need at least one sample")
    # two evaluation passes per coalition, then n combine passes over them
    check_work(n << (n + 1), "Monte-Carlo estimate")
    if samples << n > MAX_MC_CELLS:
        raise ValueError(f"samples * 2^n = {samples << n} exceeds the "
                         f"Monte-Carlo cap of {MAX_MC_CELLS} cells")
    from .montecarlo import estimate

    shares, errors, c_table = estimate(game, samples, seed, sampler)
    return PowerVector(shares, "mc", errors, samples=samples, seed=seed,
                       c_table=c_table)
