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
from math import factorial, gcd, prod
from operator import add, floordiv, mul, not_, sub
from typing import TYPE_CHECKING, Callable, Sequence

from .budget import check_work
from .rational import digits_of, on_one_denominator, positions, strides

if TYPE_CHECKING:
    from .coalitions import CoalitionFunction, JKGame, SimpleGame
    from .evaluables import EvaluableGame
    from .stepfun import StepGame

# psi_mc evaluates the game at 2^(n+1) pinned copies of every sample point
# and keeps up to 16n + 32 bytes per sample (the points, the per-player
# values and the reductions' temporaries), so this cap on
# samples * (2^n + 16n + 32) bounds its run time and those arrays' memory;
# montecarlo's chunks bound the rest
MAX_MC_CELLS = 1 << 27

_NEXT_SIZE = bytes(range(1, 256)) + b"\0"  # b -> b + 1


class PowerVector:
    """Per-player shares, exact rationals or MC estimates with errors.

    ``c_table``, the C-table the shares came from, may be given as a
    function that computes it on first read.
    """

    def __init__(self, shares: tuple, mode: str = "exact",
                 stderr: tuple | None = None, samples: int | None = None,
                 seed: int | None = None,
                 c_table: dict | Callable[[], dict] | None = None):
        self.shares, self.mode, self.stderr = shares, mode, stderr
        self.samples, self.seed, self._c_table = samples, seed, c_table

    @property
    def c_table(self) -> dict | None:
        if callable(self._c_table):
            self._c_table = self._c_table()
        return self._c_table

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


class BoundaryAverages:
    """C(v, T), the average outcome gap between coalition T at full and at
    no support: integer numerators by coalition bitmask over ``den``.  The
    step-game, (j,k), coalition and pinned-point tables all take this form.
    A record, not a sequence: C(v, T) is read through ``table`` or ``get``."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, nums: list[int], den: int) -> None:
        self.n, self.nums, self.den = n, nums, den

    @property
    def table(self) -> dict[int, Fraction]:
        """C(v, T) keyed by coalition bitmask, built on each read."""
        return {t: Fraction(x, self.den) for t, x in enumerate(self.nums)}

    def get(self, players) -> Fraction:
        from .coalitions import mask_of

        return Fraction(self.nums[mask_of(players, self.n)], self.den)


def psi_from_c(c: BoundaryAverages) -> PowerVector:
    """Combine a C-table with the ordering weights (s-1)!(n-s)!/n!.

    The table is given as integer numerators num[S] = c[S] * den, one for
    every coalition bitmask S in 0..2^n-1, so the sum runs in integers (its
    ``Fraction`` form is built when ``c_table`` is read).  With w(s) =
    (s-1)!(n-s)! and w(0) = w(n+1) = 0, player i's share times n! * den is
    base plus with_i, the sum over S containing i of num[S] (w(|S|) +
    w(|S|+1)), where base = -sum over S of num[S] w(|S|+1) (Mann &
    Shapley's grouping of the terms by coalition size); with_i comes from
    halving the table once per player.  As s w(s) = (n-s) w(s+1) for
    0 < s < n, the shares of any table sum to (num[N] - num[0]) / den
    (efficiency), so n * base = n! (num[N] - num[0]) - sum of with_i.
    """
    n, nums, den = c.n, c.nums, c.den
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
    return PowerVector(tuple(Fraction(base + t, scale) for t in with_i),
                       c_table=lambda: c.table)


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
            total = []
            for h, w in itertools.compress(enumerate(weights), weights):
                col = f[h::m]
                if w != 1:
                    col = map(mul, col, itertools.repeat(w))
                total = list(map(add, total, col)) if total else list(col)
            f = total + f[end::m]
        return f

    last, first = contract(m - 1), contract(0)
    # T's entry has the end digit 1 on T's axes, axis 0 slowest; the axes
    # run last first, so that the spots come in coalition-mask order
    spots = positions([(0, 1)] * n, strides(2, n)[::-1])
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
    return psi_from_c(BoundaryAverages(cf.n, cf.nums, cf.den))


def jk_boundary_averages(v: JKGame) -> BoundaryAverages:
    """Discrete C(v,T): mean gap between full and zero approval of T, each
    free voter's level uniform on 0..j-1."""
    return BoundaryAverages(v.n, *_ends_table(v.levels, v.j, [1] * v.j, v.n,
                                              v.k - 1))


def jk_ssi_marginal(v: JKGame) -> PowerVector:
    """Same index through the discrete C-table instead of pivot counting."""
    return psi_from_c(jk_boundary_averages(v))


# ---------------------------------------------------------------------------
# step games

def boundary_averages(g: StepGame, mass=None) -> BoundaryAverages:
    """Exact C(v,T) for a step game, the mean gap between the faces with T
    pinned to 1 and to 0, each free coordinate on face digit e with the
    integer weight ``mass[e]`` (by default the interval widths, on the odd
    digits).  The completion reads a face as the mean of its adjacent
    boxes, so each box takes the weight of its adjacent digits and the
    boxes alone make the table; the two cube corners and the overrides add
    their gap from that mean to every C(T) that reads them."""
    from .stepfun import adjacent_box_sum

    n, p, top, alpha = g.n, g.p, 2 * g.p, g.disc.alpha
    if mass is None:
        ends, mass = on_one_denominator(alpha)[0], [0] * (top + 1)
        mass[1::2] = map(sub, ends[1:], ends)
        del ends  # grid-sized: not kept while the kernel runs
    # each adjacent box's part of a digit: an inner breakpoint has two boxes
    share = [2 * x for x in mass]
    share[2:top:2] = mass[2:top:2]
    share = list(map(floordiv, share, itertools.repeat(gcd(*share))))
    weights = list(map(add, map(add, share[:top:2], share[1::2]), share[2::2]))
    nums, den = _ends_table(g.nums, p, weights, n, g.den)
    s, weightless = sum(weights), set(itertools.compress(range(top + 1),
                                                          map(not_, share)))
    # C(T) reads a face d at `end` when d sits there on T's axes and every
    # free digit has weight.  Over g.den * s^n it adds d's gap (over g.den *
    # 2^k) times each free digit's share, the 2^k halves cancelling, and s
    # per axis of T; the two ends' reads of the empty T cancel
    ends = [(end, weightless - {end}) for end in (0, top)]
    for at, value in {0: 0, g.corner: g.den, **g.overrides}.items():
        d = digits_of(at, top + 1, g.strides)
        for end, unread in ends:
            if not unread.isdisjoint(d):
                continue
            total, k = adjacent_box_sum(g, d)
            gap = (value << k) - total if end else total - (value << k)
            reads = [(0, gap * prod(share[di] for di in d if di != end))]
            for i in itertools.compress(range(n), map(end.__eq__, d)):
                reads = [(t | 1 << i, x * s) for t, x in reads] + [
                    (t, x * share[end]) for t, x in reads if share[end]]
            for t, x in reads:
                nums[t] += x
    return BoundaryAverages(n, nums, den)


def psi_exact(g: StepGame) -> PowerVector:
    """Exact index of a step game via its boundary averages.  Only values on
    faces touching the cube boundary enter, so raw and semi-regular tables
    are accepted as-is."""
    return psi_from_c(boundary_averages(g))


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
    instead of integrating over profiles.  On a step game that is the
    boundary averages with all the weight on alpha's face digit."""
    n = v.n
    # two evaluations of an n-coordinate profile per coalition
    check_work(n << (n + 1), "point variant")
    a = Fraction(alpha)
    if a < 0 or a > 1:
        raise ValueError("alpha must lie in [0, 1]")
    from .stepfun import StepGame, locate_face

    if isinstance(v, StepGame):
        (at,) = locate_face(v.disc, (a,))
        return psi_from_c(boundary_averages(
            v, [0] * at + [1] + [0] * (2 * v.p - at)))
    # the points are built here of Fractions in [0, 1], so eval_exact's
    # conversion and range check of every coordinate are skipped
    exact = v.exact_unchecked()
    sides = (Fraction(0), Fraction(1))

    def pinned(t: int, side: int) -> Fraction:
        return Fraction(exact(tuple(sides[side] if t >> i & 1 else a
                                    for i in range(n))))

    c = [Fraction(0)] + [pinned(t, 1) - pinned(t, 0) for t in range(1, 1 << n)]
    return psi_from_c(BoundaryAverages(n, *on_one_denominator(c)))


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
    cost = samples * ((1 << n) + 16 * n + 32)
    if cost > MAX_MC_CELLS:
        raise ValueError(f"samples * (2^n + 16n + 32) = {cost} exceeds the "
                         f"Monte-Carlo cap of {MAX_MC_CELLS}")
    from .montecarlo import estimate

    shares, errors, c_table = estimate(game, samples, seed, sampler)
    return PowerVector(shares, "mc", errors, samples=samples, seed=seed,
                       c_table=c_table)
