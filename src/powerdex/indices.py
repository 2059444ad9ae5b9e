"""Power indices: the classical ordering-based index for coalition games,
its (j,k)-level generalizations, and the boundary-average index for games on
the unit cube (exact on step games, Monte-Carlo for black boxes).

Everything except the Monte-Carlo estimator is exact rational arithmetic,
and only that estimator imports numpy.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from operator import add, mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .budget import check_work
from .evaluables import EvaluableGame, step_game_evaluable
from .rational import on_one_denominator, subset_sums
from .stepfun import StepGame, box_numerators

if TYPE_CHECKING:
    from .coalitions import CoalitionFunction, JKGame, SimpleGame

# psi_mc evaluates the game at 2^(n+1) pinned copies of every sample point,
# so this cap on samples * 2^n bounds its run time; montecarlo's chunks
# bound its memory
MAX_MC_CELLS = 1 << 27


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

    def total(self):
        return sum(self.shares)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PowerVector):
            return self.mode == other.mode and self.shares == other.shares
        return tuple(self.shares) == tuple(other)


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
    times n! * den is base plus the sum over S containing i of y[S],
    where y[S] = num[S] (w(|S|) + w(|S|+1)) and base = -sum over S of
    num[S] w(|S|+1) (Mann & Shapley's grouping of the terms by coalition
    size).  The sums over S containing i come from halving the table once
    per player.
    """
    w = [0] + [factorial(s - 1) * factorial(n - s) for s in range(1, n + 1)] + [0]
    after = w[1:]
    both = list(map(add, w, after))
    sizes = subset_sums([1] * n)
    base = -sum(map(mul, nums, map(after.__getitem__, sizes)))
    y = list(map(mul, nums, map(both.__getitem__, sizes)))
    with_i = [0] * n
    for i in reversed(range(n)):
        # the top half of y holds the coalitions containing player i;
        # folding it onto the bottom half drops player i from every mask
        half = 1 << i
        with_i[i] = sum(y[half:])
        y = list(map(add, y[:half], y[half:]))
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


def ssi_roll_call(v: SimpleGame, vote_model: str = "all_yes") -> PowerVector:
    """Exact pivot-count average over all orderings of the voters.

    ``all_yes``: everyone votes yes and the pivot makes the coalition win.
    ``uniform_half``: all vote vectors weighted equally; the pivot is the
    first voter whose vote settles the outcome.
    """
    n = v.n
    # n! orderings, times 2^n vote vectors under uniform_half, n voters each
    votes = 1 << n if vote_model == "uniform_half" else 1
    check_work(factorial(n) * votes * n, "roll call enumeration")
    vals = v.inner.nums
    counts = [0] * n
    full = (1 << n) - 1
    if vote_model == "all_yes":
        for pi in itertools.permutations(range(n)):
            m = 0
            for pos in pi:
                m |= 1 << pos
                if vals[m] == 1:
                    counts[pos] += 1
                    break
        return _exact(Fraction(c, factorial(n)) for c in counts)
    if vote_model == "uniform_half":
        for pi in itertools.permutations(range(n)):
            for x in range(1 << n):
                yes, rest = 0, full
                for pos in pi:
                    bit = 1 << pos
                    rest ^= bit
                    if x & bit:
                        yes |= bit
                    if vals[yes] == vals[yes | rest]:
                        counts[pos] += 1
                        break
        return _exact(Fraction(c, factorial(n) * (1 << n)) for c in counts)
    raise ValueError(f"unknown vote model {vote_model!r}")


def jk_ssi_pivot(v: JKGame) -> PowerVector:
    """Index by roll-call uncertainty reduction: each voter is credited with
    the number of output levels their vote rules out, over all orderings and
    approval profiles."""
    n, j, k = v.n, v.j, v.k
    # n! orderings times j^n approval profiles, n votes each
    check_work(factorial(n) * j ** n * n, "pivot enumeration")
    counts = [0] * n
    for pi in itertools.permutations(range(n)):
        for x in itertools.product(range(j), repeat=n):
            lo_prof = [0] * n
            hi_prof = [j - 1] * n
            lo, hi = 0, k - 1
            for pos in pi:
                lo_prof[pos] = x[pos]
                hi_prof[pos] = x[pos]
                new_lo = v.values[tuple(lo_prof)]
                new_hi = v.values[tuple(hi_prof)]
                counts[pos] += (hi - lo) - (new_hi - new_lo)
                lo, hi = new_lo, new_hi
    denom = factorial(n) * j ** n * (k - 1)
    return _exact(Fraction(c, denom) for c in counts)


def _jk_ends(v: JKGame) -> tuple[list[int], int]:
    flat = [v.values[x] for x in v.profiles()]
    return _ends_table(flat, v.j, [1] * v.j, v.n, v.k - 1)


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
    n, top = g.n, 2 * g.p
    widths = [b - a for a, b in zip(g.disc.alpha, g.disc.alpha[1:])]
    nums, den = box_numerators(g)
    gaps, scale = _ends_table(nums, g.p, on_one_denominator(widths)[0], n, den)
    table = {t: Fraction(x, scale) for t, x in enumerate(gaps)}
    pinned = {(0,) * n: Fraction(0), (top,) * n: Fraction(1), **g.faces}
    for d, val in pinned.items():
        side = {di for di in d if di % 2 == 0}
        if side == {0} or side == {top}:
            box = tuple(min(max(di, 1), top - 1) for di in d)
            vol = prod((widths[di // 2] for di in d if di % 2), start=Fraction(1))
            t = sum(1 << i for i, di in enumerate(d) if di % 2 == 0)
            gap = vol * (val - g.boxes[box])
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


def phi_two_player(a: Sequence, v: StepGame) -> PowerVector:
    """The two-voter family Phi^a_i = a_i + a_j C(v,{i}) - a_i C(v,{j})."""
    if v.n != 2:
        raise ValueError("defined for two-player games only")
    a1, a2 = (Fraction(x) for x in a)
    if a1 < 0 or a2 < 0 or a1 + a2 != 1:
        raise ValueError("parameters must be nonnegative and sum to 1")
    c = boundary_averages(v)
    c1, c2 = c.table[0b01], c.table[0b10]
    return _exact((a1 + a2 * c1 - a1 * c2, a2 + a1 * c2 - a2 * c1))


# ---------------------------------------------------------------------------
# black-box games

def _as_evaluable(v: EvaluableGame | StepGame) -> EvaluableGame:
    return step_game_evaluable(v) if isinstance(v, StepGame) else v


def psi_point(v: EvaluableGame | StepGame, alpha) -> PowerVector:
    """The single-profile variant: the ordering-weight sum over the pinned
    table c(T) = v(1_T, a) - v(0_T, a) at the constant profile a = alpha,
    instead of integrating over profiles."""
    n = v.n
    # two evaluations of an n-coordinate profile per coalition
    check_work(n << (n + 1), "point variant")
    a = Fraction(alpha)
    if a < 0 or a > 1:
        raise ValueError("alpha must lie in [0, 1]")
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


def psi_product_oracle(exponents: Sequence) -> PowerVector:
    """Closed form for v(x) = prod x_i^{a_i} with positive exponents:
    Psi_i = ((n-1)! + a_i * sum_{T not containing i} |T|!(n-1-|T|)! *
    prod_{j in T}(a_j+1)) / (n! * prod_j (a_j+1))."""
    a = [Fraction(e) for e in exponents]
    n = len(a)
    # n players times 2^(n-1) coalitions of the others, n - 1 factors each
    check_work(n * n * (1 << n) // 2, "product oracle")
    if any(e <= 0 for e in a):
        raise ValueError("exponents must be positive")
    lam = Fraction(1)
    for e in a:
        lam *= e + 1
    shares = []
    for i in range(n):
        others = [x for k, x in enumerate(a) if k != i]
        acc = Fraction(0)
        for t_mask in range(1 << (n - 1)):
            t = t_mask.bit_count()
            prod = Fraction(1)
            for k in range(n - 1):
                if t_mask >> k & 1:
                    prod *= others[k] + 1
            acc += factorial(t) * factorial(n - 1 - t) * prod
        shares.append((factorial(n - 1) + a[i] * acc) / (factorial(n) * lam))
    return _exact(shares)
