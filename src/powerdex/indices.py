"""Power indices: the classical ordering-based index for coalition games,
its (j,k)-level generalizations, and the boundary-average index for games on
the unit cube (exact on step games, Monte-Carlo for black boxes).

Everything except the Monte-Carlo estimator is exact rational arithmetic,
and only that estimator imports numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, prod
from operator import mul
from typing import Mapping, Sequence

from .budget import check_work
from .coalitions import CoalitionFunction, JKGame, SimpleGame, mask_of
from .evaluables import EvaluableGame, step_game_evaluable
from .rational import ordering_weight
from .stepfun import StepGame

# psi_mc holds one float64 per sample and coalition: 2^27 cells are 1 GiB
MAX_MC_CELLS = 1 << 27


@dataclass
class PowerVector:
    """Per-player shares, exact rationals or MC estimates with errors."""

    shares: tuple
    mode: str = "exact"
    stderr: tuple | None = None
    samples: int | None = None
    seed: int | None = None
    c_table: dict | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.shares)

    def total(self):
        return sum(self.shares)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PowerVector):
            return self.mode == other.mode and self.shares == other.shares
        return tuple(self.shares) == tuple(other)


@dataclass
class BoundaryAverages:
    """The table T -> C(v, T): average outcome gap between coalition T at
    full support and at no support, keyed by coalition bitmask."""

    n: int
    table: dict[int, Fraction]

    def get(self, players) -> Fraction:
        return self.table[mask_of(players, self.n)]


def _exact(shares) -> PowerVector:
    return PowerVector(tuple(Fraction(s) for s in shares), "exact")


def _on_one_denominator(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of ``xs`` over their least common denominator, and
    that denominator."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def psi_from_c(c: Mapping[int, Fraction] | Sequence[Fraction],
               n: int) -> PowerVector:
    """Combine a C-table with the ordering weights (s-1)!(n-s)!/n!.

    ``c`` holds a rational for every coalition bitmask 0..2^n-1.  The sum
    runs in integers: the table goes on one common denominator, the
    numerator differences are summed per coalition size and the n weights
    are applied once at the end.
    """
    full = 1 << n
    nums, den = _on_one_denominator([c[m] for m in range(full)])
    sizes = [m.bit_count() for m in range(full)]
    # by_size[s]: sum of the numerators of all coalitions of size s
    by_size = [0] * (n + 1)
    for x, s in zip(nums, sizes):
        by_size[s] += x
    weights = [factorial(s - 1) * factorial(n - s) for s in range(1, n + 1)]
    shares = []
    for i in range(n):
        bit = 1 << i
        # with_i[s]: the same sum over the coalitions of size s containing i
        with_i = [0] * (n + 1)
        for lo in range(bit, full, bit << 1):
            for x, s in zip(nums[lo:lo + bit], sizes[lo:lo + bit]):
                with_i[s] += x
        # sum over S containing i of c[S] - c[S - i], by size s = |S|
        acc = sum(w * (with_i[s] - (by_size[s - 1] - with_i[s - 1]))
                  for s, w in enumerate(weights, 1))
        shares.append(Fraction(acc, factorial(n) * den))
    return _exact(shares)


def _ends_table(flat: list[int], m: int, weights: Sequence[int], n: int,
                den: int) -> dict[int, Fraction]:
    """The C-table of an integer table on the grid (m,)^n, stored row-major
    (first coordinate slowest) over the denominator ``den``.

    Each axis is contracted to three entries: its last entry, its first
    entry and its ``weights``-weighted sum.  C(T) is the entry with T at
    last and every free axis summed, minus the one with T at first, over
    ``den * sum(weights) ** free``.
    """
    for _ in range(n):
        # contract the last axis and move its three entries to the front
        rows = [flat[k:k + m] for k in range(0, len(flat), m)]
        flat = ([r[-1] for r in rows] + [r[0] for r in rows]
                + [sum(map(mul, weights, r)) for r in rows])
    summed, total = 3 ** n - 1, sum(weights)
    table = {}
    for t in range(1 << n):
        # T's axes read the base-3 digit 0 (last) or 1 (first), not 2 (sum)
        s = int(f"{t:0{n}b}"[::-1], 3)
        table[t] = Fraction(flat[summed - 2 * s] - flat[summed - s],
                            den * total ** (n - t.bit_count()))
    return table


# ---------------------------------------------------------------------------
# finite games

def ssi_coalition(v: CoalitionFunction | SimpleGame) -> PowerVector:
    """Ordering-based index from the coalition table; monotonicity is not
    required, so negative shares are possible for non-monotone inputs."""
    cf = v.inner if isinstance(v, SimpleGame) else v
    return psi_from_c(cf.values, cf.n)


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
    vals = v.inner.values
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


def jk_boundary_averages(v: JKGame) -> dict[int, Fraction]:
    """Discrete C(v,T): mean gap between full and zero approval of T, each
    free voter's level uniform on 0..j-1."""
    flat = [v.values[x] for x in v.profiles()]
    return _ends_table(flat, v.j, [1] * v.j, v.n, v.k - 1)


def jk_ssi_marginal(v: JKGame) -> PowerVector:
    """Same index through the discrete C-table instead of pivot counting."""
    return psi_from_c(jk_boundary_averages(v), v.n)


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
    nums, den = _on_one_denominator(
        [g.boxes[b] for b in itertools.product(range(1, top, 2), repeat=n)])
    table = _ends_table(nums, g.p, _on_one_denominator(widths)[0], n, den)
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
    out = psi_from_c(c, g.n)
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
    game = _as_evaluable(v)
    n = game.n
    # two evaluations of an n-coordinate profile per coalition
    check_work(n << (n + 1), "point variant")
    a = Fraction(alpha)
    if a < 0 or a > 1:
        raise ValueError("alpha must lie in [0, 1]")

    def pinned(t: int, side: int) -> Fraction:
        return game.eval_exact([side if t >> i & 1 else a for i in range(n)])
    c = [Fraction(0)] + [pinned(t, 1) - pinned(t, 0) for t in range(1, 1 << n)]
    return psi_from_c(c, n)


def psi_mc(v: EvaluableGame | StepGame, samples: int, seed: int,
           sampler=None) -> PowerVector:
    """Monte-Carlo estimate of the boundary-average index.

    One common batch of sample points serves every coalition T, which keeps
    the C-differences strongly correlated and the estimator variance low.
    ``sampler(rng, m, n)`` may supply points from an exchangeable density
    instead of the uniform default.  Deterministic for a given seed.

    The game is evaluated once per cell of ``game.cells``, and the per-cell
    arrays are expanded to one entry per sample only where they are
    averaged, so every per-sample float and every mean is the same as when
    each sample is evaluated on its own.
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
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = rng.random((samples, n)) if sampler is None else \
        np.asarray(sampler(rng, samples, n), dtype=np.float64)
    if len(pts) != samples:
        raise ValueError(f"sampler returned {len(pts)} points, not {samples}")
    reps, inverse = game.cells(pts)

    def per_sample(a: np.ndarray) -> np.ndarray:
        return a if inverse is None else a[inverse]

    deltas: dict[int, np.ndarray] = {0: np.zeros(len(reps))}
    for t_mask in range(1, 1 << n):
        cols = [i for i in range(n) if t_mask >> i & 1]
        hi = reps.copy()
        lo = reps.copy()
        hi[:, cols] = 1.0
        lo[:, cols] = 0.0
        deltas[t_mask] = game.eval_array(hi) - game.eval_array(lo)
    weights = {s: float(ordering_weight(s, n)) for s in range(1, n + 1)}
    estimates, errors = [], []
    for i in range(n):
        bit = 1 << i
        g_i = np.zeros(len(reps))
        for s_mask in range(1 << n):
            if s_mask & bit:
                w = weights[s_mask.bit_count()]
                g_i += w * (deltas[s_mask] - deltas[s_mask ^ bit])
        g_i = per_sample(g_i)
        estimates.append(float(g_i.mean()))
        spread = float(g_i.std(ddof=1)) if samples > 1 else 0.0
        errors.append(spread / samples ** 0.5)
    c_est = {m: float(per_sample(d).mean()) for m, d in deltas.items()}
    return PowerVector(tuple(estimates), "mc", tuple(errors),
                       samples=samples, seed=seed, c_table=c_est)


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
