"""Independent routes to the indices: the classical enumerators (roll call
over all orderings, (j,k) pivot counting), the closed form for products of
powers and the two-voter family Phi^a.

The tests check the fast kernels in ``indices`` against these; the
``rollcall`` and ``jk-ssi --form pivot`` subcommands run them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import TYPE_CHECKING, Sequence

from .budget import check_work
from .indices import PowerVector, boundary_averages
from .rational import on_one_denominator

if TYPE_CHECKING:
    from .coalitions import JKGame, SimpleGame
    from .stepfun import StepGame


def _exact(shares) -> PowerVector:
    return PowerVector(tuple(Fraction(s) for s in shares), "exact")


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
    levels, strides = v.levels, [j ** (n - 1 - i) for i in range(n)]
    top, orders = j ** n - 1, list(itertools.permutations(range(n)))
    for x in itertools.product(range(j), repeat=n):
        up = [xi * s for xi, s in zip(x, strides)]
        down = [(j - 1 - xi) * s for xi, s in zip(x, strides)]
        for pi in orders:
            # the rows with the uncast votes at the lowest and highest level
            lo_row, hi_row, gap = 0, top, k - 1
            for pos in pi:
                lo_row += up[pos]
                hi_row -= down[pos]
                new_gap = levels[hi_row] - levels[lo_row]
                counts[pos] += gap - new_gap
                gap = new_gap
    denom = factorial(n) * j ** n * (k - 1)
    return _exact(Fraction(c, denom) for c in counts)


def phi_two_player(a: Sequence, v: StepGame) -> PowerVector:
    """The two-voter family Phi^a_i = a_i + a_j C(v,{i}) - a_i C(v,{j})."""
    if v.n != 2:
        raise ValueError("defined for two-player games only")
    a1, a2 = (Fraction(x) for x in a)
    if a1 < 0 or a2 < 0 or a1 + a2 != 1:
        raise ValueError("parameters must be nonnegative and sum to 1")
    c = boundary_averages(v)
    c1, c2 = c.get([1]), c.get([2])
    return _exact((a1 + a2 * c1 - a1 * c2, a2 + a1 * c2 - a2 * c1))


def psi_product_oracle(exponents: Sequence) -> PowerVector:
    """Closed form for v(x) = prod x_i^{a_i} with positive exponents:
    Psi_i = ((n-1)! + a_i * sum_{T not containing i} |T|!(n-1-|T|)! *
    prod_{j in T}(a_j+1)) / (n! * prod_j (a_j+1)).

    With b_j = a_j + 1 the sum over T is sum_t t!(n-1-t)! e_t(b without
    b_i), e_t the elementary symmetric sums: those of all b are built once
    and b_i is divided out by f_t = e_t - b_i f_{t-1}.  All in integers over
    the exponents' common denominator D, which the weights carry as
    D^(n-1-t)."""
    a = [Fraction(e) for e in exponents]
    n = len(a)
    # n elementary sums per player, on integers of about n log2(n D) bits:
    # charged n^3 log(n D) / log(n), as their cost grows with n and D too.
    # n^3 alone is charged first, so that D is computed for few exponents
    check_work(n ** 3, "product oracle")
    if any(e <= 0 for e in a):
        raise ValueError("exponents must be positive")
    nums, den = on_one_denominator(a)
    check_work(n ** 3 * (n * den).bit_length() // (n.bit_length() or 1),
               "product oracle")
    b = [x + den for x in nums]
    e = [1] + [0] * n
    for k, x in enumerate(b, 1):
        for t in range(k, 0, -1):
            e[t] += x * e[t - 1]
    w = [factorial(t) * factorial(n - 1 - t) * den ** (n - 1 - t) for t in range(n)]
    shares = []
    for a_i, b_i in zip(nums, b):
        f, acc = 1, w[0]
        for t in range(1, n):
            f = e[t] - b_i * f
            acc += w[t] * f
        shares.append(Fraction(factorial(n - 1) * den ** n + a_i * acc,
                               factorial(n) * prod(b)))
    return _exact(shares)
