"""Property tests: every exact index that combines a coalition table goes
through one kernel, and every exact grid C-table through another, checked
here against independent oracles, the grid kernel also against the
three-entry contraction it replaced."""

import itertools
from fractions import Fraction as F
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_ends_table, dense_jk_boundary_averages
from powerdex.coalitions import CoalitionFunction, SimpleGame, random_monotone_jk
from powerdex.evaluables import step_game_evaluable
from powerdex.indices import (BoundaryAverages, _ends_table,
                              jk_boundary_averages, jk_ssi_marginal,
                              psi_from_c, psi_point, ssi_coalition)
from powerdex.oracles import jk_ssi_pivot, psi_product_oracle, ssi_roll_call
from powerdex.rational import on_one_denominator
from powerdex.sampling import random_regular_game

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=50)


@st.composite
def simple_games(draw, max_players=6):
    n = draw(st.integers(1, max_players))
    full = (1 << n) - 1
    generators = draw(st.lists(st.integers(1, full), min_size=1, max_size=4))
    return SimpleGame.from_winning(
        n, [[i + 1 for i in range(n) if g >> i & 1] for g in generators])


@st.composite
def rational_tables(draw, max_players=5):
    n = draw(st.integers(1, max_players))
    values = draw(st.lists(rationals, min_size=1 << n, max_size=1 << n))
    return CoalitionFunction(n, values)


def direct_sum(cf: CoalitionFunction) -> tuple:
    """sum over S containing i of (s-1)!(n-s)!/n! (v(S) - v(S - i))."""
    n = cf.n
    return tuple(
        sum(F(factorial(m.bit_count() - 1) * factorial(n - m.bit_count()),
              factorial(n)) * (cf.values[m] - cf.values[m ^ 1 << i])
            for m in range(1 << n) if m >> i & 1)
        for i in range(n))


def permutation_point(game, a) -> tuple:
    """psi_point by enumerating all n! orderings of the players."""
    n = game.n

    def val(ones: int, zeros: int):
        return game.eval_exact(tuple(F(1) if ones >> i & 1 else
                                     F(0) if zeros >> i & 1 else a
                                     for i in range(n)))

    shares = [F(0)] * n
    for pi in itertools.permutations(range(n)):
        rest = (1 << n) - 1
        for pos in pi:
            after = rest ^ 1 << pos
            shares[pos] += (val(rest, 0) - val(0, rest)) - \
                           (val(after, 0) - val(0, after))
            rest = after
    return tuple(s / factorial(n) for s in shares)


@settings(max_examples=60)
@given(simple_games())
def test_kernel_matches_roll_call(v):
    assert ssi_coalition(v) == ssi_roll_call(v, "all_yes")


@settings(max_examples=40)
@given(st.randoms(use_true_random=False),
       st.sampled_from([(1, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 4), (3, 2, 2),
                        (3, 3, 3), (4, 2, 2)]))
def test_kernel_matches_jk_pivot(rng, shape):
    v = random_monotone_jk(rng, *shape)
    assert jk_ssi_marginal(v) == jk_ssi_pivot(v)


@settings(max_examples=60)
@given(st.lists(st.fractions(min_value=F(1, 30), max_value=10,
                             max_denominator=30), min_size=1, max_size=10))
def test_product_oracle_matches_the_kernel_on_its_c_table(exponents):
    # v(x) = prod x_j^a_j: E[X^a] = 1/(a+1) for X uniform on [0, 1], and
    # v(0_T, .) = 0 for T nonempty, so C(T) = prod over j not in T of that
    n = len(exponents)
    c = [F(0)] + [F(1)] * ((1 << n) - 1)
    for t in range(1, 1 << n):
        for j, a in enumerate(exponents):
            if not t >> j & 1:
                c[t] /= a + 1
    assert (psi_product_oracle(exponents).shares
            == psi_from_c(BoundaryAverages(n, *on_one_denominator(c))).shares)


@settings(max_examples=80)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(2, 5),
       st.integers(2, 5))
def test_jk_c_table_matches_definition(rng, n, j, k):
    v = random_monotone_jk(rng, n, j, k)
    assert jk_boundary_averages(v).table == dense_jk_boundary_averages(v)


@settings(max_examples=100)
@given(rational_tables())
def test_kernel_matches_direct_sum_on_rational_tables(cf):
    assert ssi_coalition(cf).shares == direct_sum(cf)


def explicit_shares(nums: list[int], den: int, n: int) -> tuple:
    """The sum over S containing i of num[S] w(|S|), minus the sum over S
    without i of num[S] w(|S|+1), over n! * den, with w(s) = (s-1)!(n-s)!
    for 1 <= s <= n and w(n+1) = 0."""
    def w(s: int) -> int:
        return factorial(s - 1) * factorial(n - s) if s <= n else 0

    return tuple(F(sum(x * w(m.bit_count()) if m >> i & 1
                       else -x * w(m.bit_count() + 1)
                       for m, x in enumerate(nums)), factorial(n) * den)
                 for i in range(n))


@settings(max_examples=100)
@given(st.randoms(use_true_random=False), st.integers(1, 8),
       st.integers(1, 10 ** 6), st.integers(1, 10 ** 12))
def test_kernel_matches_the_explicit_sum_and_is_efficient(rng, n, den, size):
    # integer tables with negative entries, not monotone, over den >= 1
    nums = [rng.randrange(-size, size + 1) for _ in range(1 << n)]
    shares = psi_from_c(BoundaryAverages(n, nums, den)).shares
    assert shares == explicit_shares(nums, den, n)
    assert sum(shares) == F(nums[-1] - nums[0], den)


@settings(max_examples=60)
@given(st.integers(1, 7), st.data())
def test_kernel_matches_the_explicit_sum_and_roll_call_on_zero_one_tables(
        n, data):
    generators = data.draw(st.lists(st.integers(1, (1 << n) - 1),
                                    min_size=1, max_size=5))
    v = SimpleGame.from_winning(
        n, [[i + 1 for i in range(n) if g >> i & 1] for g in generators])
    nums = v.inner.nums
    assert set(nums) <= {0, 1} and v.inner.den == 1
    shares = psi_from_c(BoundaryAverages(n, nums, 1)).shares
    assert shares == explicit_shares(nums, 1, n)
    assert shares == ssi_roll_call(v, "all_yes").shares
    assert sum(shares) == nums[-1] - nums[0]


# pairwise coprime denominators near 2^20 and one Mersenne prime, so the
# common denominator of a table is a product of several of them
LARGE_DENOMINATORS = (999_983, 999_979, 1_000_003, 524_287)


@settings(max_examples=30)
@given(st.randoms(use_true_random=False), st.integers(1, 10))
def test_kernel_matches_direct_sum_with_large_denominators(rng, n):
    cf = CoalitionFunction(n, [
        F(rng.randrange(-10 ** 9, 10 ** 9), rng.choice(LARGE_DENOMINATORS))
        for _ in range(1 << n)])
    assert ssi_coalition(cf).shares == direct_sum(cf)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(2, 4), st.data())
def test_ends_table_matches_the_three_entry_contraction_on_jk_tables(rng, j,
                                                                      data):
    n = data.draw(st.integers(1, {2: 9, 3: 6, 4: 5}[j]))
    k = data.draw(st.integers(2, 6))
    v = random_monotone_jk(rng, n, j, k)
    nums, den = _ends_table(v.levels, j, [1] * j, n, k - 1)
    assert ({t: F(x, den) for t, x in enumerate(nums)}
            == dense_ends_table(v.levels, j, [1] * j, n, k - 1))


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.data())
def test_ends_table_matches_the_three_entry_contraction_on_step_boxes(rng, p,
                                                                      data):
    # breakpoints on distinct large primes, so the widths are coprime
    # numerators over their product, and box values over large denominators
    n = data.draw(st.integers(1, {1: 8, 2: 7, 3: 5, 4: 4}[p]))
    cuts = sorted(F(rng.randrange(1, q), q)
                  for q in rng.sample(LARGE_DENOMINATORS, p - 1))
    alpha = [F(0), *cuts, F(1)]
    widths, _ = on_one_denominator([b - a for a, b in zip(alpha, alpha[1:])])
    nums, den = on_one_denominator(
        [F(rng.randrange(-10 ** 9, 10 ** 9), rng.choice(LARGE_DENOMINATORS))
         for _ in range(p ** n)])
    gaps, scale = _ends_table(nums, p, widths, n, den)
    assert ({t: F(x, scale) for t, x in enumerate(gaps)}
            == dense_ends_table(nums, p, widths, n, den))


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 3),
       st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_point_variant_matches_permutation_sum(rng, n, p, a):
    g = random_regular_game(rng, n, p)
    assert psi_point(g, a).shares == permutation_point(step_game_evaluable(g), a)
