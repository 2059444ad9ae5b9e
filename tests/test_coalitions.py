import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import jk_violation
from powerdex.coalitions import (Coalition, CoalitionFunction, JKGame,
                                 SimpleGame, all_simple_games,
                                 random_monotone_jk, random_simple_game)
from powerdex.indices import ssi_coalition


def test_coalition_basics():
    c = Coalition.of([1, 3], 3)
    assert c.players() == (1, 3)
    assert len(c) == 2 and 3 in c and 2 not in c
    with pytest.raises(ValueError):
        Coalition.of([4], 3)


def test_weighted_game_majority():
    v = SimpleGame.weighted(2, [1, 1, 1])
    assert v.value([1, 2]) == 1
    assert v.value([3]) == 0
    assert v.minimal_winning() == [(1, 2), (1, 3), (2, 3)]


def test_simple_game_rejects_non_monotone():
    cf = CoalitionFunction.from_winning(3, [[1], [1, 3], [1, 2, 3]],
                                        closure=False)
    assert not cf.is_monotone()
    with pytest.raises(ValueError):
        SimpleGame(cf)


def test_upward_closure():
    v = SimpleGame.from_winning(3, [[1, 2]])
    assert v.value([1, 2, 3]) == 1
    assert v.value([1, 3]) == 0


def test_maximal_losing_and_add_winning():
    u = SimpleGame.weighted(3, [2, 1, 1])
    masks = u.maximal_losing_masks()
    # {2,3} and {1} are the maximal losing coalitions
    assert sorted(masks) == [0b001, 0b110]
    v = u.add_winning(0b110)
    assert v.value([2, 3]) == 1


def test_jk_game_validation():
    vals = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    v = JKGame(2, 2, 2, vals)
    assert v.value((1, 1)) == 1
    bad = dict(vals)
    bad[(0, 1)] = 1
    bad[(1, 1)] = 0
    with pytest.raises(ValueError):
        JKGame(2, 2, 2, bad)


def test_simple_jk_round_trip():
    v = SimpleGame.weighted(3, [2, 1, 1])
    assert JKGame.from_simple(v).to_simple() == v


def test_exhaustive_counts():
    # monotone 0/1 games with fixed extremes: 1, 4, 18, 166 for n = 1..4
    assert [len(list(all_simple_games(n))) for n in range(1, 5)] == [1, 4, 18, 166]


def test_random_generators_produce_valid_games(rng):
    for _ in range(50):
        v = random_simple_game(rng, rng.randrange(2, 6))
        assert v.inner.is_monotone()
    for _ in range(50):
        jk = random_monotone_jk(rng, rng.randrange(1, 4),
                                rng.randrange(2, 4), rng.randrange(2, 4))
        assert jk.values[(0,) * jk.n] == 0


def test_zero_one_tables_keep_their_values_and_shares():
    # 0/1 tables are stored as integer numerators over one denominator, and
    # read back as the Fraction values given: no value or share moves
    n = 12
    cf = CoalitionFunction.from_winning(n, [[i] for i in range(1, 7)])
    assert cf.values == [Fraction(int(m & 0b111111 != 0)) for m in range(1 << n)]
    assert ssi_coalition(cf).shares == (Fraction(1, 6),) * 6 + (0,) * 6
    listed = CoalitionFunction.from_winning(3, [[1], [1, 3], [1, 2, 3]],
                                            closure=False)
    assert listed.values == [0, 1, 0, 0, 0, 1, 0, 1]
    assert ssi_coalition(listed).shares == (Fraction(5, 6), Fraction(-1, 6),
                                            Fraction(1, 3))
    weighted = SimpleGame.weighted(Fraction(5, 2), [2, 1, Fraction(1, 2)])
    assert weighted.inner.values == [0, 0, 0, 1, 0, 1, 0, 1]
    assert ssi_coalition(weighted).shares == (Fraction(2, 3), Fraction(1, 6),
                                              Fraction(1, 6))
    half = Fraction(1, 2)
    kept = CoalitionFunction(1, [0, half])
    assert kept.values[1] == half
    assert all(type(v) is Fraction for v in kept.values + cf.values)


def closure_oracle(n, winning) -> list:
    """The upward closure coalition by coalition: m wins when it contains
    a listed coalition."""
    masks = [sum(1 << (i - 1) for i in c) for c in winning]
    return [int(any(m & w == w for w in masks)) for m in range(1 << n)]


def monotone_oracle(cf) -> bool:
    return all(cf.values[m] <= cf.values[m | 1 << i]
               for m in range(1 << cf.n) for i in range(cf.n)
               if not m >> i & 1)


players = st.integers(1, 8)


@settings(max_examples=200)
@given(players.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(1, n)).map(sorted), max_size=5))))
def test_from_winning_matches_closure_oracle(drawn):
    n, winning = drawn
    assert CoalitionFunction.from_winning(n, winning).values == \
        closure_oracle(n, winning)


@settings(max_examples=200)
@given(players.flatmap(lambda n: st.tuples(
    st.fractions(-1, 12, max_denominator=4),
    st.lists(st.fractions(-1, 6, max_denominator=4), min_size=n, max_size=n))))
def test_weighted_matches_fraction_sums(drawn):
    quota, weights = drawn
    n = len(weights)
    table = [int(sum(w for i, w in enumerate(weights) if m >> i & 1) >= quota)
             for m in range(1 << n)]
    try:
        v = SimpleGame.weighted(quota, weights)
    except ValueError:
        # v(empty) = 1, v(N) = 0 or a negative weight breaking monotonicity
        cf = CoalitionFunction(n, table)
        assert table[0] == 1 or table[-1] == 0 or not monotone_oracle(cf)
    else:
        assert v.inner.values == table


@settings(max_examples=200)
@given(st.randoms(use_true_random=False), players, st.booleans())
def test_is_monotone_matches_pairwise_oracle(rng, n, by_size):
    values = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
              for _ in range(1 << n)]
    if by_size:
        # sorted along coalition size, then one entry lowered by chance:
        # monotone or not, near the boundary either way
        ranked = sorted(range(1 << n), key=int.bit_count)
        for m, x in zip(ranked, sorted(values)):
            values[m] = x
        if rng.random() < 0.5:
            values[rng.randrange(1 << n)] -= Fraction(1, 7)
    cf = CoalitionFunction(n, values)
    assert cf.is_monotone() == monotone_oracle(cf)


def test_n20_closure_and_weighted_n18_build_quickly():
    start = time.perf_counter()
    cf = CoalitionFunction.from_winning(20, [[i] for i in range(1, 11)])
    assert cf.values[0] == 0 and cf.values[1 << 10] == 0 and cf.values[1] == 1
    assert cf.values.count(1) == (1 << 20) - (1 << 10)
    rng = random.Random(18)
    weights = [rng.randrange(1, 20) for _ in range(18)]
    SimpleGame.weighted(sum(weights) // 2 + 1, weights)
    # about 0.05 s and 0.3 s on a 2-core machine; a loop over coalitions in
    # Python takes over 10 s for the two
    assert time.perf_counter() - start < 5


@settings(max_examples=200)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(2, 4),
       st.integers(2, 4), st.data())
def test_jk_game_words_the_first_violation_profile_by_profile(rng, n, j, k,
                                                              data):
    # a monotone table with a few profiles dropped or set to any level in
    # -1..k, so it may miss a profile, leave the range, move an extreme or
    # fall along any axis
    values = dict(random_monotone_jk(rng, n, j, k).values)
    profiles = sorted(values)
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.sampled_from(profiles))
        if data.draw(st.booleans()):
            values.pop(x, None)
        else:
            values[x] = data.draw(st.integers(-1, k))
    expected = jk_violation(n, j, k, values)
    if expected is None:
        assert JKGame(n, j, k, values).values == values
    else:
        with pytest.raises(ValueError) as refused:
            JKGame(n, j, k, values)
        assert str(refused.value) == expected


def test_jk_game_refuses_a_fall_along_its_last_axis_only():
    one = {(0,): 0, (1,): 2, (2,): 1, (3,): 2}
    with pytest.raises(ValueError) as refused:
        JKGame(1, 4, 3, one)
    assert str(refused.value) == "not monotone between (1,) and (2,)"
    # monotone along the first voter's axis, falling once along the second
    two = {(0, 0): 0, (0, 1): 1, (0, 2): 0, (1, 0): 1, (1, 1): 1, (1, 2): 1,
           (2, 0): 2, (2, 1): 2, (2, 2): 2}
    with pytest.raises(ValueError) as refused:
        JKGame(2, 3, 3, two)
    assert str(refused.value) == "not monotone between (0, 1) and (0, 2)"
