import itertools
from fractions import Fraction as F
from unittest import mock

import pytest

from powerdex.coalitions import (CoalitionFunction, JKGame, SimpleGame,
                                 all_simple_games, random_monotone_jk)
from powerdex.embeddings import embed_simple_semiregular
from powerdex.evaluables import EvaluableGame, step_game_evaluable
from powerdex.families import (counterexample_game, product_power_game,
                               weighted_mean_game, weighted_median_game)
from powerdex.indices import (boundary_averages, jk_boundary_averages,
                              jk_ssi_marginal, psi_exact, psi_mc, psi_point,
                              ssi_coalition)
from powerdex.oracles import (jk_ssi_pivot, phi_two_player,
                              psi_product_oracle, ssi_roll_call)
from powerdex.sampling import random_regular_game
from powerdex.stepfun import make_regular_step, uniform_grid, zero_game


def test_power_vector_compares_with_sequences_only():
    pv = ssi_coalition(SimpleGame.weighted(1, [1, 1]))
    assert pv == (F(1, 2), F(1, 2)) and pv == [F(1, 2), F(1, 2)]
    assert pv != (F(1, 2),) and pv != "ab" and pv != 1
    assert not pv == None and pv != None  # noqa: E711
    assert pv in [None, pv] and None not in [pv]


def test_ssi_weighted_examples():
    assert ssi_coalition(SimpleGame.weighted(3, [2, 1, 1])).shares == \
        (F(2, 3), F(1, 6), F(1, 6))
    assert ssi_coalition(SimpleGame.weighted(1, [1, 0, 0])).shares == \
        (F(1), F(0), F(0))


def test_ssi_supports_non_monotone_games():
    cf = CoalitionFunction.from_winning(3, [[1], [3], [1, 3], [1, 2, 3]],
                                        closure=False)
    shares = ssi_coalition(cf).shares
    assert shares[1] == F(-1, 3)
    assert sum(shares) == 1


def test_roll_call_examples():
    sym = SimpleGame.weighted(2, [1, 1, 1])
    assert ssi_roll_call(sym, "all_yes").shares == (F(1, 3),) * 3
    big = SimpleGame.weighted(3, [2, 1, 1])
    assert ssi_roll_call(big, "uniform_half").shares == (F(2, 3), F(1, 6), F(1, 6))
    dic = SimpleGame.weighted(1, [1, 0, 0])
    for model in ("all_yes", "uniform_half"):
        assert ssi_roll_call(dic, model).shares == (F(1), F(0), F(0))


def test_roll_call_equals_coalition_form_exhaustively():
    for n in range(1, 5):
        for v in all_simple_games(n):
            reference = ssi_coalition(v)
            assert ssi_roll_call(v, "all_yes") == reference
            assert ssi_roll_call(v, "uniform_half") == reference


def _threshold_jk():
    return JKGame(2, 3, 2, [int(x + y >= 3) for x, y in
                            itertools.product(range(3), repeat=2)])


def test_jk_pivot_examples():
    two = JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))
    assert jk_ssi_pivot(two).shares == (F(1, 2), F(1, 2))
    jk = _threshold_jk()
    assert jk_ssi_pivot(jk) == jk_ssi_marginal(jk)
    assert jk_ssi_pivot(jk).shares == (F(1, 2), F(1, 2))
    # ignored coordinate gets zero
    null2 = JKGame(2, 2, 2, [0, 0, 1, 1])
    assert jk_ssi_pivot(null2).shares[1] == 0


def test_jk_marginal_examples():
    embed = JKGame.from_simple(SimpleGame.weighted(3, [2, 1, 1]))
    assert jk_ssi_marginal(embed).shares == (F(2, 3), F(1, 6), F(1, 6))
    c = jk_boundary_averages(embed).table
    assert c[0] == 0 and c[0b111] == 1
    sym3 = JKGame(2, 3, 3, list(map(min, itertools.product(range(3), repeat=2))))
    assert jk_ssi_marginal(sym3).shares == (F(1, 2), F(1, 2))


def test_jk_forms_agree_on_random_games(rng):
    for _ in range(200):
        v = random_monotone_jk(rng, rng.randrange(1, 4),
                               rng.randrange(2, 4), rng.randrange(2, 4))
        pivot = jk_ssi_pivot(v)
        assert pivot == jk_ssi_marginal(v)
        assert sum(pivot.shares) == 1
        assert all(s >= 0 for s in pivot.shares)


def test_boundary_averages_appendix(appendix):
    c = boundary_averages(appendix)
    assert c.get([1]) == F(1, 2)
    assert c.get([2]) == F(3, 8)
    assert c.get([]) == 0
    assert c.get([1, 2]) == 1
    for bad in ([1, 1], [3], [0]):
        with pytest.raises(ValueError):
            c.get(bad)


def test_boundary_averages_monotone_in_coalition(rng):
    for _ in range(20):
        g = random_regular_game(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        table = boundary_averages(g).table
        assert table[0] == 0
        assert table[(1 << g.n) - 1] == 1
        for mask, val in table.items():
            assert 0 <= val <= 1
            for i in range(g.n):
                if not mask >> i & 1:
                    assert val <= table[mask | 1 << i]


def test_psi_exact_takes_the_widths_without_a_fraction_subtraction():
    # the interval widths are integer differences of the breakpoints over
    # one denominator; a Fraction subtraction per interval took seconds
    # at a million intervals
    p = 10_000
    g = make_regular_step(uniform_grid(p), {(2 * k + 1,): F(k, p - 1)
                                            for k in range(p)}, 1)
    subtract, calls = F.__sub__, []

    def counted(a, b):
        calls.append(None)
        return subtract(a, b)

    with mock.patch.object(F, "__sub__", counted):
        shares = psi_exact(g).shares
    assert len(calls) == 0 and shares == (1,)


def test_boundary_averages_are_read_by_coalition_not_by_index(appendix):
    # a record, not a tuple: a coalition mask used as an index does not
    # quietly return one of its fields
    maj = JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))
    for c in (jk_boundary_averages(maj), boundary_averages(appendix)):
        for mask in (0, 0b01, 0b11):
            with pytest.raises(TypeError):
                c[mask]
    assert jk_boundary_averages(maj).get([1]) == F(1, 2)


def test_every_exact_index_carries_its_c_table(appendix):
    v = SimpleGame.weighted(3, [2, 1, 1])
    assert ssi_coalition(v).c_table == dict(enumerate(v.inner.nums))
    jk = JKGame.from_simple(v)
    assert jk_ssi_marginal(jk).c_table == jk_boundary_averages(jk).table
    assert psi_exact(appendix).c_table == boundary_averages(appendix).table
    # both psi_point branches hold the pinned table c(T) at the profile
    ev = step_game_evaluable(appendix)
    for a in (F(0), F(1, 3), F(1, 2), F(1)):
        step = psi_point(appendix, a).c_table
        assert step == psi_point(ev, a).c_table
        assert step[0b01] == ev.eval_exact((1, a)) - ev.eval_exact((0, a))


def test_psi_exact_examples(appendix):
    assert psi_exact(appendix).shares == (F(9, 16), F(7, 16))
    for n in range(1, 5):
        assert psi_exact(zero_game(n)).shares == (F(1, n),) * n


def test_psi_exact_null_and_symmetry_invariants(rng):
    from powerdex.axioms import find_null_players, find_symmetric_pairs, null_extension
    for _ in range(100):
        g = random_regular_game(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        shares = psi_exact(g).shares
        assert sum(shares) == 1
        assert all(s >= 0 for s in shares)
        extended = null_extension(g, rng.randrange(1, g.n + 2))
        ext_shares = psi_exact(extended).shares
        for i in find_null_players(extended):
            assert ext_shares[i - 1] == 0
        for i, j in find_symmetric_pairs(g):
            assert shares[i - 1] == shares[j - 1]


def test_psi_point_counterexample_closed_form():
    v = counterexample_game(2)
    for a in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        gap = (a - a * a) / 2
        assert psi_point(v, a).shares == (F(1, 2) - gap, F(1, 2) + gap)


def test_psi_point_at_zero_matches_classical_index():
    v = SimpleGame.weighted(3, [2, 1, 1])
    emb = embed_simple_semiregular(v)
    assert psi_point(emb, 0).shares == ssi_coalition(v).shares


def test_psi_point_is_efficient(rng):
    for _ in range(10):
        g = random_regular_game(rng, rng.randrange(1, 4), 2)
        assert sum(psi_point(g, F(1, 3)).shares) == 1


def test_psi_point_hands_the_exact_callable_built_fraction_points():
    # psi_point builds its points itself, so they skip eval_exact's checks;
    # the game still sees two n-tuples of Fractions in [0, 1] per coalition
    inner = weighted_mean_game([F(1, 2), F(1, 3), F(1, 6)])
    seen = []

    def exact(x):
        seen.append(x)
        return inner.eval_exact(x)
    game = EvaluableGame(3, exact, None)
    a = F(2, 7)
    pv = psi_point(game, a)
    assert len(seen) == 2 * (2 ** 3 - 1)
    assert all(type(x) is tuple and len(x) == 3 for x in seen)
    assert all(type(c) is F and 0 <= c <= 1 for x in seen for c in x)
    # an additive game's shares are its weights
    assert pv.shares == (F(1, 2), F(1, 3), F(1, 6))
    with pytest.raises(NotImplementedError):
        psi_point(EvaluableGame(2, None, None, name="floats only"), a)


@pytest.mark.parametrize("n", [0, -1, 2.0, True], ids=repr)
def test_evaluable_game_refuses_a_player_count_below_one_or_not_an_int(n):
    with pytest.raises(ValueError) as refused:
        EvaluableGame(n, lambda x: x[0], lambda pts: pts[:, 0])
    assert str(refused.value) == (
        f"player count must be an integer >= 1, not {n!r}")


def test_eval_exact_keeps_its_checks():
    game = weighted_mean_game([F(1, 2), F(1, 2)])
    assert game.eval_exact([0, "1/2"]) == F(1, 4)
    with pytest.raises(ValueError, match="^point outside the unit cube$"):
        game.eval_exact([F(1, 2), F(3, 2)])
    with pytest.raises(ValueError, match="point has 1 coordinates"):
        game.eval_exact([F(1, 2)])
    with pytest.raises(NotImplementedError):
        EvaluableGame(2, None, None).eval_exact([0, 0])


def test_product_oracle_examples():
    assert psi_product_oracle([1, 2]).shares == (F(5, 12), F(7, 12))
    assert psi_product_oracle([1, 1, 1, 1]).shares == (F(1, 4),) * 4
    with pytest.raises(ValueError):
        psi_product_oracle([1, 0])


def test_product_oracle_agrees_with_mc():
    oracle = psi_product_oracle([1, 2, 3]).shares
    pv = psi_mc(product_power_game([1, 2, 3]), 200_000, seed=12)
    for est, err, target in zip(pv.shares, pv.stderr, oracle):
        assert abs(est - float(target)) <= 3 * err


def test_enumeration_caps_raise():
    with pytest.raises(ValueError):
        ssi_roll_call(SimpleGame.weighted(5, [1] * 9), "uniform_half")
    big = list(map(max, itertools.product(range(3), repeat=6)))
    with pytest.raises(ValueError):
        jk_ssi_pivot(JKGame(6, 3, 3, big))


def test_phi_two_player_examples(appendix):
    assert phi_two_player((F(1, 2), F(1, 2)), appendix).shares == \
        psi_exact(appendix).shares
    assert phi_two_player((1, 0), appendix).shares == (F(5, 8), F(3, 8))
    # a null second player forces everything to player 1
    from powerdex.axioms import null_extension
    from powerdex.stepfun import Discretization, make_regular_step
    disc = Discretization((F(0), F(1, 2), F(1)))
    one = make_regular_step(disc, {(1,): F(1, 4), (3,): F(3, 4)}, 1)
    null2 = null_extension(one, 2)
    assert phi_two_player((0, 1), null2).shares == (F(1), F(0))


def test_psi_mc_weighted_mean_recovers_weights():
    game = weighted_mean_game([F(3, 10), F(7, 10)])
    pv = psi_mc(game, 200_000, seed=5)
    for est, err, target in zip(pv.shares, pv.stderr, (0.3, 0.7)):
        assert abs(est - target) <= max(4 * err, 1e-12)


def test_psi_mc_matches_exact_on_step_games(rng):
    for trial in range(20):
        g = random_regular_game(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        exact = psi_exact(g).shares
        pv = psi_mc(g, 100_000, seed=100 + trial)
        for est, err, target in zip(pv.shares, pv.stderr, exact):
            assert abs(est - float(target)) <= 4 * err + 1e-9


def test_psi_mc_appendix_converges_to_exact(appendix):
    pv = psi_mc(appendix, 100_000, seed=77)
    for est, err, target in zip(pv.shares, pv.stderr, (9 / 16, 7 / 16)):
        assert abs(est - target) <= 4 * err


def test_psi_mc_deterministic_per_seed():
    game = counterexample_game(3)
    a = psi_mc(game, 10_000, seed=3)
    b = psi_mc(game, 10_000, seed=3)
    assert a.shares == b.shares and a.stderr == b.stderr


def test_psi_mc_custom_sampler_hook():
    game = counterexample_game(2)
    pv = psi_mc(game, 5_000, seed=1,
                sampler=lambda rng, m, n: rng.random((m, n)) ** 1.0)
    assert len(pv.shares) == 2


def test_weighted_median_game_is_sane():
    med = weighted_median_game([F(1, 3), F(1, 3), F(1, 3)])
    assert med.eval_exact((F(1, 4), F(1, 2), F(3, 4))) == F(1, 2)
    assert med.eval_exact((0, 0, 0)) == 0
    assert med.eval_exact((1, 1, 1)) == 1
    pv = psi_mc(med, 50_000, seed=9)
    assert all(abs(est - 1 / 3) < 0.02 for est in pv.shares)
