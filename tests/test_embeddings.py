import itertools
from fractions import Fraction as F

from powerdex.coalitions import (CoalitionFunction, JKGame, SimpleGame,
                                 all_simple_games, random_monotone_jk)
from powerdex.embeddings import (embed_2k_tau, embed_coalition_semiregular,
                                 embed_jk, embed_simple_semiregular)
from powerdex.indices import (boundary_averages, jk_boundary_averages,
                              jk_ssi_marginal, jk_ssi_pivot, psi_exact,
                              ssi_coalition)
from powerdex.axioms import find_null_players
from powerdex.stepfun import validate


def test_embed_jk_grid_shape():
    v = JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))
    g = embed_jk(v)
    assert g.disc.alpha == (F(0), F(1, 2), F(1))
    assert validate(g).ok
    assert psi_exact(g).shares == (F(1, 2), F(1, 2))


def test_embed_jk_threshold_example():
    vals = {x: (1 if x[0] + x[1] >= 3 else 0)
            for x in itertools.product(range(3), repeat=2)}
    v = JKGame(2, 3, 2, vals)
    g = embed_jk(v)
    assert g.disc.alpha == (F(0), F(1, 3), F(2, 3), F(1))
    assert psi_exact(g) == jk_ssi_pivot(v)


def test_embed_jk_preserves_null_players(rng):
    for _ in range(20):
        v = random_monotone_jk(rng, 2, 3, 2)
        base = embed_jk(v)
        nulls = find_null_players(base)
        shares = psi_exact(base).shares
        for i in nulls:
            assert shares[i - 1] == 0


def test_exhaustive_22_coincidence():
    for v in all_simple_games(3):
        g = embed_jk(JKGame.from_simple(v))
        assert psi_exact(g) == ssi_coalition(v)


def test_random_jk_coincidence(rng):
    for _ in range(100):
        v = random_monotone_jk(rng, rng.randrange(1, 4),
                               rng.randrange(2, 4), rng.randrange(2, 4))
        shares = psi_exact(embed_jk(v))
        assert shares == jk_ssi_pivot(v) == jk_ssi_marginal(v)


def test_tau_embedding_examples(rng):
    v = JKGame.from_simple(SimpleGame.weighted(3, [2, 1, 1]))
    for tau in (F(1, 4), F(1, 2), F(3, 4)):
        assert psi_exact(embed_2k_tau(v, tau)).shares == (F(2, 3), F(1, 6), F(1, 6))
    assert embed_2k_tau(v, F(1, 2)) == embed_jk(v)
    sym = JKGame(2, 2, 3, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2})
    assert psi_exact(embed_2k_tau(sym, F(3, 4))).shares == (F(1, 2), F(1, 2))


def test_tau_invariance_random(rng):
    for _ in range(50):
        v = random_monotone_jk(rng, rng.randrange(1, 4), 2, rng.randrange(2, 4))
        results = {tau: psi_exact(embed_2k_tau(v, tau)).shares
                   for tau in (F(1, 4), F(1, 2), F(3, 4))}
        assert len(set(results.values())) == 1


def test_c_tables_coincide_only_at_half(rng):
    # at tau = 1/2 the embedded boundary averages equal the discrete ones
    for _ in range(20):
        v = random_monotone_jk(rng, rng.randrange(1, 4), 2, rng.randrange(2, 4))
        emb = embed_2k_tau(v, F(1, 2))
        assert boundary_averages(emb).table == jk_boundary_averages(v)
    # a skewed grid moves at least one entry while shares stay equal
    maj = JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))
    discrete = jk_boundary_averages(maj)
    skew = embed_2k_tau(maj, F(1, 4))
    assert boundary_averages(skew).table != discrete
    assert boundary_averages(skew).table[0b01] == F(3, 4) != discrete[0b01]
    assert psi_exact(skew).shares == jk_ssi_marginal(maj).shares


def test_semiregular_embedding_examples():
    wg = SimpleGame.weighted(3, [2, 1, 1])
    g = embed_simple_semiregular(wg)
    assert validate(g).ok
    assert psi_exact(g) == ssi_coalition(wg)
    dic = SimpleGame.weighted(1, [1, 0, 0])
    assert psi_exact(embed_simple_semiregular(dic)).shares == (F(1), F(0), F(0))
    unanimity = SimpleGame.from_winning(4, [[1, 2, 3]])
    shares = psi_exact(embed_simple_semiregular(unanimity)).shares
    assert shares == (F(1, 3), F(1, 3), F(1, 3), F(0))


def test_semiregular_embedding_of_non_monotone_is_flagged():
    cf = CoalitionFunction.from_winning(3, [[1], [3], [1, 3], [1, 2, 3]],
                                        closure=False)
    g = embed_coalition_semiregular(cf)
    report = validate(g)
    assert not report.monotone


def test_embedding_of_six_level_games(rng):
    # the natural embedding of a j=6 game has 6 intervals per axis, which
    # make_regular_step used to reject although jk_ssi_marginal works
    for _ in range(5):
        v = random_monotone_jk(rng, 2, 6, 3)
        g = embed_jk(v)
        assert g.p == 6 and validate(g).ok
        assert psi_exact(g) == jk_ssi_marginal(v)
