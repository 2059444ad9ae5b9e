"""Oracle-free invariants of psi, which hold at any size: duality,
refinement and linearity.

The dual of v is v*(x) = 1 - v(1 - x).  Its pinned differences are v's,
v*(1_T, 1 - a) - v*(0_T, 1 - a) = v(1_T, a) - v(0_T, a), so
psi_exact(v*) = psi_exact(v) and psi_point(v*, 1 - a) = psi_point(v, a).
The same holds for a coalition function, mu*(S) = mu(N) - mu(N minus S)
(Shapley, 1953), and for a (j,k) game, level x -> k - 1 - x at the
reversed profile.  Refining the grid changes no value of the function, so
neither index.  Both indices are linear in the values of the game.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import face_values
from powerdex.coalitions import (CoalitionFunction, JKGame,
                                 random_monotone_jk)
from powerdex.indices import (jk_ssi_marginal, psi_exact, psi_point,
                              ssi_coalition)
from powerdex.sampling import random_regular_game
from powerdex.stepfun import Discretization, StepGame, face_table, refine
from powerdex.transforms import from_face_table
from test_stepgame_properties import dense_games


def dual(g: StepGame) -> StepGame:
    """v*(x) = 1 - v(1 - x): the grid reflected, each box and override
    moved to its mirror image (the row-major box list reversed, face d to
    2p - d, so face position k to the last position minus k) and each
    numerator x to den - x."""
    disc = Discretization(tuple(1 - a for a in reversed(g.disc.alpha)))
    return StepGame(disc, g.n, [g.den - x for x in reversed(g.nums)], g.den,
                    {g.corner - k: g.den - x for k, x in g.overrides.items()},
                    g.tag)


def alphas(g: StepGame):
    """A point on the axis: a breakpoint (0 and 1 among them) or any
    rational in [0, 1]."""
    return (st.sampled_from(g.disc.alpha)
            | st.fractions(0, 1, max_denominator=60))


@settings(max_examples=60)
@given(dense_games(), st.data())
def test_the_dual_game_has_the_same_index(case, data):
    g, table = case
    d = dual(g)
    top = 2 * g.p
    assert face_values(d) == {tuple(top - di for di in f): 1 - x
                              for f, x in table.items()}
    assert dual(d) == g
    assert psi_exact(d) == psi_exact(g)
    a = data.draw(alphas(g))
    assert psi_point(d, 1 - a) == psi_point(g, a)


@settings(max_examples=60)
@given(dense_games(), st.data())
def test_refining_the_grid_keeps_both_indices(case, data):
    g, _ = case
    cuts = data.draw(st.lists(st.fractions(0, 1, max_denominator=30),
                              max_size=3))
    finer = g.disc.merge(Discretization((0, *sorted(set(cuts) - {0, 1}), 1)))
    fine = refine(g, finer)
    assert psi_exact(fine) == psi_exact(g)
    a = data.draw(alphas(g))
    assert psi_point(fine, a) == psi_point(g, a)


def test_duality_on_the_largest_regular_grids():
    rng = random.Random(31)
    for n, p in ((13, 1), (13, 1), (9, 2), (9, 2)):
        g = random_regular_game(rng, n, p)
        if p == 1:
            # one box gives every player 1/n: move a boundary face of
            # players 2 and 4 at 1 and of player 3 at 0, so that the
            # shares differ
            b, face = g.box((1,) * n), (1,) * (n - 1)
            g = g.with_values({face[:1] + (2,) + face[1:]: (1 + b) / 2,
                               face[:2] + (0,) + face[2:]: b / 2,
                               face[:3] + (2,) + face[3:]: (3 + b) / 4})
            assert len(set(psi_exact(g).shares)) > 1
        assert psi_exact(dual(g)) == psi_exact(g)
        if p == 2:
            for a in (F(0), F(1, 3), g.disc.alpha[1]):
                assert psi_point(dual(g), 1 - a) == psi_point(g, a)


@settings(max_examples=60)
@given(dense_games(), st.randoms(use_true_random=False),
       st.fractions(0, 1, max_denominator=12), st.data())
def test_both_indices_are_linear_on_a_common_grid(case, rng, a, data):
    u, _ = case
    side = (2 * u.p + 1) ** u.n
    v = from_face_table(u.disc, u.n, [rng.randrange(-6, 30) for _ in
                                      range(side)], 24, "raw")
    (un, ud), (vn, vd) = face_table(u), face_table(v)
    # a u + (1 - a) v, face by face, over ud * vd * a.denominator
    an, ad = a.numerator, a.denominator
    mix = from_face_table(u.disc, u.n, [an * x * vd + (ad - an) * y * ud
                                        for x, y in zip(un, vn)],
                          ud * vd * ad, "raw")

    def blend(x, y):
        return tuple(a * s + (1 - a) * t for s, t in zip(x.shares, y.shares))
    assert psi_exact(mix).shares == blend(psi_exact(u), psi_exact(v))
    b = data.draw(alphas(u))
    assert psi_point(mix, b).shares == blend(psi_point(u, b), psi_point(v, b))


@settings(max_examples=60)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_the_dual_coalition_function_has_the_same_index(n, rng):
    # mu*(S) = mu(N) - mu(N minus S): the table reversed, as N minus S is
    # S's complement mask
    mu = CoalitionFunction(n, [F(rng.randrange(-9, 10), rng.randrange(1, 7))
                               for _ in range(1 << n)])
    dual_mu = CoalitionFunction(n, [mu.nums[-1] - x for x in reversed(mu.nums)],
                                mu.den)
    assert ssi_coalition(dual_mu) == ssi_coalition(mu)


def test_the_dual_jk_game_has_the_same_index_at_14_players():
    rng = random.Random(12)
    for j, k in ((2, 3), (2, 5)):
        v = random_monotone_jk(rng, 14, j, k)
        # the reversed profile is the reversed row-major position
        dual_v = JKGame(14, j, k, [k - 1 - x for x in reversed(v.levels)])
        assert jk_ssi_marginal(dual_v) == jk_ssi_marginal(v)
