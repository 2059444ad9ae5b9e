"""Oracle-free invariants of psi on step games, which hold at any size:
duality and refinement.

The dual of v is v*(x) = 1 - v(1 - x).  Its pinned differences are v's,
v*(1_T, 1 - a) - v*(0_T, 1 - a) = v(1_T, a) - v(0_T, a), so
psi_exact(v*) = psi_exact(v) and psi_point(v*, 1 - a) = psi_point(v, a).
Refining the grid changes no value of the function, so neither index.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import face_values
from powerdex.indices import psi_exact, psi_point
from powerdex.sampling import random_regular_game
from powerdex.stepfun import Discretization, StepGame, refine
from test_stepgame_properties import dense_games


def dual(g: StepGame) -> StepGame:
    """v*(x) = 1 - v(1 - x): the grid reflected, each box and override
    moved to its mirror image (the row-major box list reversed, face d to
    2p - d) and each numerator x to den - x."""
    top = 2 * g.p
    disc = Discretization(tuple(1 - a for a in reversed(g.disc.alpha)))
    return StepGame(disc, g.n, [g.den - x for x in reversed(g.nums)], g.den,
                    {tuple(top - di for di in d): g.den - x
                     for d, x in g.overrides.items()}, g.tag)


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
        assert psi_exact(dual(g)) == psi_exact(g)
        if p == 2:
            for a in (F(0), F(1, 3), g.disc.alpha[1]):
                assert psi_point(dual(g), 1 - a) == psi_point(g, a)
