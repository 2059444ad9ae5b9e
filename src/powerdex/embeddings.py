"""Embeddings of finite committee games as step games on the unit cube.

The three constructions preserve the power distribution: the finite game's
index equals the exact index of its embedding.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coalitions import CoalitionFunction, JKGame, SimpleGame
from .stepfun import (Discretization, Face, StepGame, TAG_SEMI_REGULAR,
                      check_grid, make_regular_step, uniform_grid)


def _embed_on(v: JKGame, disc: Discretization) -> StepGame:
    """The box at level profile e worth v(e)/(k-1) on a grid with j boxes
    per axis, lower-dimensional faces averaged."""
    check_grid(v.n, disc.p)
    boxes = {tuple(2 * ei + 1 for ei in e): Fraction(v.values[e], v.k - 1)
             for e in v.profiles()}
    return make_regular_step(disc, boxes, v.n)


def embed_jk(v: JKGame) -> StepGame:
    """Natural embedding: the uniform grid with j boxes per axis."""
    return _embed_on(v, uniform_grid(v.j))


def embed_2k_tau(v: JKGame, tau) -> StepGame:
    """Two-level games on the skewed grid (0, tau, 1); the index of the
    embedding is independent of tau."""
    if v.j != 2:
        raise ValueError("tau embedding requires j = 2")
    t = Fraction(tau)
    if not 0 < t < 1:
        raise ValueError("tau must lie strictly between 0 and 1")
    return _embed_on(v, Discretization((Fraction(0), t, Fraction(1))))


def embed_coalition_semiregular(cf: CoalitionFunction) -> StepGame:
    """Winning-set embedding on the single-box grid (0, 1): a face is worth
    the coalition value of the players pinned at 1.  Accepts non-monotone
    tables, which makes the monotonicity guard in ``validate`` observable."""
    n = cf.n
    check_grid(n, 1)
    disc = Discretization((Fraction(0), Fraction(1)))
    values: dict[Face, Fraction] = {}
    for d in itertools.product((0, 1, 2), repeat=n):
        mask = sum(1 << i for i in range(n) if d[i] == 2)
        values[d] = cf.values[mask]
    return StepGame(disc, n, {(1,) * n: cf.values[0]}, values, TAG_SEMI_REGULAR)


def embed_simple_semiregular(v: SimpleGame) -> StepGame:
    """Semi-regular embedding of a simple game on the grid (0, 1)."""
    return embed_coalition_semiregular(v.inner)
