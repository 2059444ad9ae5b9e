"""Power indices for finite committee games.

Walks through weighted voting games, the two roll-call enumeration models,
and graded (j,k) games with their two equivalent index forms.
"""

import itertools

from powerdex import (JKGame, SimpleGame, jk_ssi_marginal, jk_ssi_pivot,
                      ssi_coalition, ssi_roll_call)

# A weighted game [3; 2, 1, 1]: player 1 holds two votes, quota is 3.
game = SimpleGame.weighted(3, [2, 1, 1])
print("minimal winning coalitions:", game.minimal_winning())
print("index:", ssi_coalition(game).shares)

# The same shares drop out of ordering enumeration, in both vote models.
print("roll call, everyone votes yes:   ", ssi_roll_call(game, "all_yes").shares)
print("roll call, all vote vectors:     ", ssi_roll_call(game, "uniform_half").shares)

# Graded votes: three approval levels in, two out.  The outcome passes when
# the levels sum to at least 3.  A game lists the output level of every
# approval profile in row-major order, the first voter's level slowest.
levels = [int(x + y >= 3) for x, y in itertools.product(range(3), repeat=2)]
jk = JKGame(2, 3, 2, levels)
print("\n(3,2) threshold game")
print("pivot form:   ", jk_ssi_pivot(jk).shares)
print("marginal form:", jk_ssi_marginal(jk).shares)

# Monotonicity is necessary for nonnegative shares.  A game where {1} and
# {3} win alone but {1,2} and {2,3} lose gives player 2 a negative share.
from powerdex import CoalitionFunction

spoiler = CoalitionFunction.from_winning(
    3, [[1], [3], [1, 3], [1, 2, 3]], closure=False)
print("\nnon-monotone game shares:", ssi_coalition(spoiler).shares)
