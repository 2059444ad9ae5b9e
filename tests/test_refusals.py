"""Every refusal of a public function, reached in-process: its exception
type and its message.  Each case is one check that no other in-process test
runs; the CLI refusals run in subprocesses in ``test_cli``."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from powerdex.axioms import boundary_face_witness
from powerdex.coalitions import CoalitionFunction, JKGame, SimpleGame
from powerdex.embeddings import embed_2k_tau
from powerdex.families import (counterexample_game, product_power_game,
                               weighted_mean_game, weighted_median_game)
from powerdex.his import appendix_game, apply_box_increment
from powerdex.increments import (Domain, LocalIncrement, box_increments,
                                 check_local_increment, corner_increase,
                                 potential_influence, table1_rows)
from powerdex.indices import MAX_MC_CELLS, psi_mc
from powerdex.oracles import phi_two_player, ssi_roll_call
from powerdex.sampling import random_discretization, random_regular_game
from powerdex.stepfun import (Discretization, IncrementError, evaluate_step,
                              uniform_grid)
from powerdex.transforms import coarsen, join_meet, permute_axes

APPENDIX = appendix_game()  # two players on the grid (0, 1/4, 1/2, 1)
THREE = random_regular_game(random.Random(0), 3, 1)
AND = SimpleGame.weighted(2, [1, 1])
THREE_LEVELS = JKGame(1, 3, 2, [0, 0, 1])
HALF = (F(1, 2), F(1, 2))


def _short_sampler(rng, m, n):
    return rng.random((m - 1, n))


REFUSALS = [
    ("witness off the boundary", ValueError,
     "face must pin the player to the cube boundary",
     lambda: boundary_face_witness(APPENDIX, 1, (3, 3), F(1, 10))),
    ("witness on a breakpoint", ValueError,
     "remaining coordinates must be intervals",
     lambda: boundary_face_witness(APPENDIX, 1, (6, 2), F(1, 10))),
    ("short coalition table", ValueError, "need a total table with 4 entries",
     lambda: CoalitionFunction(2, [0, 1, 1])),
    ("simple game value 1/2", ValueError, "simple game values must be 0 or 1",
     lambda: SimpleGame(CoalitionFunction(1, [0, F(1, 2)]))),
    ("winning coalition made winning", ValueError, "coalition already winning",
     lambda: AND.add_winning(3)),
    ("one level per voter", ValueError, "need j, k >= 2",
     lambda: JKGame(1, 1, 2, [])),
    ("(3,2) game as a simple game", ValueError,
     "only (2,2) games are simple games", lambda: THREE_LEVELS.to_simple()),
    ("tau embedding of three levels", ValueError,
     "tau embedding requires j = 2", lambda: embed_2k_tau(THREE_LEVELS, "1/2")),
    ("tau at the cube's end", ValueError,
     "tau must lie strictly between 0 and 1",
     lambda: embed_2k_tau(JKGame(1, 2, 2, [0, 1]), 0)),
    ("weights summing to 2", ValueError,
     "weights must be nonnegative and sum to 1",
     lambda: weighted_mean_game([1, 1])),
    ("negative exponent", ValueError, "exponents must be nonnegative",
     lambda: product_power_game([1, -1])),
    ("negative median weight", ValueError,
     "weights must be nonnegative and sum to 1",
     lambda: weighted_median_game([F(3, 2), F(-1, 2)])),
    ("one-player counterexample", ValueError, "needs at least two players",
     lambda: counterexample_game(1)),
    ("points of the wrong width", ValueError, "expected an (m, 2) array",
     lambda: product_power_game([1, 1]).eval_array(np.zeros((2, 3)))),
    ("box beyond the grid", IncrementError,
     "(17, 17) is not a full-dimensional box",
     lambda: apply_box_increment(APPENDIX, (17, 17), F(1, 10))),
    ("negative box rise", IncrementError, "box increments take eps >= 0",
     lambda: apply_box_increment(APPENDIX, (1, 1), F(-1, 10))),
    ("falling interval", ValueError, "interval [1/2, 1/4] invalid for player 1",
     lambda: Domain.of({1: (F(1, 2), F(1, 4))})),
    ("coalition beyond the players", ValueError,
     "coalition outside the player set",
     lambda: LocalIncrement(2, frozenset({3}), F(1), Domain.unit_cube([1, 2]))),
    ("domain over the coalition", ValueError,
     "domain must cover exactly the remaining voters",
     lambda: LocalIncrement(2, frozenset({1}), F(1), Domain.unit_cube([1, 2]))),
    ("residual profile too short", ValueError,
     "residual profile has the wrong arity",
     lambda: potential_influence(APPENDIX, [1], [])),
    ("increment across player counts", ValueError, "player counts differ",
     lambda: check_local_increment(APPENDIX, THREE, LocalIncrement(
         2, frozenset(), F(0), Domain.unit_cube([1, 2])))),
    ("box on a breakpoint", IncrementError,
     "(2, 1) is not a full-dimensional box",
     lambda: box_increments(APPENDIX.disc, (2, 1), 1)),
    ("corner without L", ValueError,
     "L, U must be disjoint, nonempty and cover 1..n",
     lambda: corner_increase([], [1, 2], 1, 2, 1)),
    ("corner on one interval", ValueError, "uniform grid needs l >= 2",
     lambda: corner_increase([1], [2], 1, 1, 1)),
    ("corner share of player 3 of 2", ValueError, "player 3 outside 1..2",
     lambda: corner_increase([1], [2], 1, 2, 3)),
    ("table1 on one interval", ValueError, "uniform grid needs l >= 2",
     lambda: table1_rows(1)),
    ("no samples", ValueError, "need at least one sample",
     lambda: psi_mc(APPENDIX, 0, 0)),
    ("samples over the cap", ValueError,
     f"samples * (2^n + 16n + 32) = {(1 << 30) * 68} exceeds the "
     f"Monte-Carlo cap of {MAX_MC_CELLS}",
     lambda: psi_mc(APPENDIX, 1 << 30, 0)),
    ("sampler one point short", ValueError, "sampler returned 9 points, not 10",
     lambda: psi_mc(product_power_game([1, 1]), 10, 0, _short_sampler)),
    ("unknown vote model", ValueError, "unknown vote model 'bogus'",
     lambda: ssi_roll_call(AND, "bogus")),
    ("three-player family", ValueError, "defined for two-player games only",
     lambda: phi_two_player(HALF, THREE)),
    ("family parameters summing to 2", ValueError,
     "parameters must be nonnegative and sum to 1",
     lambda: phi_two_player((1, 1), APPENDIX)),
    ("no intervals", ValueError, "need p >= 1",
     lambda: random_discretization(random.Random(0), 0)),
    ("point of one coordinate", ValueError,
     "point has 1 coordinates, game has 2",
     lambda: evaluate_step(APPENDIX, (F(1, 2),))),
    ("join across player counts", ValueError, "player counts differ",
     lambda: join_meet(APPENDIX, THREE)),
    ("coarsening onto a new breakpoint", ValueError,
     "target breakpoints must be a subset of the source",
     lambda: coarsen(APPENDIX, Discretization((0, F(1, 3), 1)))),
    ("repeated axis", ValueError, "pi must be a permutation of 1..n",
     lambda: permute_axes(APPENDIX, [1, 1])),
    ("grid over the budget", ValueError,
     "a grid of 2,000,001 breakpoints exceeds the work budget of "
     "2,000,000 steps", lambda: uniform_grid(2_000_000)),
]


@pytest.mark.parametrize("error, message, call",
                         [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_public_functions_refuse_with_their_message(error, message, call):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error and str(refused.value) == message
