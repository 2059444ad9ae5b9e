"""powerdex: exact power indices for committee decisions.

Covers three game classes on a common footing: simple games, (j,k) games
with graded inputs and outputs, and interval decisions represented as step
functions on rectangular grids.  All index computations are exact rational
arithmetic; a seeded Monte-Carlo estimator handles black-box games.
"""

from .coalitions import (Coalition, CoalitionFunction, JKGame, SimpleGame,
                         all_simple_games, random_monotone_jk,
                         random_simple_game)
from .embeddings import (embed_2k_tau, embed_coalition_semiregular, embed_jk,
                         embed_simple_semiregular)
from .evaluables import (EvaluableGame, counterexample_game,
                         product_power_game, step_game_evaluable,
                         weighted_mean_game, weighted_median_game)
from .his import (BuildResult, Domain, IncrementError, LocalIncrement,
                  ReplayResult, apply_box_increment, appendix_game,
                  build_by_increments, check_local_increment, classify_face,
                  corner_increase, his_delta, potential_influence,
                  replay_appendix, table1_rows)
from .indices import (BoundaryAverages, PowerVector, boundary_averages,
                      jk_ssi_marginal, jk_ssi_pivot, phi_two_player,
                      psi_exact, psi_mc, psi_point, psi_product_oracle,
                      ssi_coalition, ssi_roll_call)
from .rational import format_rational, parse_rational
from .stepfun import (Discretization, StepGame, ValidationReport, coarsen,
                      evaluate_step, join_meet, make_regular_step,
                      permute_axes, pointwise_equal, refine, uniform_grid,
                      validate, zero_game)

__version__ = "0.1.0"
