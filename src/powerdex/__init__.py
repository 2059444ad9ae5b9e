"""powerdex: exact power indices for committee decisions.

Covers three game classes on a common footing: simple games, (j,k) games
with graded inputs and outputs, and interval decisions represented as step
functions on rectangular grids.  All index computations are exact rational
arithmetic; a seeded Monte-Carlo estimator handles black-box games.

The public names below are loaded from their submodule on first access
(PEP 562), so ``import powerdex`` and each CLI run load only the modules
they use.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "coalitions": ["CoalitionFunction", "JKGame", "SimpleGame",
                   "all_simple_games", "random_monotone_jk",
                   "random_simple_game"],
    "embeddings": ["embed_2k_tau", "embed_coalition_semiregular", "embed_jk",
                   "embed_simple_semiregular"],
    "evaluables": ["EvaluableGame", "step_game_evaluable"],
    "families": ["counterexample_game", "product_power_game",
                 "weighted_mean_game", "weighted_median_game"],
    "his": ["BuildResult", "apply_box_increment", "appendix_game",
            "build_by_increments"],
    "increments": ["Domain", "LocalIncrement", "ReplayResult",
                   "box_increments", "check_local_increment",
                   "corner_increase", "his_delta", "potential_influence",
                   "replay_appendix", "table1_rows"],
    "indices": ["BoundaryAverages", "PowerVector", "boundary_averages",
                "jk_ssi_marginal", "psi_exact", "psi_mc", "psi_point",
                "ssi_coalition"],
    "oracles": ["jk_ssi_pivot", "phi_two_player", "psi_product_oracle",
                "ssi_roll_call"],
    "rational": ["format_rational", "parse_rational"],
    "stepfun": ["Discretization", "IncrementError", "StepGame",
                "ValidationReport", "box_keys", "evaluate_step", "face_table",
                "make_regular_step", "refine", "regular_completion",
                "uniform_grid", "validate", "zero_game"],
    "transforms": ["coarsen", "join_meet", "permute_axes", "pointwise_equal"],
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items()
                 for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
