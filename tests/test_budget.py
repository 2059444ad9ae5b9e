"""The one work budget: every exhaustive enumeration counts its elementary
steps and checks them against ``budget.MAX_STEPS`` before it starts."""

import random
import time
from fractions import Fraction as F

import pytest

import powerdex.axioms as axioms
from powerdex.axioms import (AxiomReport, IndexHandle, battery_steps,
                             check_axioms)
from powerdex.budget import MAX_STEPS, check_work
from powerdex.cli import main
from powerdex.coalitions import SimpleGame, all_simple_games
from powerdex.evaluables import EvaluableGame
from powerdex.families import counterexample_game
from powerdex.indices import psi_mc, psi_point
from powerdex.oracles import psi_product_oracle, ssi_roll_call
from powerdex.sampling import random_regular_game
from powerdex.stepfun import check_grid


def test_budget_admits_its_bound_and_refuses_one_more_step():
    check_work(MAX_STEPS, "this")
    with pytest.raises(ValueError, match="this exceeds the work budget"):
        check_work(MAX_STEPS + 1, "this")


@pytest.mark.parametrize("run", [
    # 9! * 9 steps
    lambda: ssi_roll_call(SimpleGame.weighted(9, [1] * 9)),
    # 7! * 2^7 * 7 steps; the old cap admitted it and it ran for about 3 s
    lambda: ssi_roll_call(SimpleGame.weighted(4, [1] * 7), "uniform_half"),
    # 16 * 2^17 steps
    lambda: psi_point(counterexample_game(16), F(1, 3)),
    lambda: psi_mc(counterexample_game(16), 1, 0),
    # 126^3 steps; charged n^2, 1,414 players were admitted and took 28 s
    lambda: psi_product_oracle([1] * 126),
    # 2^32 * 2^5 steps
    lambda: list(all_simple_games(5)),
], ids=["all_yes", "uniform_half", "point", "mc", "oracle", "simple_games"])
def test_enumerations_over_the_budget_raise_at_once(run):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the work budget"):
        run()
    assert time.perf_counter() - start < 1


def test_product_oracle_answers_the_player_cap_at_once():
    # refused from 15 players on while it summed over every coalition
    start = time.perf_counter()
    pv = psi_product_oracle([1] * 20)
    assert time.perf_counter() - start < 0.01
    assert pv.shares == (F(1, 20),) * 20


def test_product_oracle_answers_the_largest_admitted_input_at_once():
    # 125^3 steps fit the budget
    start = time.perf_counter()
    pv = psi_product_oracle([1] * 125)
    assert time.perf_counter() - start < 0.1
    assert pv.shares == (F(1, 125),) * 125


def test_product_oracle_charges_the_common_denominator():
    # charged n^3 alone, the exponents k/(k+1) were admitted and took 0.74 s
    # on integers carrying D = lcm(2..126), a 182-bit denominator
    exponents = [F(k, k + 1) for k in range(1, 126)]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="product oracle exceeds the work"):
        psi_product_oracle(exponents)
    assert time.perf_counter() - start < 0.01
    # fewer players with a large D still pass; D = 1 is charged n^3, so
    # [1] * 125 is answered (above)
    start = time.perf_counter()
    pv = psi_product_oracle(exponents[:40])
    assert time.perf_counter() - start < 0.1
    assert sum(pv.shares) == 1


def test_psi_mc_refuses_21_players_before_it_draws():
    # used to draw and evaluate for about 30 s, then raise IndexError from
    # the factorial table behind ordering_weight
    game = EvaluableGame(21, None, lambda p: p[:, 0])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="work budget"):
        psi_mc(game, 1, 0)
    assert time.perf_counter() - start < 1


def test_point_variant_runs_beyond_the_old_eight_player_cap():
    pv = psi_point(counterexample_game(9), F(1, 3))
    assert pv.shares == (F(7, 18), F(11, 18)) + (F(0),) * 7


@pytest.mark.parametrize("p, largest", [(1, 13), (2, 9), (3, 7), (5, 6)])
def test_grid_check_admits_the_largest_grid_and_refuses_one_more_player(
        p, largest):
    # (2p+1)^n faces against the budget: 3^13, 5^9, 7^7 and 11^6 fit it
    check_grid(largest, p)
    with pytest.raises(ValueError) as refused:
        check_grid(largest + 1, p)
    assert str(refused.value) == (f"a grid of {2 * p + 1}^{largest + 1} "
                                  "faces exceeds the work budget of "
                                  "2,000,000 steps")


@pytest.mark.parametrize("n", [0, 21])
def test_grid_check_refuses_a_player_count_outside_the_range(n):
    with pytest.raises(ValueError, match="player count must be in 1..20"):
        check_grid(n, 1)


@pytest.mark.parametrize("players", [1, 2, 3, 4, 5])
def test_axiom_battery_admits_its_largest_draw_and_refuses_one_more_game(
        players, capsys, monkeypatch):
    # charged for p = 3, the most intervals a drawn game has, and for two
    # salted games; --random 2000 at 3 players ran for 2.5 s uncharged
    largest = MAX_STEPS // battery_steps(players, 3) - 2
    argv = ["axioms", "--index", "psi_exact", "--players", str(players)]
    start = time.perf_counter()
    assert main(argv + ["--random", str(largest + 1)]) == 2
    assert time.perf_counter() - start < 1
    assert "the axiom battery exceeds the work budget" in capsys.readouterr().err
    checked = []
    monkeypatch.setattr(axioms, "check_axioms", lambda handle, suite, seed: (
        checked.append(len(suite)) or AxiomReport(handle.name, len(suite), {})))
    assert main(argv + ["--random", str(largest)]) == 0
    assert checked == [largest + (2 if players > 1 else 1)]


def test_axiom_battery_refuses_a_given_suite_before_it_checks_a_game():
    g = random_regular_game(random.Random(0), 2, 3)
    games = MAX_STEPS // battery_steps(2, 3)
    unused = IndexHandle("unused", lambda g: pytest.fail("a game was checked"))
    with pytest.raises(ValueError, match="the axiom battery exceeds the work"):
        check_axioms(unused, [g] * (games + 1))
