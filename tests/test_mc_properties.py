"""Property tests: the chunked Monte-Carlo estimator against the estimator
that holds every coalition's deltas at once (``dense_oracle.dense_psi_mc``),
and the step-game readers of ``psi_mc`` and ``psi_point`` against the dense
face table."""

import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerdex.montecarlo as montecarlo
from dense_oracle import dense_psi_mc
from powerdex.evaluables import (FACE_BLOCK_ROWS, SEARCH_FROM_P,
                                 EvaluableGame, step_game_evaluable)
from powerdex.families import (counterexample_game, product_power_game,
                               weighted_mean_game, weighted_median_game)
from powerdex.indices import boundary_averages, psi_from_c, psi_mc, psi_point
from powerdex.rational import on_one_denominator
from powerdex.sampling import random_regular_game
from powerdex.stepfun import Discretization, StepGame, face_table
from test_stepgame_properties import breakpoint_sampler, dense_games

# what a chunk of cells is cut to, against the number of sample points
CHUNKINGS = ("one row", "uneven", "more rows than samples")


def weights(n):
    return st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(
        any).map(lambda w: [F(x, sum(w)) for x in w])


@st.composite
def black_boxes(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("product", "median", "mean")))
    if kind == "product":
        exponents = st.sampled_from((0, 1, 2, 3, F(1, 2), F(5, 2)))
        return product_power_game(draw(st.lists(exponents, min_size=n,
                                                max_size=n)))
    if kind == "median":
        return weighted_median_game(draw(weights(n)))
    return weighted_mean_game(draw(weights(n)))


@st.composite
def step_cases(draw):
    """A step game as itself (evaluated once per face cell) or wrapped
    without its cells (evaluated once per sample), with uniform or
    breakpoint-heavy samples."""
    g, _ = draw(dense_games())
    sampler = breakpoint_sampler(g.disc.alpha) if draw(st.booleans()) else None
    if draw(st.booleans()):
        return g, sampler
    ev = step_game_evaluable(g)
    return EvaluableGame(g.n, ev.eval_exact, ev.eval_array), sampler


@settings(max_examples=150)
@given(step_cases() | black_boxes().map(lambda v: (v, None)),
       st.integers(1, 300), st.integers(0, 2 ** 32), st.sampled_from(CHUNKINGS),
       st.sampled_from((1, 3, montecarlo.MC_CALL_ROWS)), st.data())
def test_chunked_psi_mc_is_bit_identical_to_the_dense_estimator(
        case, samples, seed, chunking, call_rows, data):
    game, sampler = case
    if chunking == "one row":
        rows = 1
    elif chunking == "uneven":
        rows = data.draw(st.integers(2, samples + 1).filter(
            lambda r: samples % r != 0))
    else:
        rows = samples + data.draw(st.integers(1, 40))
    expected = dense_psi_mc(game, samples, seed, sampler)
    with mock.patch.object(montecarlo, "MC_CHUNK_CELLS", rows << game.n), \
            mock.patch.object(montecarlo, "MC_CALL_ROWS", call_rows):
        got = psi_mc(game, samples, seed, sampler)
    assert got.shares == expected.shares
    assert got.stderr == expected.stderr
    assert got.c_table == expected.c_table


@settings(max_examples=100)
@given(dense_games(), st.randoms(use_true_random=False))
def test_step_evaluable_reads_the_dense_table(case, rng):
    # one point inside each face, evaluated in a shuffled order and split
    # over two calls, so faces are first read in either call
    g, table = case
    alpha = g.disc.alpha
    faces = list(table)
    rng.shuffle(faces)
    pts = np.array([[float(alpha[d // 2]) if d % 2 == 0
                     else float((alpha[d // 2] + alpha[d // 2 + 1]) / 2)
                     for d in face] for face in faces])
    ev = step_game_evaluable(g)
    cut = rng.randrange(len(faces) + 1)
    got = np.concatenate([ev.eval_array(pts[:cut]), ev.eval_array(pts[cut:])])
    assert got.tolist() == [float(table[d]) for d in faces]


def bisect_faces(g, pts):
    """Each point's face index, located one coordinate at a time in Python
    floats."""
    marks = [float(a) for a in g.disc.alpha]
    faces = []
    for point in pts.tolist():
        k = 0
        for x in point:
            h = bisect_left(marks, x)
            k = k * (2 * g.p + 1) + (2 * h if marks[h] == x else 2 * h - 1)
        faces.append(k)
    return faces


def assert_cells_are_the_sorted_distinct_faces(g, pts):
    # the cells hook against np.unique over the bisect face indices
    _, first, inverse = np.unique(bisect_faces(g, pts), return_index=True,
                                  return_inverse=True)
    reps, got = step_game_evaluable(g).cells(pts)
    assert np.array_equal(reps, pts[first])
    assert got.dtype == inverse.dtype and np.array_equal(got, inverse)


@settings(max_examples=100)
@given(dense_games(st.integers(1, 4)), st.integers(1, 300),
       st.integers(0, 2 ** 32))
def test_step_cells_are_the_sorted_distinct_faces(case, samples, seed):
    g, _ = case
    pts = breakpoint_sampler(g.disc.alpha)(np.random.default_rng(seed),
                                           samples, g.n)
    assert_cells_are_the_sorted_distinct_faces(g, pts)


def grid_game(n, cuts):
    """A step game on the breakpoints cuts/997 whose boxes all differ."""
    disc = Discretization([F(0), *(F(c, 997) for c in sorted(cuts)), F(1)])
    boxes = disc.p ** n
    return StepGame(disc, n, list(range(boxes)), boxes)


@pytest.mark.parametrize("p", [1, 3, SEARCH_FROM_P - 1, SEARCH_FROM_P, 100])
@pytest.mark.parametrize("n", [1, 2])
def test_step_faces_on_both_sides_of_the_search_switch(n, p):
    # comparisons below SEARCH_FROM_P, binary search from there on, over
    # more rows than one block; each coordinate is uniform, a breakpoint
    # (0 and 1 included), a float neighbour of one, or -0.0
    rng = np.random.default_rng(100 * n + p)
    g = grid_game(n, rng.choice(np.arange(1, 997), p - 1, replace=False))
    marks = np.array([float(a) for a in g.disc.alpha])
    pool = np.concatenate([rng.random(50), marks, np.nextafter(marks, 0.0),
                           np.nextafter(marks, 1.0), [-0.0]])
    pts = rng.choice(pool, (2 * FACE_BLOCK_ROWS + 7, n))
    assert_cells_are_the_sorted_distinct_faces(g, pts)
    nums, den = face_table(g)
    assert (step_game_evaluable(g).eval_array(pts).tolist()
            == [nums[k] / den for k in bisect_faces(g, pts)])


@pytest.mark.parametrize("bad", [np.nan, -np.inf, -5e-324,
                                 np.nextafter(1.0, 2.0)])
@pytest.mark.parametrize("p", [2, SEARCH_FROM_P])
def test_step_hooks_refuse_a_point_outside_the_cube_in_a_later_block(p, bad):
    pts = np.random.default_rng(p).random((2 * FACE_BLOCK_ROWS, 2))
    pts[FACE_BLOCK_ROWS + 5, 1] = bad
    ev = step_game_evaluable(grid_game(2, range(1, p)))
    for hook in (ev.cells, ev.eval_array):
        with pytest.raises(ValueError, match="^point outside the unit cube$"):
            hook(pts)


def test_step_cells_peak_memory_stays_below_three_floats_per_sample():
    # the perfbench blackbox game at seed 3: faces are located a block of
    # rows at a time, so no (samples, n) temporary is held
    g = random_regular_game(random.Random(3), 6, 2)
    pts = np.random.default_rng(3).random((150_000, 6))
    ev = step_game_evaluable(g)
    tracemalloc.start()
    try:
        ev.cells(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 150_000


@pytest.mark.parametrize("game", [
    weighted_mean_game([F(1, 2), F(1, 2)]), product_power_game([F(1, 2), 1]),
    weighted_median_game([F(1, 3), F(2, 3)])], ids=lambda v: v.name)
@pytest.mark.parametrize("sampler", [
    lambda rng, m, n: rng.random((m, n)) * 2 - 0.5,
    lambda rng, m, n: np.full((m, n), np.nan),
    lambda rng, m, n: np.vstack([rng.random((m - 1, n)),
                                 np.full((1, n), np.nextafter(1.0, 2.0))]),
], ids=["wide", "nan", "one-above"])
def test_psi_mc_refuses_sampled_points_outside_the_cube(game, sampler):
    with pytest.raises(ValueError, match="^point outside the unit cube$"):
        psi_mc(game, 200, 0, sampler)


@pytest.mark.parametrize("game, points", [
    (weighted_mean_game([1 / 2, 1 / 2]), [[2, 3], [np.nan, 0.5]]),
    (weighted_median_game([1 / 2, 1 / 2]), [[-1, 3]]),
    (product_power_game([1, 2]), [[0.5, 0.5], [0.5, np.nextafter(1.0, 2.0)]]),
    (counterexample_game(3), [[0.5, 0.5, 0.5], [0.5, -5e-324, 0.5]]),
    (EvaluableGame(2, lambda x: x[0], lambda pts: pts[:, 0]), [[2, 3]]),
], ids=["mean", "median", "product", "counterexample", "user-built"])
def test_families_refuse_points_outside_the_cube_as_eval_exact_does(game,
                                                                    points):
    for hook in (game.eval_array, game.cells):
        with pytest.raises(ValueError, match="^point outside the unit cube$"):
            hook(points)
    inside = [x for x in points if all(0 <= c <= 1 for c in x)]
    assert game.eval_array(np.array(inside).reshape(-1, game.n)).tolist() == [
        float(game.eval_exact([F(c) for c in x])) for x in inside]


@settings(max_examples=150)
@given(dense_games(st.integers(1, 4)) |
       dense_games(st.integers(1, 4), coprime=True), st.data())
def test_point_variant_reads_the_pinned_faces(case, data):
    g, _ = case
    alpha = data.draw(st.sampled_from(g.disc.alpha) | st.sampled_from((0, 1))
                      | st.fractions(0, 1, max_denominator=24))
    assert psi_point(g, alpha) == psi_point(step_game_evaluable(g), alpha)


@pytest.mark.parametrize("alpha", [F(-1, 3), F(4, 3)])
def test_point_variant_refuses_alpha_outside_the_unit_interval(alpha):
    g = random_regular_game(random.Random(3), 2, 2)
    for game in (g, step_game_evaluable(g)):
        with pytest.raises(ValueError) as refused:
            psi_point(game, alpha)
        assert str(refused.value) == "alpha must lie in [0, 1]"


def test_point_variant_over_the_budget_keeps_its_diagnostic():
    with pytest.raises(ValueError) as refused:
        psi_point(counterexample_game(16), F(1, 3))
    assert str(refused.value) == ("point variant exceeds the work budget of "
                                  "2,000,000 steps")


def breakpoint_sampler_mass(alpha) -> list[int]:
    """The weight breakpoint_sampler gives each face digit of a coordinate:
    half of each interval's width, and 1/(2(p+1)) to each breakpoint."""
    p = len(alpha) - 1
    return on_one_denominator([
        (alpha[(e + 1) // 2] - alpha[e // 2]) / 2 if e % 2 else F(1, 2 * p + 2)
        for e in range(2 * p + 1)])[0]


@settings(max_examples=40, derandomize=True)
@given(dense_games())
def test_psi_mc_under_a_sampler_centres_on_its_exact_expectation(case):
    # the sampler draws each coordinate's face digit independently, so the
    # boundary averages with its digit weights are psi_mc's expectation
    g, _ = case
    exact = psi_from_c(boundary_averages(
        g, breakpoint_sampler_mass(g.disc.alpha))).shares
    for seed in (0, 1):
        pv = psi_mc(g, 16_000, seed, breakpoint_sampler(g.disc.alpha))
        for x, estimate, err in zip(exact, pv.shares, pv.stderr):
            assert abs(estimate - x) <= 5 * err + 1e-9


def test_psi_mc_memory_is_bounded_by_the_chunk(monkeypatch):
    # 20,000 samples of 256 coalitions hold 41 MB of deltas at once
    monkeypatch.setattr(montecarlo, "MC_CHUNK_CELLS", 1 << 16)
    game = counterexample_game(8)
    psi_mc(game, 10, 1)
    tracemalloc.start()
    try:
        psi_mc(game, 20_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
