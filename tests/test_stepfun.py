import random
from fractions import Fraction as F

import pytest

from dense_oracle import adjacent_boxes, face_values
from powerdex.sampling import random_regular_game
from powerdex.stepfun import (Discretization, StepGame, evaluate_step,
                              make_regular_step, refine, regular_completion,
                              uniform_grid, validate, zero_game)
from powerdex.transforms import (coarsen, join_meet, permute_axes,
                                 pointwise_equal)


def test_discretization_invariants():
    d = Discretization((F(0), F(1, 4), F(1, 2), F(1)))
    assert d.p == 3
    with pytest.raises(ValueError):
        Discretization((F(0), F(1, 2)))
    with pytest.raises(ValueError):
        Discretization((F(0), F(1, 2), F(1, 2), F(1)))


def test_regular_completion_examples(appendix):
    # the face at x1=1 over the top band averages the single adjacent box
    assert regular_completion(appendix, (6, 5)) == F(9, 10)
    # forced corners
    assert regular_completion(appendix, (6, 6)) == 1
    assert regular_completion(appendix, (0, 0)) == 0
    # point x1=1/2, x2 in (0,1/4): average of boxes worth 0.3 and 0.5
    assert regular_completion(appendix, (4, 1)) == F(2, 5)


def test_regular_completion_refuses_a_tuple_off_the_grid(appendix):
    # a digit past 2p = 6 or below 0, or the wrong number of digits
    for d in ((7, 0), (0, 7), (-1, 3), (1,), (1, 1, 1), [1, 1]):
        with pytest.raises(ValueError, match="invalid for this grid"):
            regular_completion(appendix, d)


def test_make_regular_step_rejects_bad_input():
    disc = Discretization((F(0), F(1)))
    with pytest.raises(ValueError):
        make_regular_step(disc, {(1,): F(3, 2)}, 1)
    with pytest.raises(ValueError):
        make_regular_step(disc, {}, 1)


def test_constructor_refuses_a_malformed_stored_form():
    disc = Discretization((F(0), F(1, 2), F(1)))
    nums = [0, 1, 1, 2]
    with pytest.raises(ValueError, match="3 box values for 4 boxes"):
        StepGame(disc, 2, nums[:3], 2)
    # overrides are keyed by row-major face position: face (3, 1) at 16
    with pytest.raises(ValueError, match=r"face \(3, 1\) is a box"):
        StepGame(disc, 2, nums, 2, {1: 1, 16: 1})
    for off in (25, -1, (0, 1), "0,1", 2.0):
        with pytest.raises(ValueError, match="invalid for this grid"):
            StepGame(disc, 2, nums, 2, {1: 1, off: 1})
    for off in ((5, 0), (0, -1), (1,), (0, 1, 2), "0,1", 1):
        with pytest.raises(ValueError, match="invalid for this grid"):
            StepGame(disc, 2, nums, 2).with_values({off: F(1, 2)})
    with pytest.raises(ValueError, match="unknown tag 'semi'"):
        StepGame(disc, 2, nums, 2, tag="semi")


def test_constructor_reduces_to_the_least_denominator():
    disc = Discretization((F(0), F(1, 2), F(1)))
    g = StepGame(disc, 2, [0, 2, 2, 4], 4, {1: 2})
    assert (g.nums, g.den, g.overrides) == ([0, 1, 1, 2], 2, {1: 1})
    assert g.box((3, 3)) == 1 and regular_completion(g, (0, 1)) == F(1, 2)


def test_evaluate_step_examples(appendix):
    assert evaluate_step(appendix, (F(1, 8), F(3, 4))) == F(2, 5)
    assert evaluate_step(appendix, (1, 1)) == 1
    assert evaluate_step(appendix, (1, F(1, 8))) == F(1, 2)
    with pytest.raises(ValueError):
        evaluate_step(appendix, (F(9, 8), F(1, 2)))


def test_zero_game_shape():
    z = zero_game(2)
    assert regular_completion(z, (2, 2)) == 1
    assert all(v == 0 for d, v in face_values(z).items() if d != (2, 2))


def test_refine_is_pointwise_identity(appendix, rng):
    finer = Discretization((F(0), F(1, 8), F(1, 4), F(1, 2), F(1)))
    r = refine(appendix, finer)
    assert evaluate_step(r, (F(1, 16), F(1, 16))) == F(1, 10)
    for _ in range(1000):
        x = (F(rng.randrange(0, 33), 32), F(rng.randrange(0, 33), 32))
        assert evaluate_step(appendix, x) == evaluate_step(r, x)
    with pytest.raises(ValueError):
        refine(appendix, Discretization((F(0), F(1, 3), F(1))))


def test_refine_zero_game():
    z = zero_game(2)
    r = refine(z, Discretization((F(0), F(1, 2), F(1))))
    assert regular_completion(r, (4, 4)) == 1
    assert all(v == 0 for d, v in face_values(r).items() if d != (4, 4))


def test_coarsen_examples(appendix):
    half = coarsen(appendix, Discretization((F(0), F(1, 4), F(1))))
    assert half.box((3, 3)) == F(3, 5)
    assert half.box((1, 3)) == F(1, 5)
    assert half.box((3, 1)) == F(3, 10)
    assert half.box((1, 1)) == F(1, 10)
    single = coarsen(appendix, Discretization((F(0), F(1))))
    assert single.box((1, 1)) == F(1, 10)
    # identity on the game's own grid
    assert coarsen(appendix, appendix.disc) == appendix


def test_refine_then_coarsen_round_trip(appendix):
    finer = Discretization((F(0), F(1, 8), F(1, 4), F(1, 2), F(1)))
    back = coarsen(refine(appendix, finer), appendix.disc)
    assert back.same_values(appendix)


def test_join_meet_identities(appendix, rng):
    u = random_regular_game(rng, 2, 2)
    v = random_regular_game(rng, 2, 3)
    hi, lo = join_meet(u, v)
    hi_v, lo_v = face_values(hi), face_values(lo)
    ru = face_values(refine(u, hi.disc))
    rv = face_values(refine(v, hi.disc))
    for d in hi_v:
        assert hi_v[d] >= max(ru[d], rv[d]) - 0  # max
        assert hi_v[d] + lo_v[d] == ru[d] + rv[d]
        assert lo_v[d] <= min(ru[d], rv[d])
    # idempotence
    hii, loo = join_meet(u, u)
    assert pointwise_equal(hii, u) and pointwise_equal(loo, u)
    # join with the all-or-nothing game changes nothing
    hi2, _ = join_meet(appendix, zero_game(2))
    assert pointwise_equal(hi2, appendix)


def test_validate_appendix_is_regular_monotone(appendix):
    report = validate(appendix)
    assert report.ok and report.monotone and report.tag_ok


def test_validate_flags_constructed_violation():
    disc = Discretization((F(0), F(1, 2), F(1)))
    g = make_regular_step(disc, {(1, 1): F(1, 2), (1, 3): F(3, 4),
                                 (3, 1): F(3, 4), (3, 3): F(1, 4)}, 2)
    report = validate(g)
    assert not report.monotone
    assert any("monotonicity" in v for v in report.violations)


def test_validate_flags_every_stored_value_outside_the_unit_range():
    disc = Discretization((F(0), F(1, 2), F(1)))
    # boxes 0 and 3/2, and 5/4 stored at the breakpoint face between them
    g = StepGame(disc, 1, [0, 6], 4, {2: 5})
    report = validate(g)
    assert not report.in_range
    assert report.violations[:2] == ["value 3/2 at face (3,) outside [0, 1]",
                                     "value 5/4 at face (2,) outside [0, 1]"]


def test_validate_zero_game_semi_regular():
    z = zero_game(2).with_tag("semi_regular")
    report = validate(z)
    assert report.ok


def test_regular_averaging_invariant(rng):
    for _ in range(20):
        g = random_regular_game(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        corners = {(0,) * g.n, (2 * g.p,) * g.n}
        values = face_values(g)
        for d in values:
            if all(di % 2 == 1 for di in d) or d in corners:
                continue
            adj = adjacent_boxes(d, g.p)
            assert values[d] * len(adj) == sum(values[b] for b in adj)
        assert validate(g).ok


def test_permute_axes_matches_point_permutation(appendix):
    pi = [2, 1]
    swapped = permute_axes(appendix, pi)
    x = (F(1, 8), F(3, 4))
    # (pi g)(x) = g(x_{pi(1)}, x_{pi(2)})
    assert evaluate_step(swapped, x) == evaluate_step(appendix, (x[1], x[0]))


def test_uniform_grid():
    assert uniform_grid(4).alpha == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
