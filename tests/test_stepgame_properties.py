"""Property tests: the box-native step game (boxes plus face overrides)
against the dense face table of ``dense_oracle``."""

import random
from fractions import Fraction as F
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (dense_boundary_averages, dense_completion,
                          dense_validate)
from powerdex.evaluables import EvaluableGame, step_game_evaluable
from powerdex.his import IncrementError, apply_box_increment
from powerdex.indices import boundary_averages, psi_exact, psi_mc
from powerdex.sampling import random_discretization, random_regular_game
from powerdex.serialize import parse_step_game, step_game_to_json
from powerdex.stepfun import (Discretization, FaceValues, StepGame,
                              adjacent_boxes, box_faces, validate)

TAGS = ("raw", "semi_regular", "regular")
values = st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=12)
wide_values = st.fractions(min_value=F(-1, 2), max_value=F(3, 2),
                           max_denominator=10 ** 6)


@st.composite
def dense_games(draw, players=st.integers(1, 3), monotone=False,
                coprime=False):
    """A game drawn as boxes plus overrides (box keys, corners and values
    outside [0, 1] included), with the dense table the old parser built:
    the completion of the boxes, then each override written over it.  With
    ``monotone`` each override lies between its cover neighbours, so the
    game stays monotone.  With ``coprime`` the breakpoints are multiples of
    1/997 and the values have denominators near 10^6.  Four players get at
    most two intervals."""
    n = draw(players)
    p = draw(st.integers(1, 3 if n < 4 else 2))
    disc = random_discretization(random.Random(draw(st.integers(0, 99))), p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    boxes = random_regular_game(rng, n, p).boxes
    if coprime:
        cuts = draw(st.lists(st.integers(1, 996), min_size=p - 1,
                             max_size=p - 1, unique=True))
        disc = Discretization((F(0), *sorted(F(c, 997) for c in cuts), F(1)))
        q = draw(st.sampled_from((999_983, 999_979, 524_287)))
        boxes = {b: F(floor(v * q), q) for b, v in boxes.items()}
    table = dense_completion(p, n, boxes)
    faces = list(table)
    overrides = {}
    for d in draw(st.lists(st.sampled_from(faces), max_size=6)):
        if monotone:
            lo = max((table[d[:i] + (d[i] - 1,) + d[i + 1:]]
                      for i in range(n) if d[i] > 0), default=F(0))
            hi = min((table[d[:i] + (d[i] + 1,) + d[i + 1:]]
                      for i in range(n) if d[i] < 2 * p), default=F(1))
            t = draw(st.sampled_from((F(1, 3), F(1, 2), F(1))))
            table[d] = overrides[d] = lo + (hi - lo) * t
            continue
        shift = draw(st.sampled_from((None, F(0), F(1, 24), F(-1, 24))))
        fresh = wide_values if coprime else values
        overrides[d] = draw(fresh) if shift is None else table[d] + shift
    table.update(overrides)
    return StepGame(disc, n, boxes, overrides, draw(st.sampled_from(TAGS))), table


@settings(max_examples=300)
@given(dense_games())
def test_box_native_form_matches_dense_table(case):
    g, table = case
    assert dict(g.values) == table
    report = validate(g)
    assert (report.monotone, report.tag_ok, report.in_range) == \
        dense_validate(g.p, g.n, table, g.tag)
    if g.tag != "regular" or report.tag_ok:  # regular games emit no "faces"
        assert parse_step_game(step_game_to_json(g)) == g


@settings(max_examples=100)
@given(dense_games(), st.data())
def test_with_values_keeps_every_other_face(case, data):
    g, table = case
    faces = list(table)
    updates = {d: data.draw(values) for d in
               data.draw(st.lists(st.sampled_from(faces), max_size=4))}
    table.update(updates)
    assert dict(g.with_values(updates).values) == table


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(1, 3),
       st.integers(1, 3))
def test_box_increment_delta_is_exact_share_difference(seed, n, p, scale):
    rng = random.Random(seed)
    g = random_regular_game(rng, n, p if n < 4 else min(p, 2))
    box = tuple(rng.randrange(1, 2 * g.p, 2) for _ in range(n))
    room = [g.boxes[box[:i] + (box[i] + 2,) + box[i + 1:]] - g.boxes[box]
            for i in range(n) if box[i] + 2 < 2 * g.p]
    eps = min(room, default=1 - g.boxes[box]) * F(scale, 3)
    out, delta = apply_box_increment(g, box, eps)
    assert validate(out).ok
    assert delta.shares == tuple(a - b for a, b in
                                 zip(psi_exact(out).shares, psi_exact(g).shares))


@settings(max_examples=300)
@given(dense_games(st.integers(2, 3), monotone=True),
       st.sampled_from(("raw", "semi_regular")), st.data())
def test_box_increment_with_overrides_matches_dense_table(case, tag, data):
    # every face of the box but the two cube corners rises by eps over its
    # number of adjacent boxes, overrides included; the delta still equals
    # the exact share difference whenever the result stays monotone
    g, table = case
    g = g.with_tag(tag)
    box = data.draw(st.sampled_from(sorted(g.boxes)))
    eps = data.draw(st.sampled_from((F(0), F(1, 1000), F(1, 48), F(1, 3))))
    corners = {(0,) * g.n, (2 * g.p,) * g.n}
    for d in box_faces(box):
        if d not in corners:
            table[d] += eps / len(adjacent_boxes(d, g.p))
    if not dense_validate(g.p, g.n, table, tag)[0]:
        with pytest.raises(IncrementError, match="monotonicity"):
            apply_box_increment(g, box, eps)
        return
    out, delta = apply_box_increment(g, box, eps)
    assert dict(out.values) == table
    assert delta.shares == tuple(a - b for a, b in
                                 zip(psi_exact(out).shares, psi_exact(g).shares))


@settings(max_examples=150)
@given(dense_games(st.integers(1, 4)) |
       dense_games(st.integers(1, 4), coprime=True), st.data())
def test_boundary_averages_match_dense_table(case, data):
    # overrides on faces touching the cube boundary are the ones C reads
    g, table = case
    top = 2 * g.p
    boundary = [d for d in table if any(di in (0, top) for di in d)]
    updates = {d: data.draw(values | wide_values) for d in
               data.draw(st.lists(st.sampled_from(boundary), max_size=6))}
    g = g.with_values(updates)
    table.update(updates)
    assert boundary_averages(g).table == dense_boundary_averages(g.disc, g.n,
                                                                 table)


def breakpoint_sampler(alpha):
    """Each coordinate is a breakpoint (0 and 1 included) or uniform, so
    samples land on point faces and on faces next to several boxes."""
    marks = np.array([float(a) for a in alpha])

    def sample(rng, m, n):
        pts = rng.random((m, n))
        hit = rng.random((m, n)) < 0.5
        pts[hit] = rng.choice(marks, size=int(hit.sum()))
        return pts
    return sample


@settings(max_examples=60)
@given(dense_games(), st.integers(1, 400), st.integers(0, 2 ** 32),
       st.booleans())
def test_psi_mc_on_cells_is_bit_identical_to_per_sample(case, samples, seed,
                                                        on_breakpoints):
    g, _ = case
    ev = step_game_evaluable(g)
    per_sample = EvaluableGame(g.n, ev.eval_exact, ev.eval_array)
    sampler = breakpoint_sampler(g.disc.alpha) if on_breakpoints else None
    fast = psi_mc(g, samples, seed, sampler)
    slow = psi_mc(per_sample, samples, seed, sampler)
    assert fast.shares == slow.shares
    assert fast.stderr == slow.stderr
    assert fast.c_table == slow.c_table


@pytest.mark.parametrize("bad", [-0.25, 1.5, float("nan")])
def test_psi_mc_rejects_sample_points_outside_the_cube(bad):
    g = random_regular_game(random.Random(3), 2, 2)

    def sampler(rng, m, n):
        pts = rng.random((m, n))
        pts[m // 2, 1] = bad
        return pts
    with pytest.raises(ValueError, match="outside the unit cube"):
        psi_mc(g, 50, 0, sampler)


def test_psi_mc_derives_each_reached_face_once(monkeypatch):
    # uniform samples sit in open intervals, and pinning sends a coordinate
    # to 0 or 2p: at most (p + 2)^n faces are reached, of (2p + 1)^n
    g = random_regular_game(random.Random(1), 5, 4)
    derived = []
    read = FaceValues.__getitem__

    def counted(self, d):
        derived.append(d)
        return read(self, d)
    monkeypatch.setattr(FaceValues, "__getitem__", counted)
    psi_mc(g, 20_000, 0)
    assert len(derived) == len(set(derived))
    assert 0 < len(derived) <= 6 ** 5 < 9 ** 5


def test_psi_exact_derives_no_face(monkeypatch):
    # the C-table reads the boxes and the stored overrides by key
    g = random_regular_game(random.Random(1), 4, 3)
    g = g.with_tag("raw").with_values({(0, 3, 1, 5): F(1, 3)})
    expected = psi_exact(g)

    def derived(self, d):
        raise AssertionError(f"face {d} derived")
    monkeypatch.setattr(FaceValues, "__getitem__", derived)
    assert psi_exact(g) == expected
