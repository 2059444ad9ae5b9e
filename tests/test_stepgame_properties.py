"""Property tests: the box-native step game (boxes plus face overrides)
against the dense face table of ``dense_oracle``."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_completion, dense_validate
from powerdex.his import apply_box_increment
from powerdex.indices import psi_exact
from powerdex.sampling import random_discretization, random_regular_game
from powerdex.serialize import parse_step_game, step_game_to_json
from powerdex.stepfun import StepGame, validate

TAGS = ("raw", "semi_regular", "regular")
values = st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=12)


@st.composite
def dense_games(draw):
    """A game drawn as boxes plus overrides (box keys, corners and values
    outside [0, 1] included), with the dense table the old parser built:
    the completion of the boxes, then each override written over it."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    disc = random_discretization(random.Random(draw(st.integers(0, 99))), p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    boxes = random_regular_game(rng, n, p).boxes
    table = dense_completion(p, n, boxes)
    faces = list(table)
    overrides = {}
    for d in draw(st.lists(st.sampled_from(faces), max_size=6)):
        shift = draw(st.sampled_from((None, F(0), F(1, 24), F(-1, 24))))
        overrides[d] = draw(values) if shift is None else table[d] + shift
    table.update(overrides)
    return StepGame(disc, n, boxes, overrides, draw(st.sampled_from(TAGS))), table


@settings(max_examples=300, deadline=None)
@given(dense_games())
def test_box_native_form_matches_dense_table(case):
    g, table = case
    assert dict(g.values) == table
    report = validate(g)
    assert (report.monotone, report.tag_ok, report.in_range) == \
        dense_validate(g.p, g.n, table, g.tag)
    if g.tag != "regular" or report.tag_ok:  # regular games emit no "faces"
        assert parse_step_game(step_game_to_json(g)) == g


@settings(max_examples=100, deadline=None)
@given(dense_games(), st.data())
def test_with_values_keeps_every_other_face(case, data):
    g, table = case
    faces = list(table)
    updates = {d: data.draw(values) for d in
               data.draw(st.lists(st.sampled_from(faces), max_size=4))}
    table.update(updates)
    assert dict(g.with_values(updates).values) == table


@settings(max_examples=60, deadline=None)
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
