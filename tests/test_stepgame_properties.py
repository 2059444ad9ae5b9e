"""Property tests: the box-native step game (integer boxes plus face
overrides) against the dense face table of ``dense_oracle``."""

import itertools
import random
from fractions import Fraction as F
from math import floor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import powerdex.indices as indices
import powerdex.stepfun as stepfun
from dense_oracle import (adjacent_boxes, box_dict, dense_boundary_averages,
                          dense_completion, dense_validate,
                          dense_weighted_boundary_averages, face_values,
                          pairwise_violations)
from powerdex.axioms import null_extension, square_game
from powerdex.coalitions import (CoalitionFunction, SimpleGame,
                                 random_monotone_jk)
from powerdex.embeddings import (embed_2k_tau, embed_coalition_semiregular,
                                 embed_jk, embed_simple_semiregular)
from powerdex.evaluables import EvaluableGame, step_game_evaluable
from powerdex.his import IncrementError, apply_box_increment, raise_box
from powerdex.indices import boundary_averages, psi_exact, psi_mc, psi_point
from powerdex.rational import format_rational
from powerdex.sampling import random_discretization, random_regular_game
from powerdex.serialize import parse_step_game, step_game_to_json
from powerdex.stepfun import (Discretization, box_faces, box_keys,
                              face_table, make_regular_step, refine,
                              regular_completion, validate)
from powerdex.transforms import (coarsen, from_face_table, join_meet,
                                 permute_axes)

TAGS = ("raw", "semi_regular", "regular")
values = st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=12)
wide_values = st.fractions(min_value=F(-1, 2), max_value=F(3, 2),
                           max_denominator=10 ** 6)


@st.composite
def dense_games(draw, players=st.integers(1, 3), monotone=False,
                coprime=False):
    """A game read from its JSON form, boxes plus faces (box keys, corners
    and values outside [0, 1] included), with the dense table the old
    parser built: the completion of the boxes, then each face written over
    it, a box key moving that box alone.  With
    ``monotone`` each override lies between its cover neighbours, so the
    game stays monotone.  With ``coprime`` the breakpoints are multiples of
    1/997, the override values have denominators near 10^6, and each box
    value v becomes floor(v q) / q for a prime q drawn per value (7907,
    7919 or one near 10^6), so the boxes mix coprime denominators and stay
    monotone.  Four players get at most two intervals."""
    n = draw(players)
    p = draw(st.integers(1, 3 if n < 4 else 2))
    disc = random_discretization(random.Random(draw(st.integers(0, 99))), p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    boxes = box_dict(random_regular_game(rng, n, p))
    if coprime:
        cuts = draw(st.lists(st.integers(1, 996), min_size=p - 1,
                             max_size=p - 1, unique=True))
        disc = Discretization((F(0), *sorted(F(c, 997) for c in cuts), F(1)))
        # box values are multiples of 1/12, and floor(v q) / q lies within
        # 1/q of v: equal values stay equal and unequal ones keep their order
        q = {v: draw(st.sampled_from((999_983, 999_979, 524_287, 7919, 7907)))
             for v in sorted(set(boxes.values()))}
        boxes = {b: F(floor(v * q[v]), q[v]) for b, v in boxes.items()}
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
    g = parse_step_game({
        "n": n, "alpha": list(map(format_rational, disc.alpha)),
        "tag": draw(st.sampled_from(TAGS)),
        "boxes": {_key((bi + 1) // 2 for bi in b): format_rational(v)
                  for b, v in boxes.items()},
        "faces": {_key(d): format_rational(v) for d, v in overrides.items()}})
    return g, table


def _key(coords) -> str:
    return ",".join(map(str, coords))


@settings(max_examples=300)
@given(dense_games() | dense_games(coprime=True))
def test_box_native_form_matches_dense_table(case):
    g, table = case
    assert face_values(g) == table
    report = validate(g)
    assert (report.monotone, report.tag_ok, report.in_range) == \
        dense_validate(g.p, g.n, table, g.tag)
    assert report.violations == pairwise_violations(g)
    assert parse_step_game(step_game_to_json(g)) == g


@settings(max_examples=100)
@given(dense_games(), st.data())
def test_with_values_keeps_every_other_face(case, data):
    g, table = case
    faces = list(table)
    updates = {d: data.draw(values) for d in
               data.draw(st.lists(st.sampled_from(faces), max_size=4))}
    table.update(updates)
    assert face_values(g.with_values(updates)) == table


@settings(max_examples=100)
@given(dense_games() | dense_games(coprime=True), st.data())
def test_with_values_leaves_its_receiver_unchanged(case, data):
    g, table = case
    before = (list(g.nums), g.den, dict(g.overrides), g.tag)
    updates = {d: data.draw(values) for d in
               data.draw(st.lists(st.sampled_from(list(table)), max_size=4))}
    g.with_values(updates)
    assert (g.nums, g.den, g.overrides, g.tag) == before
    assert face_values(g) == table


def canonical(g):
    """The game with g's values, rebuilt from its face table."""
    return from_face_table(g.disc, g.n, *face_table(g), g.tag)


@settings(max_examples=100)
@given(dense_games() | dense_games(coprime=True), st.data())
def test_every_producer_stores_the_canonical_form(case, data):
    # the constructor keeps the overrides it is handed, so each producer
    # must hand it exactly the faces off the completion
    g, table = case
    n, p = g.n, g.p
    updates = {d: data.draw(values) for d in
               data.draw(st.lists(st.sampled_from(list(table)), max_size=4))}
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    h = random_regular_game(rng, n, 2)
    inner = [a for a in g.disc.alpha[1:-1] if data.draw(st.booleans())]
    produced = [
        g, g.with_values(updates), make_regular_step(h.disc, box_dict(h), n),
        refine(g, g.disc.merge(h.disc)),
        permute_axes(g, data.draw(st.permutations(range(1, n + 1)))),
        raise_box(g, data.draw(st.sampled_from(box_keys(n, p))),
                  data.draw(st.sampled_from((F(0), F(1, 48), F(1, 3))))),
        null_extension(g, data.draw(st.integers(1, n + 1))),
        coarsen(g, Discretization((F(0), *inner, F(1)))),
        *join_meet(g, h), square_game(g)]
    for out in produced:
        assert out == canonical(out)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(2, 4),
       st.integers(2, 4))
def test_embeddings_store_the_canonical_form(seed, n, j, k):
    rng = random.Random(seed)
    table = [F(rng.randrange(k), k - 1) for _ in range(1 << n)]
    weights = [rng.randrange(1, 4) for _ in range(n)]
    for out in (embed_jk(random_monotone_jk(rng, n, j, k)),
                embed_2k_tau(random_monotone_jk(rng, n, 2, k), F(1, j + 1)),
                embed_coalition_semiregular(CoalitionFunction(n, table)),
                embed_simple_semiregular(SimpleGame.weighted(
                    sum(weights) // 2 + 1, weights))):
        assert out == canonical(out)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(1, 3),
       st.integers(1, 3))
def test_box_increment_delta_is_exact_share_difference(seed, n, p, scale):
    rng = random.Random(seed)
    g = random_regular_game(rng, n, p if n < 4 else min(p, 2))
    box = tuple(rng.randrange(1, 2 * g.p, 2) for _ in range(n))
    room = [g.box(box[:i] + (box[i] + 2,) + box[i + 1:]) - g.box(box)
            for i in range(n) if box[i] + 2 < 2 * g.p]
    eps = min(room, default=1 - g.box(box)) * F(scale, 3)
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
    box = data.draw(st.sampled_from(box_keys(g.n, g.p)))
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
    assert face_values(out) == table
    assert delta.shares == tuple(a - b for a, b in
                                 zip(psi_exact(out).shares, psi_exact(g).shares))


@settings(max_examples=300)
@given(dense_games(st.integers(1, 4), monotone=True) |
       dense_games(st.integers(1, 4), monotone=True, coprime=True), st.data())
def test_box_increment_checks_what_whole_game_validate_finds(case, data):
    # on a monotone game only the raised box's faces rise, so the covers
    # checked locally give the verdict, count and text of validate
    g, _ = case
    assume(validate(g).monotone)
    box = data.draw(st.sampled_from(box_keys(g.n, g.p)))
    eps = data.draw(st.sampled_from((F(0), F(1, 999_983), F(1, 48), F(1, 3),
                                     F(1))))
    broken = [v.removeprefix("monotonicity: ")
              for v in validate(raise_box(g, box, eps)).violations
              if v.startswith("monotonicity: ")]
    if not broken:
        assert apply_box_increment(g, box, eps)[0] == raise_box(g, box, eps)
        return
    more = ", first 3" if len(broken) > 3 else ""
    with pytest.raises(IncrementError) as refused:
        apply_box_increment(g, box, eps)
    assert str(refused.value) == (
        f"increment breaks monotonicity: {len(broken)} violations{more}: "
        + "; ".join(broken[:3]))


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


@settings(max_examples=150)
@given(dense_games(st.integers(1, 4)) |
       dense_games(st.integers(1, 4), coprime=True), st.data())
def test_weighted_boundary_averages_match_dense_table(case, data):
    # any digit weights, zeros among them, and the one-hot ones of psi_point
    g, table = case
    digits = 2 * g.p + 1
    mass = data.draw(
        st.lists(st.integers(0, 3), min_size=digits, max_size=digits)
        | st.integers(0, digits - 1).map(lambda e: [int(d == e) for d in
                                                    range(digits)]))
    assume(any(mass))
    assert boundary_averages(g, mass).table == \
        dense_weighted_boundary_averages(g.p, g.n, table, mass)


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


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call to the ``stepfun`` function
    ``name``."""
    calls, inner = [], getattr(stepfun, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(stepfun, name, counted)
    return calls


def test_psi_mc_builds_the_face_table_once(monkeypatch):
    # the float path converts the integer face table, built once by the
    # stencil, and reads no face on its own
    g = random_regular_game(random.Random(1), 5, 4)
    builds = count_calls(monkeypatch, "_completion_table")
    reads = count_calls(monkeypatch, "_completion")
    psi_mc(g, 20_000, 0)
    psi_mc(g, 5_000, 1)
    assert len(builds) == 1 and reads == []


def test_psi_exact_derives_no_face(monkeypatch):
    # the C-table reads the boxes and the stored overrides by key
    g = random_regular_game(random.Random(1), 4, 3)
    g = g.with_tag("raw").with_values({(0, 3, 1, 5): F(1, 3)})
    expected = psi_exact(g)

    def derived(*args):
        raise AssertionError("a face was derived")
    monkeypatch.setattr(stepfun, "_completion_table", derived)
    monkeypatch.setattr(stepfun, "_completion", derived)
    assert psi_exact(g) == expected


def test_psi_point_derives_no_face(monkeypatch):
    # the pinned table is the boundary averages with all the weight on
    # alpha's digit: the boxes and the stored overrides, no face read alone
    g = random_regular_game(random.Random(4), 4, 3).with_tag("raw")
    alphas = (F(0), F(1), g.disc.alpha[1], F(1, 2))
    top, updates = 6, {}
    for a in alphas:
        # faces that C(T) reads at alpha, for T = {0, 3} and T = {1}
        at = stepfun.locate_face(g.disc, (a,))[0]
        updates[(top, at, at, top)] = F(9, 10)
        updates[(at, 0, at, at)] = F(1, 10)
    g = g.with_values(updates)
    expected = [psi_point(step_game_evaluable(g), a) for a in alphas]

    def derived(*args):
        raise AssertionError("a face was derived")
    for name in ("_completion_table", "_completion", "face_numerator"):
        monkeypatch.setattr(stepfun, name, derived)
    assert len(g.overrides) == 8
    assert [psi_point(g, a) for a in alphas] == expected


def test_psi_exact_builds_no_fraction_table(monkeypatch):
    # the C-table stays in integers over one denominator: the 2^n-entry
    # Fraction table is built only when c_table is read
    g = random_regular_game(random.Random(2), 10, 1).with_tag("raw")
    g = g.with_values({(0, 0) + (1,) * 8: F(1, 7), (2,) * 3 + (1,) * 7: F(5, 7)})
    made = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)
    monkeypatch.setattr(indices, "Fraction", Counted)
    pv = psi_exact(g)
    assert len(g.overrides) == 2 and len(made) < 1 << g.n
    assert pv.c_table == boundary_averages(g).table == dense_boundary_averages(
        g.disc, g.n, face_values(g))


@settings(max_examples=200)
@given(dense_games(st.integers(1, 4)) |
       dense_games(st.integers(1, 4), coprime=True))
def test_face_table_and_face_reads_match_dense_oracle(case):
    # the stencil-built table and the one-face read both give every face
    # the oracle's Fraction completion with the overrides written in
    g, table = case
    faces = list(itertools.product(range(2 * g.p + 1), repeat=g.n))
    nums, den = face_table(g)
    assert [F(x, den) for x in nums] == [table[d] for d in faces]
    assert [regular_completion(g, d) for d in faces] == [table[d] for d in faces]
