import itertools
import random
from fractions import Fraction as F
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerdex.his as his
import powerdex.increments as increments
import powerdex.stepfun as stepfun
from powerdex.his import (IncrementError, apply_box_increment, appendix_game,
                          build_by_increments)
from powerdex.increments import (Domain, LocalIncrement, box_increments,
                                 check_local_increment, corner_increase,
                                 his_delta, potential_influence,
                                 replay_appendix, table1_rows)
from powerdex.indices import psi_exact
from powerdex.rational import loss_constant, ordering_weight
from powerdex.sampling import random_regular_game
from powerdex.stepfun import (Discretization, box_keys, make_regular_step,
                              refine, regular_completion, uniform_grid,
                              validate, zero_game)
from powerdex.transforms import coarsen, pointwise_equal

APPENDIX_PSI = [
    ("u0", (F(1, 2), F(1, 2))),
    ("u1", (F(1, 2), F(1, 2))),
    ("u2", (F(1, 2), F(1, 2))),
    ("u3", (F(39, 80), F(41, 80))),
    ("u4", (F(36, 80), F(44, 80))),
    ("u5", (F(38, 80), F(42, 80))),
    ("u6", (F(11, 20), F(9, 20))),
    ("u7", (F(11, 20), F(9, 20))),
    ("u8", (F(43, 80), F(37, 80))),
    ("u9", (F(41, 80), F(39, 80))),
    ("u10", (F(37, 80), F(43, 80))),
    ("u11", (F(39, 80), F(41, 80))),
    ("u12", (F(41, 80), F(39, 80))),
    ("u13", (F(9, 16), F(7, 16))),
]


def test_potential_influence_examples(appendix):
    assert potential_influence(appendix, [1], [F(1, 8)]) == F(2, 5)
    assert potential_influence(appendix, [1, 2], []) == 1
    with pytest.raises(ValueError):
        potential_influence(appendix, [1], [F(1)])


def test_potential_influence_null_player():
    from powerdex.axioms import null_extension
    disc = Discretization((F(0), F(1, 2), F(1)))
    one = make_regular_step(disc, {(1,): F(1, 3), (3,): F(2, 3)}, 1)
    g = null_extension(one, 2)
    for x in (F(1, 4), F(1, 2), F(7, 8)):
        assert potential_influence(g, [2], [x]) == 0


def test_his_delta_examples():
    inc = LocalIncrement(2, frozenset({2}), F(1, 10), Domain.of({1: (0, F(1, 4))}))
    assert his_delta(inc).shares == (F(-1, 80), F(1, 80))
    empty = LocalIncrement(2, frozenset(), F(1, 10), Domain.unit_cube([1, 2]))
    assert his_delta(empty).shares == (F(0), F(0))
    for l in (2, 3, 5):
        inc3 = LocalIncrement(3, frozenset({1, 3}), F(1),
                              Domain.of({2: (0, F(1, l))}))
        assert his_delta(inc3).shares == (F(1, 6 * l), F(-1, 3 * l), F(1, 6 * l))


def test_his_delta_always_conserves(rng):
    for _ in range(100):
        n = rng.randrange(2, 6)
        size = rng.randrange(1, n)
        coalition = frozenset(rng.sample(range(1, n + 1), size))
        others = [i for i in range(1, n + 1) if i not in coalition]
        dom = Domain.of({i: sorted((F(rng.randrange(0, 5), 4),
                                    F(rng.randrange(0, 5), 4))) for i in others})
        inc = LocalIncrement(n, coalition, F(rng.randrange(-8, 9), 10), dom)
        assert sum(his_delta(inc).shares) == 0


def test_box_increments_examples():
    # box (high, low, high) of the 2-grid: only the faces pinning a
    # coalition of its top band to 1, or of its bottom band to 0, carry an
    # increment; faces pinned to both sides or to an inner breakpoint do not
    incs = box_increments(uniform_grid(2), (3, 1, 3), F(1, 3))
    got = {(tuple(sorted(inc.coalition)), side, inc.epsilon,
            inc.domain.volume()) for side, inc in incs}
    assert len(incs) == 4
    assert got == {((1, 3), 1, F(1, 3), F(1, 2)),
                   ((1,), 1, F(1, 3), F(1, 4)),
                   ((3,), 1, F(1, 3), F(1, 4)),
                   ((2,), -1, F(-1, 3), F(1, 4))}
    top = next(inc for _, inc in incs if inc.coalition == {1, 3})
    assert top.domain == Domain.of({2: (0, F(1, 2))})


def test_check_local_increment_appendix_move(appendix):
    u2 = refine(coarsen(appendix, Discretization((F(0), F(1, 4), F(1)))),
                Discretization((F(0), F(1, 4), F(1))))
    # rebuild u2 -> u3: +0.1 on the x2=1 edge over (0, 1/4)
    u3 = u2.with_values({(1, 4): regular_completion(u2, (1, 4)) + F(1, 10),
                         (2, 4): regular_completion(u2, (2, 4)) + F(1, 20)})
    inc = LocalIncrement(2, frozenset({2}), F(1, 10), Domain.of({1: (0, F(1, 4))}))
    ok, witness = check_local_increment(u2, u3, inc)
    assert ok, witness
    # wrong epsilon is rejected with a witness
    bad = LocalIncrement(2, frozenset({2}), F(1, 5), Domain.of({1: (0, F(1, 4))}))
    ok, witness = check_local_increment(u2, u3, bad)
    assert not ok and witness["T"] == (2,)


def test_check_local_increment_refuses_a_wrong_eps_for_the_grand_coalition(
        appendix):
    # S = N raises the game itself on the open domain (1/2, 1)^2, whose
    # only interior face on this grid is the box (5, 5)
    v = appendix.with_values({(5, 5): F(1)})
    domain = Domain.of({1: (F(1, 2), 1), 2: (F(1, 2), 1)})
    ok, witness = check_local_increment(
        appendix, v, LocalIncrement(2, frozenset({1, 2}), F(1, 10), domain))
    assert ok, witness
    ok, witness = check_local_increment(
        appendix, v, LocalIncrement(2, frozenset({1, 2}), F(1, 5), domain))
    assert not ok
    assert witness == {"T": (1, 2), "face": (5, 5), "point": (F(3, 4), F(3, 4)),
                       "expected": F(9, 10) + F(1, 5), "got": F(1)}


def test_check_local_increment_refuses_a_move_of_another_coalition():
    grid = Discretization((F(0), F(1, 4), F(1)))
    u2 = refine(coarsen(appendix_game(), grid), grid)
    # the claimed +1/10 on the x2 = 1 edge over (0, 1/4), and also +1/10 at
    # the face (4, 1) on the x1 = 1 edge, which moves the influence of {1}
    u3 = u2.with_values({(1, 4): regular_completion(u2, (1, 4)) + F(1, 10),
                         (2, 4): regular_completion(u2, (2, 4)) + F(1, 20),
                         (4, 1): regular_completion(u2, (4, 1)) + F(1, 10)})
    inc = LocalIncrement(2, frozenset({2}), F(1, 10), Domain.of({1: (0, F(1, 4))}))
    ok, witness = check_local_increment(u2, u3, inc)
    assert not ok
    before = regular_completion(u2, (4, 1)) - regular_completion(u2, (0, 1))
    assert witness == {"T": (1,), "face": (4, 1), "point": (F(1), F(1, 8)),
                       "expected": before, "got": before + F(1, 10)}


def test_check_local_increment_empty_and_grand_coalition_conventions(appendix):
    # the game raised by 1/10 on the open domain (1/2, 1)^2 only
    domain = Domain.of({1: (F(1, 2), 1), 2: (F(1, 2), 1)})
    v = appendix.with_values({(5, 5): F(1)})
    # S = {} ignores D: the game must gain epsilon on the whole open cube
    ok, witness = check_local_increment(
        appendix, v, LocalIncrement(2, frozenset(), F(1, 10), domain))
    assert not ok
    assert witness == {"T": (), "face": (1, 1), "point": (F(1, 8), F(1, 8)),
                       "expected": F(1, 5), "got": F(1, 10)}
    # S = N checks the open domain alone: a raise of the whole open cube
    # passes for the smaller domain
    cube = appendix.with_values({
        d: regular_completion(appendix, d) + F(1, 10)
        for d in itertools.product(range(1, 6), repeat=2)})
    ok, witness = check_local_increment(
        appendix, cube, LocalIncrement(2, frozenset({1, 2}), F(1, 10), domain))
    assert ok, witness


def test_check_local_increment_refuses_a_raise_beyond_the_claimed_domain(
        appendix):
    grid = Discretization((F(0), F(1, 4), F(1)))
    u2 = refine(coarsen(appendix, grid), grid)
    # +1/10 to the influence of {2} over x1 in (0, 1/4), claimed over
    # (0, 1/8) only: the faces with x1 in (1/8, 1/4) lie outside the claim
    u3 = u2.with_values({(1, 4): regular_completion(u2, (1, 4)) + F(1, 10),
                         (2, 4): regular_completion(u2, (2, 4)) + F(1, 20)})
    inc = LocalIncrement(2, frozenset({2}), F(1, 10), Domain.of({1: (0, F(1, 8))}))
    ok, witness = check_local_increment(u2, u3, inc)
    assert not ok
    assert witness == {"T": (2,), "face": (3, 6), "point": (F(3, 16), F(1)),
                       "expected": F(1, 10), "got": F(1, 5)}


def test_check_local_increment_identity_needs_zero_eps(appendix):
    zero = LocalIncrement(2, frozenset({1}), F(0), Domain.of({2: (0, 1)}))
    ok, _ = check_local_increment(appendix, appendix, zero)
    assert ok
    nonzero = LocalIncrement(2, frozenset({1}), F(1, 10), Domain.of({2: (0, 1)}))
    ok, witness = check_local_increment(appendix, appendix, nonzero)
    assert not ok and witness is not None


def test_apply_box_increment_table_case():
    base = make_regular_step(uniform_grid(2), {
        b: (F(1) if b[1] == 3 else F(0))
        for b in itertools.product((1, 3), repeat=3)}, 3)
    out, delta = apply_box_increment(base, (3, 1, 3), 1)
    assert delta.shares == (F(1, 6), F(-1, 3), F(1, 6))
    diff = [a - b for a, b in zip(psi_exact(out).shares, psi_exact(base).shares)]
    assert tuple(diff) == delta.shares
    assert validate(out).ok


def test_apply_box_increment_extreme_boxes_have_no_effect():
    disc = uniform_grid(2)
    lowest = make_regular_step(disc, {
        b: (F(0) if b == (1, 1) else F(1, 2))
        for b in itertools.product((1, 3), repeat=2)}, 2)
    out, delta = apply_box_increment(lowest, (1, 1), F(1, 2))
    assert delta.shares == (F(0), F(0))
    assert psi_exact(out) == psi_exact(lowest)
    highest = make_regular_step(disc, {
        b: (F(1, 2) if b == (3, 3) else F(0))
        for b in itertools.product((1, 3), repeat=2)}, 2)
    out, delta = apply_box_increment(highest, (3, 3), F(1, 4))
    assert delta.shares == (F(0), F(0))


def test_apply_box_increment_phase_one_keeps_half_half():
    z = zero_game(2)
    out, delta = apply_box_increment(z, (1, 1), F(1, 10))
    assert delta.shares == (F(0), F(0))
    assert psi_exact(out).shares == (F(1, 2), F(1, 2))
    assert out.box((1, 1)) == F(1, 10)
    assert regular_completion(out, (0, 0)) == 0
    assert regular_completion(out, (2, 2)) == 1


def test_apply_box_increment_rejects_monotonicity_breaks():
    z = zero_game(2)
    g = refine(z, Discretization((F(0), F(1, 2), F(1)))).with_tag("regular")
    with pytest.raises(IncrementError):
        apply_box_increment(g, (1, 3), F(1, 2))


def test_his_consistency_random_increments(rng):
    trials = 0
    while trials < 40:
        n = rng.randrange(2, 5)
        p = rng.randrange(1, 4) if n < 4 else rng.randrange(1, 3)
        g = random_regular_game(rng, n, p)
        box = tuple(rng.randrange(1, 2 * g.p, 2) for _ in range(n))
        room = [g.box(box[:i] + (box[i] + 2,) + box[i + 1:]) - g.box(box)
                for i in range(n) if box[i] + 2 <= 2 * g.p - 1]
        top = min(room) if room else 1 - g.box(box)
        if top <= 0:
            continue
        eps = top * F(rng.randrange(1, 4), 3)
        out, delta = apply_box_increment(g, box, eps)
        diff = tuple(a - b for a, b in
                     zip(psi_exact(out).shares, psi_exact(g).shares))
        assert diff == delta.shares
        assert sum(delta.shares) == 0
        trials += 1


def test_box_increment_interior_box_has_zero_delta():
    disc = Discretization((F(0), F(1, 4), F(1, 2), F(1)))
    ladder = {b: F(sum(b), 12) for b in itertools.product((1, 3, 5), repeat=2)}
    g = make_regular_step(disc, ladder, 2)
    box = (3, 3)  # closure stays inside the open unit square
    out, delta = apply_box_increment(g, box, F(1, 12))
    assert delta.shares == (F(0), F(0))
    assert psi_exact(out) == psi_exact(g)


def test_corner_increase_closed_form_all_partitions():
    for n in range(2, 6):
        players = set(range(1, n + 1))
        for r in range(1, n):
            for union in itertools.combinations(sorted(players), r):
                U = set(union)
                L = players - U
                u = len(U)
                for i in sorted(players):
                    got = corner_increase(sorted(L), sorted(U), 1, 2, i)
                    if i in U:
                        assert got == ordering_weight(u, n)
                    else:
                        assert got == -loss_constant(u, n)


def test_corner_increase_matches_box_increment():
    for l in (2, 3):
        for L, U in (([2], [1, 3]), ([1, 2], [3]), ([3], [1, 2])):
            n = 3
            e_bar = tuple(1 if i in L else 2 * l - 1 for i in range(1, n + 1))
            boxes = {}
            for b in itertools.product(range(1, 2 * l, 2), repeat=n):
                above = all(x >= y for x, y in zip(b, e_bar))
                boxes[b] = F(1) if above and b != e_bar else F(0)
            base = make_regular_step(uniform_grid(l), boxes, n)
            out, delta = apply_box_increment(base, e_bar, 1)
            expected = tuple(corner_increase(L, U, 1, l, i)
                             for i in range(1, n + 1))
            assert delta.shares == expected


def test_table1_rows_exact():
    for l in (2, 3):
        rows = table1_rows(l, 1)
        by_s = {r["S"]: r for r in rows}
        assert len(rows) == 4
        assert by_s[(1, 3)]["vol"] == F(1, l)
        assert by_s[(1, 3)]["delta"] == (F(1, 6 * l), F(-1, 3 * l), F(1, 6 * l))
        assert by_s[(1,)]["delta"] == (F(1, 3 * l * l), F(-1, 6 * l * l),
                                       F(-1, 6 * l * l))
        assert by_s[(3,)]["delta"] == (F(-1, 6 * l * l), F(-1, 6 * l * l),
                                       F(1, 3 * l * l))
        assert by_s[(2,)]["delta"] == (F(1, 6 * l * l), F(-1, 3 * l * l),
                                       F(1, 6 * l * l))


def test_build_by_increments_appendix(appendix):
    result = build_by_increments(appendix)
    assert result.psi == (F(9, 16), F(7, 16))
    assert result.final.same_values(appendix)
    phase2 = [s for s in result.steps if s.phase == 2][-1]
    assert phase2.psi == (F(11, 20), F(9, 20))
    # each phase ends on the coarsening of the target
    by_phase = {}
    for s in result.steps:
        by_phase[s.phase] = s
    # zero game: all increments vanish
    z = zero_game(2)
    rz = build_by_increments(z)
    assert all(s.eps == 0 for s in rz.steps)
    assert rz.psi == (F(1, 2), F(1, 2))


def test_build_phase_ends_at_coarsening(appendix):
    # replicate the loop, stopping after phase 2
    from powerdex.his import _phase_grid
    result = build_by_increments(appendix)
    partial = zero_game(2)
    for s in result.steps:
        if s.phase > 2:
            break
        grid = _phase_grid(appendix.disc.alpha, s.phase)
        partial = refine(partial, grid).with_tag("regular")
        if s.eps > 0:
            partial, _ = apply_box_increment(partial, s.box, s.eps)
    expected = coarsen(appendix, Discretization((F(0), F(1, 4), F(1))))
    assert pointwise_equal(partial, expected)


def _random_descending(rng):
    """A box order that draws a random descending linear extension of the
    componentwise order."""
    def order(boxes):
        remaining = list(boxes)
        out = []
        while remaining:
            maximal = [b for b in remaining
                       if not any(all(x >= y for x, y in zip(o, b)) and o != b
                                  for o in remaining)]
            pick = rng.choice(maximal)
            out.append(pick)
            remaining.remove(pick)
        return out
    return order


def _applied_chain(v, order):
    """The build replayed as a chain of ``apply_box_increment`` games in the
    given box order: the text of its first refusal, or None."""
    game = zero_game(v.n)
    for l in range(1, v.p + 1):
        game = refine(game, his._phase_grid(v.disc.alpha, l)).with_tag("regular")
        new = [b for b in itertools.product(range(1, 2 * l, 2), repeat=v.n)
               if 2 * l - 1 in b]
        for box in order(new):
            if eps := v.box(box) - game.box(box):
                try:
                    game, _ = apply_box_increment(game, box, eps)
                except IncrementError as exc:
                    return str(exc)
    return None


def test_build_order_independence(appendix, rng):
    games = [appendix] + [random_regular_game(rng, 2, 3) for _ in range(3)]
    for g in games:
        lex = build_by_increments(g)
        for _ in range(2):
            alt = build_by_increments(g, box_order=_random_descending(rng))
            assert alt.final.same_values(lex.final)
            assert alt.psi == lex.psi


def test_replay_appendix_golden():
    result = replay_appendix()
    assert result.initial_psi == APPENDIX_PSI[0][1]
    assert len(result.moves) == 13
    for move, (_, expected) in zip(result.moves, APPENDIX_PSI[1:]):
        assert move.psi_his == expected
        assert move.psi_exact == expected
        assert move.check_ok
        assert sum(move.psi_his) == 1  # no efficiency leak along the way
    assert result.final_matches_target
    assert result.tracks_agree
    assert psi_exact(result.final).shares == (F(9, 16), F(7, 16))


def test_replay_moves_match_printed_parameters():
    result = replay_appendix()
    listed = [(sorted(m.increment.coalition), m.increment.epsilon)
              for m in result.moves]
    assert listed == [
        ([], F(1, 10)),
        ([1, 2], F(1, 2)),
        ([2], F(1, 10)), ([1], F(-1, 10)),
        ([1], F(1, 5)), ([2], F(-1, 5)),
        ([1, 2], F(3, 10)),
        ([2], F(1, 10)),
        ([2], F(1, 5)), ([1], F(-1, 5)),
        ([1], F(1, 5)),
        ([1], F(1, 5)), ([2], F(-1, 5)),
    ]

def test_replay_submove_totals_match_box_increments():
    """The grouped-move and per-box granularities agree box by box."""
    result = replay_appendix()
    psi_track = [result.initial_psi] + [m.psi_his for m in result.moves]
    move_deltas = [tuple(b - a for a, b in zip(prev, cur))
                   for prev, cur in zip(psi_track, psi_track[1:])]
    # moves per box in replay order
    replay_boxes = [((1, 1), 1), ((3, 3), 1), ((1, 3), 2), ((3, 1), 2),
                    ((5, 5), 1), ((3, 5), 1), ((1, 5), 2), ((5, 3), 1),
                    ((5, 1), 2)]
    totals = {}
    pos = 0
    for box, count in replay_boxes:
        chunk = move_deltas[pos:pos + count]
        totals[box] = tuple(sum(col) for col in zip(*chunk))
        pos += count
    build = build_by_increments(appendix_game())
    for step in build.steps:
        assert totals[step.box] == step.delta


PRIMES = (7, 11, 13, 17, 19, 23, 29)


@st.composite
def coprime_games(draw):
    """A regular monotone game with n <= 4 on a grid whose inner
    breakpoints have distinct prime denominators, its box values each
    floor(v q) / q for a prime q per value (v a multiple of 1/12, q >= 13,
    so the order of the values is kept)."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 3 if n < 4 else 2))
    qs = draw(st.permutations(PRIMES))[:p - 1]
    cuts = sorted(F(draw(st.integers(1, q - 1)), q) for q in qs)
    disc = Discretization((F(0), *cuts, F(1)))
    g = random_regular_game(random.Random(draw(st.integers(0, 2 ** 32))), n, p)
    q = {v: draw(st.sampled_from((13, 17, 19, 23, 7919)))
         for v in sorted({g.box(b) for b in box_keys(n, p)})}
    return make_regular_step(disc, {
        b: F(floor(g.box(b) * q[g.box(b)]), q[g.box(b)])
        for b in box_keys(n, p)}, n)


@settings(max_examples=150)
@given(coprime_games(), st.fractions(min_value=0, max_value=2,
                                     max_denominator=60))
def test_box_shift_sums_the_local_increments(g, eps):
    # the integer kernel against the per-increment Fraction path, on
    # every box of the grid
    for box in box_keys(g.n, g.p):
        shift, den = his._box_shift(g.disc, box)
        expected = [F(0)] * g.n
        for _, inc in box_increments(g.disc, box, eps):
            expected = [a + b for a, b in zip(expected, his_delta(inc).shares)]
        assert [eps * F(x, den) for x in shift] == expected


@settings(max_examples=80)
@given(coprime_games(), st.booleans(), st.randoms(use_true_random=False))
def test_build_accumulates_the_applied_deltas(v, lex, rng):
    # the running shares against a Fraction re-accumulation of
    # apply_box_increment's deltas, replayed from the recorded steps, in
    # the default order or a random descending linear extension
    result = build_by_increments(v, box_order=None if lex
                                 else _random_descending(rng))
    game, psi = zero_game(v.n), [F(1, v.n)] * v.n
    for step in result.steps:
        if step.phase != game.p:
            grid = his._phase_grid(v.disc.alpha, step.phase)
            game = refine(game, grid).with_tag("regular")
        assert step.eps == v.box(step.box) - game.box(step.box)
        delta = (F(0),) * v.n
        if step.eps:
            game, pv = apply_box_increment(game, step.box, step.eps)
            delta = pv.shares
        psi = [a + b for a, b in zip(psi, delta)]
        assert (step.delta, step.psi) == (delta, tuple(psi))
    assert result.final == game and result.final.same_values(v)
    assert result.psi == tuple(psi) == psi_exact(v).shares


def test_ascending_order_is_refused_as_the_applied_chain(appendix, rng):
    # an ascending order raises a box before its upper neighbours, so it is
    # no linear extension: the build refuses the first raise that leaves a
    # neighbour box lower, with the text the apply_box_increment chain gives
    games = [appendix] + [random_regular_game(rng, rng.randint(2, 3), 3)
                          for _ in range(12)]
    refused = 0
    for g in games:
        expected = _applied_chain(g, sorted)
        if expected is None:
            result = build_by_increments(g, box_order=sorted)
            assert result.psi == psi_exact(g).shares
            continue
        refused += 1
        with pytest.raises(IncrementError) as caught:
            build_by_increments(g, box_order=sorted)
        assert str(caught.value) == expected
    assert refused > 1


def test_build_constructs_no_step_game(monkeypatch, rng):
    # the build works on one box list per phase: no intermediate game, so
    # none of raise_box, refine or zero_game runs
    games = [appendix_game(), random_regular_game(rng, 3, 3)]
    expected = [psi_exact(g).shares for g in games]

    def refused(*args, **kwargs):
        raise AssertionError("the build constructed a StepGame")
    monkeypatch.setattr(stepfun.StepGame, "__init__", refused)
    results = [build_by_increments(g) for g in games]
    assert results[0].psi == (F(9, 16), F(7, 16))
    assert [r.psi for r in results] == expected
    assert all(r.final is g for r, g in zip(results, games))


def test_box_increments_build_no_per_coalition_objects(monkeypatch):
    # the build and the box increment sum their shifts in integers: neither
    # may go back to one LocalIncrement and Domain per implied coalition
    def refused(*args, **kwargs):
        raise AssertionError("a per-coalition object was built")
    monkeypatch.setattr(increments.LocalIncrement, "__init__", refused)
    monkeypatch.setattr(increments.Domain, "of", refused)
    g = appendix_game()
    result = build_by_increments(g)
    assert result.psi == (F(9, 16), F(7, 16))
    out, delta = apply_box_increment(g, (3, 1), F(1, 10))
    assert delta.shares == tuple(a - b for a, b in zip(
        psi_exact(out).shares, psi_exact(g).shares))
