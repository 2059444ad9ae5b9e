"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import random
from fractions import Fraction as F

from powerdex.axioms import (check_axioms, make_handles, null_extension)
from powerdex.coalitions import (CoalitionFunction, JKGame, SimpleGame,
                                 all_simple_games, random_monotone_jk,
                                 random_simple_game)
from powerdex.embeddings import (embed_2k_tau, embed_coalition_semiregular,
                                 embed_jk)
from powerdex.families import counterexample_game
from powerdex.his import apply_box_increment, appendix_game, build_by_increments
from powerdex.increments import corner_increase, replay_appendix, table1_rows
from powerdex.indices import (boundary_averages, jk_boundary_averages,
                              jk_ssi_marginal, psi_exact, psi_mc, psi_point,
                              ssi_coalition)
from powerdex.oracles import jk_ssi_pivot, psi_product_oracle
from powerdex.rational import loss_constant, ordering_weight
from powerdex.sampling import random_regular_game
from powerdex.stepfun import make_regular_step, uniform_grid, validate


def _report(number, text):
    print(f"PASS criterion {number}: {text}", flush=True)


REPLAY_GOLDEN = [
    (F(1, 2), F(1, 2)),     # u1
    (F(1, 2), F(1, 2)),     # u2
    (F(39, 80), F(41, 80)),  # u3
    (F(36, 80), F(44, 80)),  # u4
    (F(38, 80), F(42, 80)),  # u5
    (F(11, 20), F(9, 20)),   # u6
    (F(11, 20), F(9, 20)),   # u7
    (F(43, 80), F(37, 80)),  # u8
    (F(41, 80), F(39, 80)),  # u9
    (F(37, 80), F(43, 80)),  # u10
    (F(39, 80), F(41, 80)),  # u11
    (F(41, 80), F(39, 80)),  # u12
    (F(9, 16), F(7, 16)),    # u13
]


def test_criterion_01_appendix_golden_replay():
    result = replay_appendix()
    assert result.initial_psi == (F(1, 2), F(1, 2))  # u0
    assert len(result.moves) == len(REPLAY_GOLDEN)
    for move, expected in zip(result.moves, REPLAY_GOLDEN):
        assert move.psi_his == expected, f"HIS track off at move {move.index}"
        assert move.psi_exact == expected, f"exact track off at move {move.index}"
        assert move.check_ok, f"move {move.index} fails verification"
    assert result.final_matches_target
    _report(1, "replay reproduces all 14 printed share vectors exactly, "
               "on both the accumulated and the recomputed track")


def test_criterion_02_appendix_exact_values():
    g = appendix_game()
    assert psi_exact(g).shares == (F(9, 16), F(7, 16))
    c = boundary_averages(g)
    assert c.get([1]) == F(1, 2)
    assert c.get([2]) == F(3, 8)
    _report(2, "appendix game has exact shares (9/16, 7/16) and boundary "
               "averages 1/2 and 3/8")


def test_criterion_03_counterexample_values():
    assert psi_product_oracle([1, 2]).shares == (F(5, 12), F(7, 12))
    game3 = counterexample_game(3)
    pv = psi_mc(game3, 1_000_000, seed=42)
    targets = (5 / 12, 7 / 12, 0.0)
    assert all(abs(est - t) <= 0.005 for est, t in zip(pv.shares, targets))
    game2 = counterexample_game(2)
    for a in (F(0), F(1, 4), F(1)):
        gap = (a - a * a) / 2
        assert psi_point(game2, a).shares == (F(1, 2) - gap, F(1, 2) + gap)
    _report(3, "closed form (5/12, 7/12) exact; 1e6-sample estimate within "
               "0.005; pinned-profile values match the closed form exactly")


def test_criterion_04_embedding_coincidence():
    count = 0
    for v in all_simple_games(3):
        assert psi_exact(embed_jk(JKGame.from_simple(v))) == ssi_coalition(v)
        count += 1
    assert count == 18
    rng = random.Random(404)
    for _ in range(100):
        v = random_monotone_jk(rng, rng.randrange(1, 4),
                               rng.randrange(2, 4), rng.randrange(2, 4))
        shares = psi_exact(embed_jk(v))
        assert shares == jk_ssi_pivot(v) == jk_ssi_marginal(v)
    _report(4, "embedding coincides with both finite forms on all 18 "
               "three-player 0/1 games and 100 random graded games")


def test_criterion_05_tau_invariance_and_c_tables():
    rng = random.Random(505)
    taus = (F(1, 4), F(1, 2), F(3, 4))
    for _ in range(50):
        v = random_monotone_jk(rng, rng.randrange(1, 4), 2, rng.randrange(2, 4))
        shares = {tau: psi_exact(embed_2k_tau(v, tau)).shares for tau in taus}
        assert len(set(shares.values())) == 1
        discrete = jk_boundary_averages(v).table
        assert boundary_averages(embed_2k_tau(v, F(1, 2))).table == discrete
    maj = JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))
    skew = boundary_averages(embed_2k_tau(maj, F(1, 4))).table
    assert skew != jk_boundary_averages(maj).table
    assert psi_exact(embed_2k_tau(maj, F(1, 4))).shares == \
        jk_ssi_marginal(maj).shares
    _report(5, "skew-grid shares are tau-invariant on 50 games; boundary "
               "tables coincide at tau=1/2 only, with a concrete mismatch "
               "at tau=1/4")


TABLE1_EXPECTED = {
    (1, 3): lambda l: (F(1, 6 * l), F(-1, 3 * l), F(1, 6 * l)),
    (1,): lambda l: (F(1, 3 * l * l), F(-1, 6 * l * l), F(-1, 6 * l * l)),
    (3,): lambda l: (F(-1, 6 * l * l), F(-1, 6 * l * l), F(1, 3 * l * l)),
    (2,): lambda l: (F(1, 6 * l * l), F(-1, 3 * l * l), F(1, 6 * l * l)),
}


def test_criterion_06_table1_and_corner_increase():
    for l in (2, 3):
        rows = {r["S"]: r["delta"] for r in table1_rows(l, 1)}
        assert set(rows) == set(TABLE1_EXPECTED)
        for s, expect in TABLE1_EXPECTED.items():
            assert rows[s] == expect(l)
    for n in range(2, 6):
        players = set(range(1, n + 1))
        for r in range(1, n):
            for union in itertools.combinations(sorted(players), r):
                U, L = set(union), players - set(union)
                u = len(U)
                for i in sorted(players):
                    got = corner_increase(sorted(L), sorted(U), 1, 2, i)
                    expected = ordering_weight(u, n) if i in U \
                        else -loss_constant(u, n)
                    assert got == expected
    for l in (2, 3):
        for L, U in (([2], [1, 3]), ([1, 2], [3]), ([3], [1, 2]), ([1], [2, 3])):
            e_bar = tuple(1 if i in L else 2 * l - 1 for i in range(1, 4))
            boxes = {b: (F(1) if all(x >= y for x, y in zip(b, e_bar))
                         and b != e_bar else F(0))
                     for b in itertools.product(range(1, 2 * l, 2), repeat=3)}
            base = make_regular_step(uniform_grid(l), boxes, 3)
            _, delta = apply_box_increment(base, e_bar, 1)
            assert delta.shares == tuple(corner_increase(L, U, 1, l, i)
                                         for i in (1, 2, 3))
    _report(6, "the four effect rows match for l in {2,3}; the corner "
               "closed form holds for every split up to 5 players and "
               "agrees with the applied box increments")


def test_criterion_07_single_coalition_deltas():
    rng = random.Random(707)
    done = 0
    while done < 100:
        n = rng.randrange(3, 7)
        u = random_simple_game(rng, n)
        candidates = [m for m in u.maximal_losing_masks() if m != 0]
        if not candidates:
            continue
        mask = rng.choice(candidates)
        v = u.add_winning(mask)
        s = mask.bit_count()
        before = ssi_coalition(u).shares
        after = ssi_coalition(v).shares
        for i in range(1, n + 1):
            diff = after[i - 1] - before[i - 1]
            if mask >> (i - 1) & 1:
                assert diff == ordering_weight(s, n)
            else:
                assert diff == -loss_constant(s, n)
        done += 1
    _report(7, "adding one winning coalition shifts the classical index by "
               "exactly the gain/loss constants on 100 random games")


def test_criterion_08_his_property_suite():
    rng = random.Random(808)
    done = 0
    while done < 100:
        n = rng.randrange(2, 5)
        p = rng.randrange(1, 4) if n <= 3 else rng.randrange(1, 3)
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
        done += 1

    def random_descending(boxes):
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

    games = [appendix_game()] + [random_regular_game(rng, 2, 3),
                                 random_regular_game(rng, 3, 2)]
    for g in games:
        lex = build_by_increments(g)
        alt = build_by_increments(g, box_order=random_descending)
        assert alt.final.same_values(lex.final)
        assert alt.psi == lex.psi
    _report(8, "100 random box increments match the exact share difference; "
               "two linear extensions build identical games and deltas")


def test_criterion_09_axiom_suite_and_independence():
    rng = random.Random(909)
    suite = [random_regular_game(rng, 2, rng.randrange(1, 4))
             for _ in range(25)]
    suite += [random_regular_game(rng, 3, rng.randrange(1, 3))
              for _ in range(25)]
    base = [random_regular_game(rng, 2, 2) for _ in range(2)]
    suite += [null_extension(g, pos) for g, pos in zip(base, (1, 3))]
    suite.append(embed_jk(JKGame.from_simple(SimpleGame.weighted(2, [1, 1]))))
    handles = make_handles()
    report = check_axioms(handles["psi_exact"], suite, seed=909)
    assert report.all_passed(), report.violations
    expected = {
        "two_psi": {"efficiency"},
        "half_psi_half_ed": {"null_player"},
        "psi_point": {"his"},
        "psi_square": {"his"},
    }
    for name, axioms in expected.items():
        rep = check_axioms(handles[name], suite, seed=909)
        assert rep.failed_axioms() == axioms, (name, rep.violations)
        for axiom in axioms:
            assert rep.violations[axiom], "needs a concrete witness"
    _report(9, "the exact index passes every axiom on 50+ random games; "
               "each foil fails exactly its designated axiom with a witness")


def test_criterion_10_non_monotone_guard():
    cf = CoalitionFunction.from_winning(3, [[1], [3], [1, 3], [1, 2, 3]],
                                        closure=False)
    shares = ssi_coalition(cf).shares
    assert shares[1] == F(-1, 3)
    report = validate(embed_coalition_semiregular(cf))
    assert not report.monotone
    assert any("monotonicity" in v for v in report.violations)
    _report(10, "the non-monotone fixture yields share -1/3 for player 2 "
                "and its embedding is flagged as non-monotone")
